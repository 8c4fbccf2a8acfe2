import argparse
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from slimnet import ops
from slimnet.cli import (
    EXIT_DATA,
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SPEC,
    blas_record,
    build_parser,
    main,
    manifest_argv,
)
from slimnet.mnist import CANONICAL_FILES, write_idx_images, write_idx_labels

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -------------------------------------------------------------------


def test_analyze_baseline_totals(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPECS / "baseline.spec"))
    assert code == EXIT_OK
    assert "48,858" in out
    assert "3,273,504" in out
    assert "total.params=3273504" in out
    assert "total.memory=48858" in out


def test_analyze_optimized_totals(capsys):
    code, out, _ = run_cli(capsys, "analyze", "optimized")
    assert code == EXIT_OK
    assert "13,874" in out and "2,588" in out


def test_analyze_golden_pass_and_notes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "optimized", "--expect-golden", "optimized")
    assert code == EXIT_OK
    assert "all cells match" in out
    assert "7*7*4" in out  # the documented misprint is flagged


def test_analyze_golden_mismatch_fails(capsys):
    code, _, err = run_cli(capsys, "analyze", "optimized", "--expect-golden", "baseline")
    assert code == EXIT_FAIL
    assert "mismatch" in err


def test_analyze_diff_against(capsys):
    code, out, _ = run_cli(capsys, "analyze", "optimized", "--diff-against", "baseline")
    assert code == EXIT_OK
    assert "235.9x" in out  # exact ratios
    assert "18.9x" in out
    assert "19.5x" in out  # ratio recomputed from the rounded display totals


def test_analyze_with_biases_convention(capsys):
    code, out, _ = run_cli(capsys, "analyze", "optimized", "--convention", "with-biases")
    assert code == EXIT_OK
    assert "total.params=14014" in out


def test_analyze_empty_spec_is_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.spec"
    empty.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "analyze", str(empty))
    assert code == EXIT_SPEC
    assert "no layers" in err


def test_analyze_shape_error_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("input h=28 w=28 c=1\nmaxpool window=3\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == EXIT_SPEC


def test_analyze_refuses_a_repeated_field(tmp_path, capsys):
    spec = tmp_path / "net.spec"
    spec.write_text((SPECS / "optimized.spec").read_text().replace("conv k=5", "conv k=5 k=3"))
    code, out, err = run_cli(capsys, "analyze", str(spec))
    assert code == EXIT_SPEC
    assert err.startswith("spec error: ") and "repeats field 'k'" in err
    assert out == ""


def test_analyze_refuses_a_repeated_name_line(tmp_path, capsys):
    spec = tmp_path / "net.spec"
    spec.write_text("name: a\n" + (SPECS / "optimized.spec").read_text())
    code, out, err = run_cli(capsys, "analyze", str(spec))
    assert code == EXIT_SPEC
    assert err.startswith("spec error: line 2: a second 'name:' line")
    assert out == ""


def test_analyze_directory_is_spec_error(capsys):
    code, out, err = run_cli(capsys, "analyze", str(SPECS))
    assert code == EXIT_SPEC
    assert f"spec error: spec '{SPECS}' is neither a preset" in err
    assert out == ""


# --- train ----------------------------------------------------------------------


def test_train_missing_data_dir_lists_files(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SLIMNET_DATA_DIR", raising=False)
    code, _, err = run_cli(
        capsys, "train", "optimized", "--data-dir", str(tmp_path / "nowhere"),
        "--iterations", "1", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DATA
    assert "train-images-idx3-ubyte" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lr", "0", "learning_rate must be > 0, got 0.0"),
        ("--batch", "0", "batch_size must be >= 1, got 0"),
        ("--iterations", "-1", "iterations must be >= 0, got -1"),
        ("--eval-every", "-1", "eval_every must be >= 0, got -1"),
        ("--lr", "nan", "learning_rate must be finite, got nan"),
        ("--lr", "inf", "learning_rate must be finite, got inf"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ],
)
def test_train_config_fault_is_reported_before_data_or_manifest(tmp_path, capsys, flag, value, message):
    # the data directory does not exist: the config is checked before any data is read
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "train", "optimized", "--data-dir", str(tmp_path / "nowhere"),
                           flag, value, "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith(f"config error: {message}")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("input h=28 w=28 c=1", "input h=32 w=32 c=1"),  # the data are 28x28
        ("dense out=10", "dense out=7"),  # a classifier ends in 10 classes
    ],
    ids=["input-32x32", "dense-out-7"],
)
def test_train_spec_refused_by_train_leaves_no_manifest(synth_data_dir, tmp_path, capsys, old, new):
    spec = tmp_path / "net.spec"
    spec.write_text((SPECS / "optimized.spec").read_text().replace(old, new))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "train", str(spec), "--data-dir", str(synth_data_dir),
                           "--iterations", "1", "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith("spec error: ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", [
    # the data directory does not exist: the output directory is checked before any data is read
    ["train", "optimized", "--data-dir", "nowhere", "--iterations", "1"],
    ["search", "--oracle", "table"],
], ids=["train", "search"])
def test_an_out_that_is_a_file_or_lies_under_one_is_refused_before_anything_is_read_or_made(
        tmp_path, capsys, command, under):
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    argv = [str(tmp_path / arg) if arg == "nowhere" else arg for arg in command]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_SPEC
    assert err == f"output error: --out {out} cannot be a directory: {blocker} is a file\n"
    assert stdout == ""
    assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "not a directory\n"


def test_search_negative_iterations_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--oracle", "table", "--iterations", "-1", "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith("config error: iterations must be >= 0, got -1")
    assert not (out / "manifest.json").exists()


def test_search_negative_seed_is_plan_error_before_data_or_manifest(tmp_path, capsys):
    # the trained oracle's data directory does not exist: the seeds are checked before any data is read
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--data-dir", str(tmp_path / "nowhere"), "--seeds=-1",
                           "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith("plan error: plan seeds must be >= 0, got -1")
    assert not out.exists()


def test_train_wrong_record_count_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "test"):
        write_idx_images(data / CANONICAL_FILES[f"{split}_images"], np.zeros((100, 28, 28), dtype=np.uint8))
        write_idx_labels(data / CANONICAL_FILES[f"{split}_labels"], np.zeros(100, dtype=np.uint8))
    code, _, err = run_cli(
        capsys, "train", "optimized", "--data-dir", str(data),
        "--iterations", "1", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DATA
    assert "data error: expected 60000 training records, got 100" in err


def test_train_zero_iterations_chance_accuracy(synth_data_dir, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
        "--iterations", "0", "--seed", "3", "--out", str(tmp_path / "run"),
    )
    assert code == EXIT_OK
    acc = float(out.split("final test accuracy:")[1].split()[0])
    assert abs(acc - 0.1) <= 0.02
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    assert (tmp_path / "run" / "manifest.json").exists()


def test_train_same_seed_identical_output(synth_data_dir, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        code, out, _ = run_cli(
            capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
            "--iterations", "15", "--seed", "11", "--out", str(tmp_path / name),
        )
        assert code == EXIT_OK
        outs.append(out.split("final test accuracy:")[1].split()[0])
    assert outs[0] == outs[1]
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (tmp_path / "b" / "checkpoint.bin").read_bytes()


def test_search_replay_reproduces_ledger(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "search", "--oracle", "table", "--out", str(tmp_path / "orig"),
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(
        capsys, "--replay", str(tmp_path / "orig" / "manifest.json"), "--out", str(tmp_path / "redo"),
    )
    assert code == EXIT_OK
    for artifact in ("results.ledger", "frontier.csv", "curves.csv", "selected.spec"):
        assert (tmp_path / "orig" / artifact).read_bytes() == (
            tmp_path / "redo" / artifact
        ).read_bytes(), artifact


def test_train_manifest_resolves_env_data_dir(synth_data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLIMNET_DATA_DIR", str(synth_data_dir))
    code, _, _ = run_cli(
        capsys, "train", "optimized", "--iterations", "0", "--out", str(tmp_path / "run"),
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert str(synth_data_dir) in manifest["argv"]  # env default captured for replay


def test_replay_reproduces_checkpoint(synth_data_dir, tmp_path, capsys):
    # `g` text would record the learning rate as 0.000123457
    code, _, _ = run_cli(
        capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
        "--iterations", "10", "--seed", "5", "--lr", "0.000123456789", "--out", str(tmp_path / "orig"),
    )
    assert code == EXIT_OK
    assert json.loads((tmp_path / "orig" / "manifest.json").read_text())["argv"] == [
        "train", "optimized", "--data-dir", str(synth_data_dir), "--iterations", "10", "--batch", "50",
        "--lr", "0.000123456789", "--seed", "5", "--eval-every", "0", "--out", str(tmp_path / "orig"),
    ]
    code, out, _ = run_cli(
        capsys, "--replay", str(tmp_path / "orig" / "manifest.json"), "--out", str(tmp_path / "redo"),
    )
    assert code == EXIT_OK
    assert (tmp_path / "orig" / "checkpoint.bin").read_bytes() == (
        tmp_path / "redo" / "checkpoint.bin"
    ).read_bytes()


def test_the_suite_runs_one_blas_thread():
    # tests/conftest.py sets OPENBLAS_NUM_THREADS before numpy is imported
    threads = blas_record()["threads"]
    if threads == "unknown":
        pytest.skip("the loaded BLAS has no scipy_openblas_get_num_threads64_")
    assert threads == 1


def test_train_and_search_manifests_record_the_blas(synth_data_dir, tmp_path, capsys):
    for argv in (["train", "optimized", "--data-dir", str(synth_data_dir), "--iterations", "0"],
                 ["search", "--oracle", "table"]):
        out_dir = tmp_path / argv[0]
        assert run_cli(capsys, *argv, "--out", str(out_dir))[0] == EXIT_OK
        blas = json.loads((out_dir / "manifest.json").read_text())["blas"]
        assert blas == blas_record() and list(blas) == ["name", "version", "threads"], argv[0]


def test_a_replay_on_another_blas_warns_once_and_writes_the_same_checkpoint(synth_data_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
        "--iterations", "3", "--seed", "2", "--out", str(tmp_path / "orig"),
    )
    assert code == EXIT_OK and "warning" not in err
    manifest_path = tmp_path / "orig" / "manifest.json"
    code, _, err = run_cli(capsys, "--replay", str(manifest_path), "--out", str(tmp_path / "same"))
    assert code == EXIT_OK and "warning" not in err
    manifest = json.loads(manifest_path.read_text())
    manifest["blas"]["threads"] = 7 if manifest["blas"]["threads"] != 7 else 8
    manifest_path.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "--replay", str(manifest_path), "--out", str(tmp_path / "redo"))
    assert code == EXIT_OK
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [err.strip()]
    assert '"threads": 7' in err or '"threads": 8' in err
    assert out.startswith("replaying: slimnet train optimized")
    checkpoint = (tmp_path / "orig" / "checkpoint.bin").read_bytes()
    for name in ("same", "redo"):
        assert (tmp_path / name / "checkpoint.bin").read_bytes() == checkpoint, name


def test_replay_keeps_every_trailing_argument(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "search", "--oracle", "table", "--out", str(tmp_path / "a"))
    assert code == EXIT_OK
    recorded = (tmp_path / "a" / "manifest.json").read_bytes()
    code, _, _ = run_cli(capsys, "--replay", str(tmp_path / "a" / "manifest.json"),
                         "--threshold", "0.5", "--out", str(tmp_path / "b"))
    assert code == EXIT_OK
    assert (tmp_path / "a" / "manifest.json").read_bytes() == recorded
    argv = json.loads((tmp_path / "b" / "manifest.json").read_text())["argv"]
    assert argv[argv.index("--threshold") + 1] == "0.5"
    assert argv[argv.index("--out") + 1] == str(tmp_path / "b")


@pytest.mark.parametrize(
    "content",
    [b"[]", b"\xff\xfe{}", b'{"argv": [1, 2]}', b'{"argv": "search"}'],
    ids=["not-an-object", "not-utf8", "argv-not-strings", "argv-a-string"],
)
def test_replay_refuses_a_malformed_manifest(tmp_path, capsys, content):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(content)
    code, out, err = run_cli(capsys, "--replay", str(manifest))
    assert code == EXIT_FAIL
    assert err.startswith(f"cannot replay manifest {manifest}: ")
    assert "Traceback" not in err and "replaying" not in out


def test_replay_refuses_a_manifest_that_replays_a_manifest(tmp_path, capsys):
    # no run records such an argv; replaying one would replay itself without end
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"argv": ["--replay", str(manifest)]}))
    code, out, err = run_cli(capsys, "--replay", str(manifest))
    assert code == EXIT_FAIL
    assert err.startswith(f"cannot replay manifest {manifest}: ")
    assert "replaying" not in out


# --- search -----------------------------------------------------------------------


def test_search_manifest_records_the_threshold_given(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "search", "--oracle", "table", "--threshold", "0.123456789",
                         "--out", str(tmp_path))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["argv"] == [
        "search", "--oracle", "table", "--threshold", "0.123456789", "--seeds", "0", "--out", str(tmp_path),
    ]


def test_search_refuses_a_ledger_of_another_schedule_before_the_manifest(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "search", "--oracle", "table", "--out", str(tmp_path))
    assert code == EXIT_OK
    ledger = tmp_path / "results.ledger"
    ledger.write_text(ledger.read_text().replace("schedule=table", "schedule=it5-bs50-lr0.0001"))
    written = {name: (tmp_path / name).read_bytes() for name in ("manifest.json", "results.ledger")}
    code, _, err = run_cli(capsys, "search", "--oracle", "table", "--threshold", "0.99", "--out", str(tmp_path))
    assert code == EXIT_SPEC
    assert err.startswith(f"plan error: ledger {ledger} holds tag drop_conv2=false seed 0 under schedule it5-")
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def stage(knob, *values):
    return {"knob": knob, "values": list(values), "pick": values[-1]}


def table_ledger(text):
    # a default table search's output, its ledger's lines passed through `text`
    from slimnet.search import default_plan, run_search, table_oracle

    def write(path):
        run_search(default_plan(), table_oracle(), out_dir=path.parent)
        path.write_text(text(path.read_text()))
    return write


def with_a_second_record(text):
    # the conv1=1x1x2 record again at 0.99: kept last, it would make that net the pick at 0.97
    line = next(line for line in text.splitlines(keepends=True) if line.startswith("tag=conv1=1x1x2 "))
    return text + line.replace("accuracy=0.942800", "accuracy=0.990000")


@pytest.mark.parametrize(
    "plan, argv, ledger, message",
    [
        ({"stages": [stage("fc1_width", 64), stage("fc1_width", 64)], "include_extras": False}, [], None,
         "plan error: two candidates share the tag 'fc1_width=64'"),
        ({"base": "optimized", "stages": [stage("drop_conv2", True)]}, [], None,
         "plan error: drop_conv2: spec has no second conv layer"),
        ({"base": "optimized", "stages": [stage("pool_window", 3)], "include_extras": False}, [], None,
         "plan error: plan produced no valid candidates"),
        (None, ["--exhaustive"], None, "plan error: no recorded accuracy for candidate 'lattice:drop_conv2=false,"),
        # the default sweep filed conv2-dropped nets under the fc1_width tags; this plan keeps conv2
        ({"stages": [stage("fc1_width", 1024, 128)]}, [], table_ledger(lambda text: text),
         "plan error: ledger {ledger} holds tag fc1_width=1024 seed 0 as net "),
        (None, [], table_ledger(lambda text: text.replace("schedule=table", "schedule=it5-bs50-lr0.0001")),
         "plan error: ledger {ledger} holds tag drop_conv2=false seed 0 under schedule it5-"),
        (None, ["--threshold", "0.97"], table_ledger(with_a_second_record),
         "plan error: ledger {ledger} holds tag conv1=1x1x2 seed 0 twice, on lines 23 and 27"),
        ({"schedule": {"batch_size": 60000}}, ["--data-dir", "{synth}"], None,
         "config error: batch_size 60000 exceeds dataset size 55000"),
    ],
    ids=["repeated-tag", "pick-the-base-cannot-take", "no-valid-candidate", "exhaustive-table",
         "another-net-under-a-tag", "another-schedule", "a-pair-twice", "batch-beyond-the-training-split"],
)
def test_search_refusals_leave_no_manifest_and_no_new_ledger(tmp_path, capsys, request, plan, argv, ledger, message):
    out = tmp_path / "out"
    out.mkdir()
    if plan is not None:
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        argv = [*argv, "--plan", str(tmp_path / "plan.json")]
    if ledger is not None:
        ledger(out / "results.ledger")
    if "{synth}" in argv:  # the trained oracle, on the 55k training split
        argv = [arg.format(synth=request.getfixturevalue("synth_data_dir")) for arg in argv]
    else:
        argv = [*argv, "--oracle", "table"]
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    code, _, err = run_cli(capsys, "search", *argv, "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith(message.format(ledger=out / "results.ledger"))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


def test_an_infeasible_rerun_removes_the_earlier_selected_spec(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "search", "--oracle", "table", "--threshold", "0.95", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "selected.spec").exists()
    code, out, _ = run_cli(capsys, "search", "--oracle", "table", "--threshold", "0.999", "--out", str(tmp_path))
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in out
    assert not (tmp_path / "selected.spec").exists()
    assert "0.999" in json.loads((tmp_path / "manifest.json").read_text())["argv"]


def test_search_table_oracle_selects_optimized(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "search", "--oracle", "table", "--threshold", "0.95", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "13,874" in out
    selected = (tmp_path / "selected.spec").read_text()
    assert "conv k=5 out=2" in selected
    assert "maxpool window=4" in selected
    assert "dense out=128" in selected
    assert (tmp_path / "frontier.csv").exists()
    assert (tmp_path / "curves.csv").exists()
    assert (tmp_path / "results.ledger").exists()


def test_search_table_oracle_threshold_99(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "search", "--oracle", "table", "--threshold", "0.99", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    selected = (tmp_path / "selected.spec").read_text()
    assert "conv k=5 out=32" in selected  # a baseline-family network


def test_search_threshold_one_infeasible_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "search", "--oracle", "table", "--threshold", "1.0", "--out", str(tmp_path),
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in out
    assert "0.99" in out  # best accuracy found is reported


def test_search_plan_file_and_workers(tmp_path, capsys):
    plan = {
        "threshold": 0.95,
        "seeds": [0],
        "stages": [
            {"knob": "drop_conv2", "values": [False, True], "pick": True},
            {"knob": "fc1_width", "values": [1024, 512, 256, 128, 64, 32], "pick": 128},
            {
                "knob": "conv1",
                "values": [[k, d] for k in (5, 3, 1) for d in (32, 16, 8, 4, 2)],
                "pick": [5, 2],
            },
            {"knob": "pool_window", "values": [2, 4], "pick": 4},
        ],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, _ = run_cli(
        capsys, "search", "--plan", str(plan_path), "--oracle", "table", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    assert "13,874" in out
    # the sweep runs one candidate at a time: `--workers` is gone, and a manifest
    # that recorded it no longer replays
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "--workers" not in manifest["argv"]
    manifest["argv"] += ["--workers", "1"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        main(["--replay", str(manifest_path), "--out", str(tmp_path / "redo")])
    assert exc.value.code == EXIT_SPEC
    assert "--workers" in capsys.readouterr().err


def test_search_missing_plan_file_is_plan_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "search", "--plan", str(missing), "--oracle", "table",
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_SPEC
    assert f"plan error: cannot read plan file '{missing}'" in err
    assert "data error" not in err


def test_search_invalid_plan_json_is_plan_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"threshold": \n')
    code, _, err = run_cli(capsys, "search", "--plan", str(bad), "--oracle", "table",
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_SPEC
    assert f"plan error: cannot parse plan file '{bad}': Expecting value: line 2 column 1 (char 15)" in err
    assert "spec error" not in err
    bad.write_bytes(b"\xff{}")
    code, _, err = run_cli(capsys, "search", "--plan", str(bad), "--oracle", "table",
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_SPEC
    assert f"plan error: cannot parse plan file '{bad}': 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "contents, message",
    [
        ("[1, 2]", "a plan must be a JSON object, got list"),
        ('{"seeds": 5}', "plan seeds must be a list of integers, got 5"),
        ('{"threshold": null}', "plan threshold must be a number, got None"),
        ('{"stages": 3}', "plan stages must be a list, got 3"),
        ('{"base": 7}', "plan base must be a string, got 7"),
        ('{"schedule": {"iterations": 150, "init_stddev": 0.3}}',
         "malformed plan schedule: TrainConfig.__init__() got an unexpected keyword argument 'init_stddev'"),
        ('{"seeds": "12"}', "plan seeds must be a list of integers, got '12'"),
        ('{"seeds": [1.9]}', "plan seeds must be a list of integers, got [1.9]"),
        ('{"seeds": [true]}', "plan seeds must be a list of integers, got [True]"),
        ('{"stages": [{"knob": "drop_conv2", "values": ["false"], "pick": true}], "include_extras": false}',
         "drop_conv2 value must be true or false, got 'false'"),
        ('{"stages": [{"knob": "fc1_width", "values": ["abc"], "pick": 128}]}',
         "fc1_width value must be a positive integer, got 'abc'"),
        ('{"threshhold": 0.99}', "unknown plan field 'threshhold'"),
        ('{"include_extras": "false"}', "plan include_extras must be true or false, got 'false'"),
    ],
    ids=["list", "seeds-int", "threshold-null", "stages-int", "base-int", "schedule-removed-field",
         "seeds-string", "seeds-float", "seeds-bool", "drop-conv2-string", "width-string",
         "unknown-field", "include-extras-string"],
)
def test_search_malformed_plan_is_plan_error(tmp_path, capsys, contents, message):
    bad = tmp_path / "plan.json"
    bad.write_text(contents)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--plan", str(bad), "--oracle", "table", "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith(f"plan error: {message}")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("seeds, got", [("0,x", "(0, 'x')"), ("", "('',)")], ids=["letter", "empty"])
def test_search_malformed_seed_list_is_plan_error_before_data_or_manifest(tmp_path, capsys, seeds, got):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--data-dir", str(tmp_path / "nowhere"), "--seeds", seeds,
                           "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith(f"plan error: plan seeds must be a list of integers, got {got}")
    assert not out.exists()


def test_search_repeated_seed_is_plan_error_before_data_or_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--data-dir", str(tmp_path / "nowhere"), "--seeds", "0,0",
                           "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith("plan error: plan seeds repeat seed 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "schedule, message",
    [
        ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
        ({"iterations": True}, "iterations must be an integer, got True"),
        ({"learning_rate": "0.001"}, "learning_rate must be a real number, got '0.001'"),
    ],
)
def test_search_plan_schedule_of_the_wrong_type_is_config_error(tmp_path, capsys, schedule, message):
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps({"schedule": schedule}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "search", "--plan", str(bad), "--oracle", "table", "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith(f"config error: {message}")
    assert not out.exists()


def test_train_batch_larger_than_training_split_is_config_error(synth_data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
                           "--batch", "60000", "--iterations", "1", "--out", str(out))
    assert code == EXIT_SPEC
    assert err.startswith("config error: batch_size 60000 exceeds dataset size 55000")
    assert not (out / "manifest.json").exists()


def test_train_on_an_image_header_promising_more_than_its_file_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for stem in CANONICAL_FILES.values():
        (data / stem).write_bytes(struct.pack(">iiii", 2051, *(2**31 - 1,) * 3) + bytes(100))
    code, _, err = run_cli(capsys, "train", "optimized", "--data-dir", str(data),
                           "--iterations", "1", "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and "payload holds 100 bytes" in err


def test_train_missing_idx_file_stays_data_error(synth_data_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for stem in list(CANONICAL_FILES.values())[1:]:
        (data / stem).write_bytes((synth_data_dir / stem).read_bytes())
    code, _, err = run_cli(capsys, "train", "optimized", "--data-dir", str(data),
                           "--iterations", "1", "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert "data error" in err


def test_search_trained_oracle_end_to_end(synth_data_dir, tmp_path, capsys):
    plan = {
        "base": "optimized",
        "threshold": 0.2,
        "seeds": [0],
        "stages": [{"knob": "pool_window", "values": [2, 4], "pick": 4}],
        "include_extras": False,
        "schedule": {"iterations": 120},
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, _ = run_cli(
        capsys, "search", "--plan", str(plan_path), "--data-dir", str(synth_data_dir),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    assert "selected" in out
    ledger = (tmp_path / "out" / "results.ledger").read_text()
    assert ledger.count("\n") == 2
    assert "it120-bs50" in ledger  # the trained schedule id, not "table"


# --- gradcheck ----------------------------------------------------------------------


def test_gradcheck_default_passes(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--trials", "4")
    assert code == EXIT_OK
    assert out.count("PASS") == 6


def test_gradcheck_fault_injection_fails_naming_layer(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--trials", "3", "--inject-fault", "conv")
    assert code == EXIT_FAIL
    assert any(line.startswith("FAIL") and "conv" in line for line in out.splitlines())


def test_gradcheck_layer_subset(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--layers", "dense", "--trials", "3")
    assert code == EXIT_OK
    assert out.count("PASS") == 1 and "dense" in out


def test_gradcheck_fails_on_a_nan_gradient(capsys, monkeypatch):
    real = ops.conv2d_backward

    def nan_weight_gradient(x, p, g):
        gx, gw, gb = real(x, p, g)
        return gx, np.full_like(gw, np.nan), gb

    monkeypatch.setattr(ops, "conv2d_backward", nan_weight_gradient)
    code, out, _ = run_cli(capsys, "gradcheck", "--layers", "conv", "--trials", "2")
    assert code == EXIT_FAIL
    assert out.startswith("FAIL  conv")


@pytest.mark.parametrize("argv", [("--trials", "0"), ("--trials", "-3", "--layers", "conv"),
                                  ("--inject-fault", "conv", "--trials", "0", "--layers", "conv")])
def test_gradcheck_refuses_fewer_than_one_trial(capsys, monkeypatch, argv):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("slimnet.cli.run_suite", no_check)
    code, out, err = run_cli(capsys, "gradcheck", *argv)
    assert code == EXIT_SPEC
    assert out == "" and "--trials" in err


def test_gradcheck_unknown_layer(capsys):
    code, _, err = run_cli(capsys, "gradcheck", "--layers", "conv3d")
    assert code == EXIT_SPEC
    assert "conv3d" in err


# --- misc ----------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_FAIL, EXIT_SPEC, EXIT_DATA, EXIT_INFEASIBLE}
    assert len(codes) == 5


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def argv_for(command: str, every_option: bool) -> list[str]:
    """argv for `command`: its positional, and with `every_option` each option given, as a flag, its
    last choice, or a number that `g` would round."""
    argv = [command]
    for action in subcommands()[command]._actions:
        if not action.option_strings:
            argv.append("optimized")
        elif not every_option or isinstance(action, argparse._HelpAction):
            continue
        elif action.nargs == 0:
            argv.append(action.option_strings[-1])
        else:
            value = action.choices[-1] if action.choices else {int: "0", float: "0.000123456789"}.get(action.type, "a/b")
            argv += [action.option_strings[-1], value]
    return argv


@pytest.mark.parametrize("command", list(subcommands()))
def test_every_long_flag_is_its_dest(command):
    # the manifest writes each option as `--<dest with _ as ->`
    for action in subcommands()[command]._actions:
        if action.option_strings:
            assert f"--{action.dest.replace('_', '-')}" in action.option_strings, action.option_strings


@pytest.mark.parametrize("command", list(subcommands()))
@pytest.mark.parametrize("every_option", [False, True], ids=["defaults", "every-option"])
def test_manifest_argv_parses_back_to_the_same_namespace(command, every_option):
    args = build_parser().parse_args(argv_for(command, every_option))
    assert build_parser().parse_args(manifest_argv(args)) == args
