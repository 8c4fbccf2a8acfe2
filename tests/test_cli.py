import json
from pathlib import Path

import numpy as np
import pytest

from slimnet.cli import (
    EXIT_DATA,
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SPEC,
    main,
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


# --- train ----------------------------------------------------------------------


def test_train_missing_data_dir_lists_files(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SLIMNET_DATA_DIR", raising=False)
    code, _, err = run_cli(
        capsys, "train", "optimized", "--data-dir", str(tmp_path / "nowhere"),
        "--iterations", "1", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_DATA
    assert "train-images-idx3-ubyte" in err


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
    code, _, _ = run_cli(
        capsys, "train", "optimized", "--data-dir", str(synth_data_dir),
        "--iterations", "10", "--seed", "5", "--out", str(tmp_path / "orig"),
    )
    assert code == EXIT_OK
    code, out, _ = run_cli(
        capsys, "--replay", str(tmp_path / "orig" / "manifest.json"), "--out", str(tmp_path / "redo"),
    )
    assert code == EXIT_OK
    assert (tmp_path / "orig" / "checkpoint.bin").read_bytes() == (
        tmp_path / "redo" / "checkpoint.bin"
    ).read_bytes()


# --- search -----------------------------------------------------------------------


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
        capsys, "search", "--plan", str(plan_path), "--oracle", "table",
        "--workers", "3", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    assert "13,874" in out


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
