"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria needing the real MNIST files use them when present (see
conftest.DATA_DIR_CANDIDATES) and otherwise fall back to the synthetic
digit corpus where the criterion is data-agnostic, or skip with an
explicit reason where it is not.  Full-schedule (20,000-iteration)
replications are opt-in via SLIMNET_FULL_RUNS=1: they take CPU-hours.
"""

import os
import statistics
import time

import numpy as np
import pytest

from slimnet.accounting import analyze, diff_reports
from slimnet.cli import EXIT_OK, main as cli_main
from slimnet.golden import COMPARISON, GOLDEN_LEDGERS, check_against_golden
from slimnet.gradcheck import run_suite
from slimnet.netspec import (
    LayerSpec,
    NetSpec,
    baseline_spec,
    dropped_conv2_spec,
    optimized_spec,
    spec_id,
)
from slimnet.search import (
    CandidateResult,
    build_frontier,
    default_plan,
    run_search,
    select_minimal,
    table_oracle,
)
from slimnet.synth import synthetic_splits
from slimnet.trainer import TrainConfig, evaluate, train
from slimnet.mnist import Dataset, DataSplits, load_data_dir
from tests.conftest import find_mnist_dir

FULL_RUNS = os.environ.get("SLIMNET_FULL_RUNS") == "1"


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert ok, detail


def training_data(desk_train=6000, desk_test=1500, seed=21):
    """Real MNIST splits when available, synthetic digits otherwise."""
    directory = find_mnist_dir()
    if directory is not None:
        return load_data_dir(directory), "mnist"
    return (
        synthetic_splits(n_train=desk_train, n_validation=300, n_test=desk_test, seed=seed),
        "synthetic",
    )


def test_criterion_1_golden_table_exactness():
    started = time.perf_counter()
    reports = {name: analyze(spec()) for name, spec in
               [("baseline", baseline_spec), ("dropped-conv2", dropped_conv2_spec),
                ("optimized", optimized_spec)]}
    problems = []
    for name, rep in reports.items():
        problems += [f"{name}: {p}" for p in check_against_golden(rep, name)]

    def cell(report_name, row, col):
        r = reports[report_name].row(row)
        return r.param_count if col == "p" else r.memory_elements

    param_cells = [
        cell("baseline", "conv1", "p") == 800,
        cell("baseline", "conv2", "p") == 51200,
        cell("baseline", "fc1", "p") == 3211264,
        cell("baseline", "fc2", "p") == 10240,
        cell("dropped-conv2", "fc1", "p") == 6422528,
        cell("optimized", "conv1", "p") == 50,
        cell("optimized", "fc1", "p") == 12544,
        cell("optimized", "fc2", "p") == 1280,
    ]
    memory_cells = [
        cell("baseline", "conv1", "m") == 25088,
        cell("baseline", "pool1", "m") == 6272,
        cell("baseline", "conv2", "m") == 12544,
        cell("baseline", "pool2", "m") == 3136,
        cell("optimized", "conv1", "m") == 1568,
        cell("optimized", "pool1", "m") == 98,
    ]
    # the documented misprints are flagged as notes, not matched as cells
    typos_flagged = any("7*7*4" in n for n in GOLDEN_LEDGERS["optimized"].notes) and any(
        "48.6" in n for n in GOLDEN_LEDGERS["baseline"].notes
    )
    exact_totals = (
        reports["baseline"].total_memory == 48858
        and reports["optimized"].total_memory == 2588  # not the rounded 2.5K
    )
    elapsed = time.perf_counter() - started
    ok = not problems and all(param_cells) and all(memory_cells) and typos_flagged and exact_totals
    report(1, ok, f"every ledger cell exact, misprints flagged ({elapsed * 1000:.0f} ms)"
           + (f"; problems: {problems}" if problems else ""))


def test_criterion_2_ratio_claims():
    started = time.perf_counter()
    diff = diff_reports(analyze(baseline_spec()), analyze(optimized_spec()))
    exact_params = diff.param_ratio
    exact_memory = diff.memory_ratio
    display_memory = COMPARISON["memory_ratio_display"]
    ok = (
        abs(exact_params - 235.945) < 0.01
        and round(exact_params) == 236
        and abs(exact_memory - 48858 / 2588) < 1e-9
        and abs(exact_memory - 18.879) < 0.001
        and round(display_memory, 1) == 19.5
    )
    elapsed = time.perf_counter() - started
    report(2, ok, f"params ratio {exact_params:.1f} (reported 236), memory ratio exact "
                  f"{exact_memory:.1f}, display-rounded {display_memory:.2f} -> 19.5 "
                  f"({elapsed * 1000:.0f} ms)")


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    shapes_checked = 0
    for seed in range(4):  # 4 seeds x 5 trials = 20 randomized shapes per layer
        for r in run_suite(trials=5, seed=seed):
            worst = max(worst, r.max_rel_err)
            shapes_checked += r.trials
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 60 and shapes_checked >= 20 * 6
    report(3, ok, f"{shapes_checked} randomized layer instances, max rel err {worst:.2e} "
                  f"<= 1e-4 in {elapsed:.1f} s")


def test_criterion_4_overfit_sanity():
    data, source = training_data()
    subset = DataSplits(
        train=Dataset(data.train.images[:100], data.train.labels[:100]),
        validation=data.validation,
        test=Dataset(data.test.images[:100], data.test.labels[:100]),
    )
    # conventional overfit-test settings: livelier lr, dropout off
    layers = optimized_spec().layers
    spec = NetSpec("optimized", tuple(LayerSpec.dropout(1.0) if l.kind == "dropout" else l for l in layers))
    cfg = TrainConfig(iterations=500, seed=5, learning_rate=1e-3)
    started = time.perf_counter()
    result = train(spec, subset, cfg)
    train_acc = evaluate(spec, result.params, subset.train.images, subset.train.labels)
    elapsed = time.perf_counter() - started
    ok = train_acc >= 0.99 and elapsed < 120
    report(4, ok, f"optimized net memorizes 100 {source} samples: train accuracy "
                  f"{train_acc:.3f} >= 0.99 within 500 iterations ({elapsed:.1f} s)")


def test_criterion_5_desk_scale_accuracy():
    directory = find_mnist_dir()
    cfg = TrainConfig(iterations=2000, seed=0)  # protocol hyperparameters
    if directory is None:
        data = synthetic_splits(n_train=12000, n_validation=500, n_test=2000, seed=7)
        result = train(optimized_spec(), data, cfg)
        ok = result.final_test_accuracy >= 0.90
        report(5, ok, "real MNIST absent -> stand-in run on the synthetic corpus: "
                      f"optimized net, 2000 iterations, test accuracy "
                      f"{result.final_test_accuracy:.4f} >= 0.90 (set SLIMNET_DATA_DIR "
                      "to run the MNIST criterion itself)")
        return
    data = load_data_dir(directory)
    result = train(optimized_spec(), data, cfg)
    ok = result.final_test_accuracy >= 0.90
    report(5, ok, f"optimized net on MNIST, 2000 iterations: test accuracy "
                  f"{result.final_test_accuracy:.4f} >= 0.90")


@pytest.mark.skipif(not FULL_RUNS, reason="full 20k-iteration replication is opt-in (SLIMNET_FULL_RUNS=1)")
def test_criterion_5_full_schedule_optimized(mnist_splits):
    result = train(optimized_spec(), mnist_splits, TrainConfig(iterations=20000, seed=0))
    ok = abs(result.final_test_accuracy - 0.9581) <= 0.01
    report("5-full-optimized", ok,
           f"optimized net, full schedule: {result.final_test_accuracy:.4f} vs 0.9581 +/- 0.01")


@pytest.mark.skipif(not FULL_RUNS, reason="full 20k-iteration replication is opt-in (SLIMNET_FULL_RUNS=1)")
def test_criterion_5_full_schedule_baseline(mnist_splits):
    result = train(baseline_spec(), mnist_splits, TrainConfig(iterations=20000, seed=0))
    ok = abs(result.final_test_accuracy - 0.9929) <= 0.005
    report("5-full-baseline", ok,
           f"baseline net, full schedule: {result.final_test_accuracy:.4f} vs 0.9929 +/- 0.005")


def test_criterion_6_frontier_property_and_selection(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        results = [
            CandidateResult(
                tag=f"r{i}", ident=f"r{i}", params=int(rng.integers(1, 10**7)),
                memory=int(rng.integers(1, 10**5)), accuracy=float(rng.random()),
                seed=0, schedule_id="synth", wall_time=0.0, diverged=False,
            )
            for i in range(n)
        ]
        frontier = build_frontier(results)
        for lo, hi in zip(frontier, frontier[1:]):
            if not (lo.size < hi.size and lo.accuracy < hi.accuracy):
                violations += 1
    table_results = run_search(default_plan(), table_oracle(), out_dir=tmp_path).results
    table_frontier = build_frontier(table_results)
    table_ordered = all(
        lo.size < hi.size and lo.accuracy < hi.accuracy
        for lo, hi in zip(table_frontier, table_frontier[1:])
    )
    selection = select_minimal(table_results, 0.95)
    selects_optimized = (
        selection.feasible
        and selection.choice.ident == spec_id(optimized_spec())
        and selection.choice.params == 13874
    )
    elapsed = time.perf_counter() - started
    ok = violations == 0 and table_ordered and selects_optimized and elapsed < 60
    report(6, ok, f"strict frontier ordering on 1000 random sets + recorded table; "
                  f"threshold 0.95 selects the 13,874-param optimized net ({elapsed:.1f} s)")


def test_criterion_7_ordering_spot_check():
    def grid_spec(k):
        return NetSpec(
            f"grid-{k}x{k}x32",
            (
                LayerSpec.input(28, 28, 1),
                LayerSpec.conv(k, 32),
                LayerSpec.maxpool(2),
                LayerSpec.flatten(),
                LayerSpec.dense(128),
                LayerSpec.dropout(0.5),
                LayerSpec.dense(10),
            ),
        )

    data, source = training_data()
    started = time.perf_counter()
    medians = {}
    for k in (5, 1):
        accs = [
            train(grid_spec(k), data, TrainConfig(iterations=400, seed=seed)).final_test_accuracy
            for seed in (0, 1, 2)
        ]
        medians[k] = statistics.median(accs)
    elapsed = time.perf_counter() - started
    ok = medians[5] > medians[1] and elapsed < 1800
    report(7, ok, f"depth-32 slice on {source} data: median over 3 seeds "
                  f"acc(5x5)={medians[5]:.4f} > acc(1x1)={medians[1]:.4f} ({elapsed:.0f} s)")


def test_criterion_8_determinism(synth_data_dir, tmp_path, capsys):
    outputs = []
    for name in ("first", "second"):
        code = cli_main([
            "train", "optimized", "--data-dir", str(synth_data_dir),
            "--iterations", "25", "--seed", "7", "--out", str(tmp_path / name),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        outputs.append(out.split("final test accuracy:")[1].split()[0])
    same_accuracy = outputs[0] == outputs[1]
    same_bytes = (tmp_path / "first" / "checkpoint.bin").read_bytes() == (
        tmp_path / "second" / "checkpoint.bin"
    ).read_bytes()
    with capsys.disabled():
        report(8, same_accuracy and same_bytes,
               f"two cmd_train runs, same seed: identical accuracy ({outputs[0]}) and "
               "byte-identical checkpoints")
