"""One child process of the benchmark.

    python3 bench/worker.py gen   WORKLOAD SEED WORKDIR
    python3 bench/worker.py setup WORKLOAD SEED WORKDIR SPAWNED_AT
    python3 bench/worker.py op    WORKLOAD SEED WORKDIR SPAWNED_AT TRACE INDEX

`gen` writes the workload's inputs; `setup` imports slimnet and sets the
workload up, then exits; `op` sets up and runs one operation of the
workload, then checks its outputs.  The last line of standard output is
one JSON object.

Times are CPU seconds of this process (`time.process_time()`, user plus
system, all threads), so they do not count time spent waiting for a core
on a shared host; process CPU time counts from the exec, so set-up time
includes interpreter start and imports.  Wall-clock twins (`*_wall_s`)
are reported beside them; SPAWNED_AT is the parent's `time.perf_counter()`
just before it started this process (a system-wide monotonic clock on
Linux).

slimnet is imported from the `src/` next to this directory, never from an
installed copy, so a run always measures the code of its own checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload -> (spec file, training iterations per operation)
TRAIN = {
    "train-optimized": ("optimized.spec", 200),
    "train-dropped-conv2": ("dropped-conv2.spec", 20),
}
SWEEP_ITERATIONS = 4
SWEEP_SPLITS = {"n_train": 2000, "n_validation": 500, "n_test": 200}
# (total params, total memory elements) of the stock ledgers, paper_compat convention
GOLDEN_TOTALS = {"drop_conv2=false": (3273504, 48858), "pool_window=4": (13874, 2588)}


def import_slimnet():
    sys.path.insert(0, str(SRC))
    import slimnet
    # binds every submodule the tracer patches as an attribute of the package
    from slimnet import accounting, container, mnist, netspec, network, ops, search, synth, trainer  # noqa: F401

    if Path(slimnet.__file__).resolve().parent != SRC / "slimnet":
        raise ImportError(f"slimnet resolved to {slimnet.__file__}, not to {SRC / 'slimnet'}")
    return slimnet


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- environment ------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        },
        "seed": seed,
    }


# --- workloads --------------------------------------------------------------------


SPLIT_NAMES = ("train", "validation", "test")


def gen(workload: str, seed: int, workdir: Path) -> dict:
    import_slimnet()
    from slimnet import synth

    if workload in TRAIN:
        synth.write_synthetic_data_dir(workdir / "data", seed=seed)
    else:
        # saved rather than made in the measured process: how generation left
        # the heap there moved its peak RSS by ~5% from one seed to another
        import numpy as np

        data = synth.synthetic_splits(seed=seed, **SWEEP_SPLITS)
        np.savez(workdir / "splits.npz", **{f"{name}_{field}": getattr(getattr(data, name), field)
                                            for name in SPLIT_NAMES for field in ("images", "labels")})
    return {}


def load_splits(workdir: Path):
    import numpy as np
    from slimnet import mnist

    with np.load(workdir / "splits.npz") as z:
        return mnist.DataSplits(*(mnist.Dataset(z[f"{name}_images"], z[f"{name}_labels"]) for name in SPLIT_NAMES))


def _same_checkpoint(ck, result) -> bool:
    import numpy as np

    if ck.iteration != result.iterations_run or ck.adam.t != result.adam_state.t:
        return False
    if list(ck.params) != sorted(result.params):
        return False
    for name, p in result.params.items():
        q = ck.params[name]
        if type(q) is not type(p) or not (np.array_equal(q.weights, p.weights) and np.array_equal(q.bias, p.bias)):
            return False
    for ours, theirs in ((ck.adam.m, result.adam_state.m), (ck.adam.v, result.adam_state.v)):
        if sorted(ours) != sorted(theirs) or not all(np.array_equal(ours[k], theirs[k]) for k in theirs):
            return False
    return True


def train_workload(out, workload, seed, workdir, spawned_at, mode, tracer, index):
    slimnet = import_slimnet()
    from slimnet import container, mnist, netspec, trainer

    if tracer is not None:
        from spans import install

        install(tracer, slimnet)
    spec_file, iterations = TRAIN[workload]
    spec = netspec.load_spec(ROOT / "specs" / spec_file)
    data = mnist.load_data_dir(workdir / "data")
    setup_end, setup_cpu = time.perf_counter(), time.process_time()
    out["setup_s"], out["setup_wall_s"] = setup_cpu, setup_end - spawned_at
    if mode == "setup":
        return

    path = workdir / f"checkpoint-{index}.bin"
    try:
        result = trainer.train(spec, data, trainer.TrainConfig(iterations=iterations, seed=seed))
        container.save_checkpoint(path, result.params, result.adam_state, result.iterations_run)
    finally:
        out["run_cpu_s"] = time.process_time() - setup_cpu
        out["run_wall_s"] = time.perf_counter() - setup_end
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.restore()
    out["accuracy"] = result.final_test_accuracy
    out["checkpoint_bytes"] = path.stat().st_size
    out["digest"] = sha256_file(path)
    if not _same_checkpoint(container.load_checkpoint(path), result):
        out["errors"] = ["checkpoint does not round-trip to the trained parameters"]
    path.unlink()


def sweep_workload(out, workload, seed, workdir, spawned_at, mode, tracer, index):
    slimnet = import_slimnet()
    from slimnet import search, trainer

    data = load_splits(workdir)
    if tracer is not None:
        from spans import install

        install(tracer, slimnet)
    schedule = trainer.TrainConfig(iterations=SWEEP_ITERATIONS)
    plan = search.default_plan(schedule=schedule)
    oracle = search.trained_oracle(data, schedule)
    if tracer is not None:
        oracle = tracer.wrap(oracle, "search.candidate")
    setup_end, setup_cpu = time.perf_counter(), time.process_time()
    out["setup_s"], out["setup_wall_s"] = setup_cpu, setup_end - spawned_at
    if mode == "setup":
        return

    out_dir = workdir / f"sweep-{index}"
    try:
        output = search.run_search(plan, oracle, out_dir=out_dir)
    finally:
        out["run_cpu_s"] = time.process_time() - setup_cpu
        out["run_wall_s"] = time.perf_counter() - setup_end
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.restore()
    out["errors"], out["failed_pairs"] = check_sweep(search, plan, output, out_dir)
    out["selection"] = output.selection.describe()


def check_sweep(search, plan, output, out_dir: Path):
    """(sweep-level problems, per-pair problems) of one finished sweep."""
    errors = []
    pairs = sweep_pairs(search, plan)
    ledger = search.load_ledger(out_dir / "results.ledger")
    recorded = [(r.tag, r.seed) for r in ledger]
    if sorted(recorded) != sorted(pairs):
        errors.append(f"ledger holds {len(recorded)} records, not the {len(pairs)} (candidate, seed) pairs")
    pair_errors = {}
    for r in ledger:
        if r.diverged:
            pair_errors[(r.tag, r.seed)] = "diverged"
        if r.tag in GOLDEN_TOTALS and (r.params, r.memory) != GOLDEN_TOTALS[r.tag]:
            pair_errors[(r.tag, r.seed)] = (
                f"totals {r.params} params / {r.memory} elements, expected {GOLDEN_TOTALS[r.tag]}"
            )
    reported = output.selection
    again = search.select_minimal(ledger, plan.threshold)

    def key(sel):
        return (sel.feasible, sel.choice.ident if sel.choice else None, sel.best.ident, sel.best.accuracy)

    if key(again) != key(reported):
        errors.append(f"select_minimal over the ledger gives {again.describe()!r}, "
                      f"the sweep reported {reported.describe()!r}")
    expected_files = {
        "frontier.csv": search.frontier_csv(search.build_frontier(ledger)),
        "curves.csv": search.export_curves(ledger),
    }
    for name, text in expected_files.items():
        path = out_dir / name
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            errors.append(f"{name} is missing or does not match the ledger")
    return errors, [f"{tag} seed {s}: {why}" for (tag, s), why in sorted(pair_errors.items())]


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "gen":
        out = gen(workload, seed, workdir)
    else:
        spawned_at = float(argv[4])
        traced = mode == "op" and argv[5] == "1"
        index = int(argv[6]) if mode == "op" else 0
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
        run = sweep_workload if workload == "sweep" else train_workload
        out = {}
        try:
            run(out, workload, seed, workdir, spawned_at, mode, tracer, index)
        except Exception:
            if mode != "op":
                raise
            out["errors"] = [traceback.format_exc()]
        if mode == "op":
            out["attempted"] = attempted(workload)
            import slimnet

            out["module"] = slimnet.__file__
            out["environment"] = environment(seed)
            if tracer is not None and "run_cpu_s" in out:
                from spans import op_totals, step_durations

                out["layers"] = op_totals(tracer.spans)
                out["steps_s"] = step_durations(tracer.spans)
                out["candidates_s"] = [s.end - s.start for s in tracer.spans if s.name == "search.candidate"]
    print(json.dumps(out))
    return 0


def sweep_pairs(search, plan) -> list[tuple[str, int]]:
    return [(c.tag, s) for c in search.enumerate_candidates(plan) for s in plan.seeds]


def attempted(workload: str) -> int:
    """Operations one `op` process attempts: a training run, or every sweep pair."""
    if workload != "sweep":
        return 1
    from slimnet import search, trainer

    return len(sweep_pairs(search, search.default_plan(schedule=trainer.TrainConfig(iterations=SWEEP_ITERATIONS))))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
