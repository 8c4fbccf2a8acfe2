"""slimnet benchmark: end-to-end and per-layer timings of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why
each was chosen), all closed loop with one caller in one process:

  train-optimized      what `slimnet train` does for specs/optimized.spec
  train-dropped-conv2  the same for specs/dropped-conv2.spec
  sweep                `search.run_search` of the default plan, trained oracle

Each operation runs in a fresh child process (`worker.py`), so set-up
time covers interpreter start and imports, and peak RSS is that of the
process that ran the workload, never of the one that generated its
inputs.  Set-up is also repeated on its own a few times per run.
`setup_s` and `run_cpu_s` are CPU seconds of that process, whose BLAS runs
on one thread, so time spent waiting for a core on a shared host does not
count; the wall-clock times are in the detail line.  With
`--trace 0` the last line of output holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from traced operations, which
alternate with untraced ones so that `trace_overhead` compares like with
like.  A JSON detail line (environment, module path, code hash, digests,
every operation) is printed before it and written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train-optimized", "train-dropped-conv2", "sweep")
SETUP_REPEATS = 5
# Workers run BLAS on one thread: on a 2-core host a second OpenBLAS thread
# saves 5-12% of wall time when the machine is idle, but then one busy
# neighbour stalls every GEMM; with one thread the process needs one core.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170  # a run must end within 180 s


def code_digest() -> str:
    """SHA-256 over the package sources and stock specs under test."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/slimnet/**/*.py"), *ROOT.glob("specs/*.spec")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_head() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline

    def child(self, mode: str, *extra: str) -> dict:
        """Run one worker process to completion and return its JSON result."""
        spawned_at = time.perf_counter()
        args = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed), str(self.workdir)]
        if mode != "gen":
            args.append(repr(spawned_at))
        proc = subprocess.run(args + list(extra), stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV,
                              timeout=max(1.0, self.deadline - time.perf_counter()))
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        result["wall_s"] = time.perf_counter() - spawned_at
        return result


def failed_count(op: dict) -> int:
    if op.get("errors"):
        return op["attempted"]
    return len(op.get("failed_pairs", []))


def median_of(ops, key):
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else None


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, dict]:
    from spans import PER_LAYER, summarize

    done = [op for op in traced if "layers" in op]
    if not done:
        raise RuntimeError("no traced operation finished")
    values = {name: statistics.median(op["layers"][name] for op in done) for name in done[0]["layers"]}
    values.update(summarize([s for op in done for s in op["steps_s"]], "trainer.step"))
    values.update(summarize([s for op in done for s in op["candidates_s"]], "search.candidate"))
    values["container.checkpoint_bytes"] = median_of(done, "checkpoint_bytes") or 0
    base = median_of(untraced, "run_cpu_s")
    values["trace_overhead"] = median_of(done, "run_cpu_s") / base if base else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def check_digests(workload: str, seed: int, ops: list[dict], code: str) -> list[str]:
    """Every checkpoint of one code and seed must be byte-identical, across
    the operations of this run and the earlier runs recorded in this checkout."""
    digests = {op["digest"] for op in ops if "digest" in op}
    if not digests:
        return []
    history_path = WORK / "digests.json"
    try:
        history = json.loads(history_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        history = {}
    key = f"{workload} seed={seed} code={code}"
    if key in history:
        digests.add(history[key])
    if len(digests) > 1:
        return [f"checkpoints of one code and seed differ: {sorted(digests)}"]
    history[key] = digests.pop()
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True), encoding="utf-8")
    return []


def run(args) -> dict:
    started = time.perf_counter()
    code = code_digest()
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, workdir, started + DEADLINE_S)
    try:
        runner.child("gen")
        measuring = time.perf_counter()
        setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_REPEATS)]
        ops: list[dict] = []
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(runner.child("op", str(int(traced)), str(len(ops))))
            ops[-1]["traced"] = traced
            elapsed = time.perf_counter() - measuring
            estimate = statistics.median(op["wall_s"] for op in ops)
            # at least two operations, so that a traced one has an untraced twin
            # and no median rests on one sample; then start another only if at
            # most half of it would overrun
            if len(ops) >= 2 and (elapsed + estimate / 2 > args.seconds
                                  or time.perf_counter() + 2 * estimate > runner.deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    problems = check_digests(args.workload, args.seed, ops, code)
    attempted = sum(op["attempted"] for op in ops)
    failed = attempted if problems else sum(failed_count(op) for op in ops)
    if median_of(untraced, "run_cpu_s") is None:
        raise RuntimeError("no untraced operation finished: " + "; ".join(
            e for op in ops for e in op.get("errors", [])))

    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [op["setup_s"] for op in ops if "setup_s" in op]),
                        "unit": "s"},
            "run_cpu_s": {"value": median_of(untraced, "run_cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_of(untraced, "peak_rss_mb"), "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": next((op["environment"] for op in ops if "environment" in op), None),
        "module": next((op["module"] for op in ops if "module" in op), None),
        "git_head": git_head(), "code_sha256": code,
        "digests": sorted({op["digest"] for op in ops if "digest" in op}),
        "problems": problems, "setup_only_s": setups,
        "run_wall_s": median_of(untraced, "run_wall_s"),
        "ops": [{k: v for k, v in op.items() if k not in ("environment", "module", "steps_s", "candidates_s")}
                for op in ops],
    }
    return {"detail": detail, "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                                         "metrics": metrics}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    missing = [p for p in ("src/slimnet/__init__.py", "specs/optimized.spec") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a slimnet checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(out, indent=1), encoding="utf-8")
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
