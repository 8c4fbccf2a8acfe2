"""Command-line entry point.

Subcommands: `analyze` (complexity ledger), `train`, `search`,
`gradcheck`, plus `--replay <manifest> [args]` to re-execute a recorded
run, the trailing arguments overriding the recorded ones.
Every run writes a manifest with the resolved arguments so results can
be reproduced byte for byte, and the BLAS it ran on (name, version and
thread count); a replay on another BLAS warns on stderr and runs as usual.

Exit codes: 0 success; 2 a spec/parse problem, a training setting out of
range ("config error"), or a search that `search.Search` refuses ("plan
error": a plan file that cannot be read, parsed or turned into a plan, a
pick the base cannot take, no valid candidate, two candidates under one
tag, an `--out` ledger of another schedule or of another net under a
tag or holding one (tag, seed) twice, a tag the table oracle holds no
accuracy for), each reported before the manifest is written, or an
`--out` that is a file or lies under one ("output error", reported before
anything is read or made); 3 missing or malformed data; 4 training
divergence; 5 infeasible search threshold; 1 any other failure
(including gradcheck mismatches).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .accounting import analyze, diff_reports
from .container import save_checkpoint
from .golden import GOLDEN_LEDGERS, check_against_golden, display_ratio
from .gradcheck import LAYERS, run_suite
from .mnist import MissingDataError, IdxFormatError, load_data_dir
from .netspec import PRESETS, NetSpec, SpecError, load_spec, number_text
from .ops import ShapeError
from .search import Search, SearchError, default_plan, load_plan, table_oracle, trained_oracle
from .trainer import ConfigError, Run, TrainConfig, TrainingDiverged

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPEC = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_INFEASIBLE = 5

DATA_DIR_ENV = "SLIMNET_DATA_DIR"


class OutputError(Exception):
    """An `--out` that is a file or lies under one, so it can hold no run."""


def _resolve_spec(token: str) -> NetSpec:
    if token in PRESETS:
        return PRESETS[token]()
    if not Path(token).is_file():
        raise SpecError(f"spec '{token}' is neither a preset ({', '.join(PRESETS)}) nor a file")
    return load_spec(token)


def manifest_argv(args: argparse.Namespace) -> list[str]:
    """The argv that parses back to `args`: command, `spec`, then `--<dest> value` per option, a flag bare.

    `None` and `False` are left out by identity, which keeps `--seed 0`."""
    values = dict(vars(args))
    argv = [values.pop("command")]
    if "spec" in values:
        argv.append(values.pop("spec"))
    for dest, value in values.items():
        if value is not None and value is not False:
            flag = f"--{dest.replace('_', '-')}"
            argv += [flag] if value is True else [flag, number_text(value)]
    return argv


def blas_record() -> dict:
    """The BLAS numpy runs on: `{"name", "version", "threads"}`.

    The name and version are those `numpy.show_config` reports; the
    thread count is what the loaded OpenBLAS's
    `scipy_openblas_get_num_threads64_` returns.  A value that cannot be
    read is "unknown".
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if get is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            threads = int(get())
            break
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"), "threads": threads}


def _write_manifest(args: argparse.Namespace, out_dir: Path) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "argv": manifest_argv(args),
        "blas": blas_record(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _out_dir_or_fail(value: str) -> Path:
    """`--out` as a path; `OutputError` if it or a directory above it is a file."""
    out = Path(value)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise OutputError(f"--out {value} cannot be a directory: {blocker} is a file")
    return out


def _data_dir_or_fail(value: str | None) -> Path:
    data_dir = value or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise MissingDataError(
            "no data directory given: pass --data-dir or set "
            f"{DATA_DIR_ENV}. The directory must hold the four canonical MNIST "
            "IDX files (train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte, optionally .gz), "
            "available from any MNIST mirror; this tool never downloads."
        )
    return Path(data_dir)


# --- subcommands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    spec = _resolve_spec(args.spec)
    report = analyze(spec, args.convention.replace("-", "_"))
    print(report.render())
    if args.bytes:
        print(f"\nactivation bytes (double precision): {report.total_memory * 8:,}")
    print()
    print(report.to_kv())
    if args.diff_against:
        other = analyze(_resolve_spec(args.diff_against), args.convention.replace("-", "_"))
        print("\ncompared against", other.spec_name)
        print(diff_reports(other, report).render())
        # the rounded display totals of the stock ledgers give slightly
        # different headline ratios; show them alongside the exact ones
        for column in ("params", "memory"):
            rounded = display_ratio(other.spec_name, report.spec_name, column)
            if rounded is not None:
                print(f"ratio from rounded display totals ({column}): {rounded:.1f}x")
    if args.expect_golden:
        problems = check_against_golden(report, args.expect_golden)
        golden = GOLDEN_LEDGERS[args.expect_golden]
        for note in golden.notes:
            print(f"note: {note}")
        if problems:
            for p in problems:
                print(f"golden mismatch: {p}", file=sys.stderr)
            return EXIT_FAIL
        print(f"golden check '{args.expect_golden}': all cells match")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = _out_dir_or_fail(args.out)
    spec = _resolve_spec(args.spec)
    config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        iterations=args.iterations,
        seed=args.seed,
        eval_every=args.eval_every,
    )
    config.validate()
    args.data_dir = _data_dir_or_fail(args.data_dir)
    run = Run(spec, load_data_dir(args.data_dir), config)  # refuses what `train` refuses, before the manifest
    _write_manifest(args, out_dir)
    run.train()
    save_checkpoint(out_dir / "checkpoint.bin", run.params, run.adam_state, run.iterations_run)
    metrics = {
        "spec": spec.name,
        "final_test_accuracy": run.final_test_accuracy,
        "iterations": run.iterations_run,
        "wall_time_seconds": run.wall_time_seconds,
        "eval_trace": run.eval_trace,
    }
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as f:
        json.dump(metrics, f, indent=2)
        f.write("\n")
    print(f"final test accuracy: {run.final_test_accuracy:.4f}")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_search(args) -> int:
    out_dir = _out_dir_or_fail(args.out)
    overrides = {}
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    try:
        if args.seeds is not None:  # an item that is no integer stays text, for the plan to refuse
            overrides["seeds"] = tuple(int(s) if s.removeprefix("-").isdecimal() else s for s in args.seeds.split(","))
        plan = load_plan(args.plan) if args.plan else default_plan()
        if args.iterations is not None:
            overrides["schedule"] = replace(plan.schedule, iterations=args.iterations)
        plan = replace(plan, **overrides)
    except OSError as exc:
        print(f"plan error: cannot read plan file '{args.plan}': {exc.strerror}", file=sys.stderr)
        return EXIT_SPEC
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"plan error: cannot parse plan file '{args.plan}': {exc}", file=sys.stderr)
        return EXIT_SPEC

    if args.oracle == "table":
        oracle = table_oracle()
    else:
        args.data_dir = _data_dir_or_fail(args.data_dir)
        oracle = trained_oracle(load_data_dir(args.data_dir), plan.schedule)
    search = Search(plan, oracle, out_dir=out_dir, exhaustive=args.exhaustive)  # refuses before the manifest
    args.threshold, args.seeds = plan.threshold, ",".join(map(str, plan.seeds))
    _write_manifest(args, out_dir)
    search.run()
    print(f"swept {len(search.results)} runs; ledger at {search.ledger_path}")
    print(f"frontier points: {len(search.frontier)} (frontier.csv, curves.csv written)")
    print(search.selection.describe())
    if not search.selection.feasible:
        return EXIT_INFEASIBLE
    print(f"selected spec written to {search.selected_spec_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    layers = args.layers.split(",") if args.layers else None
    if layers:
        unknown = set(layers) - set(LAYERS)
        if unknown:
            print(f"unknown layer(s): {', '.join(sorted(unknown))}; "
                  f"choose from {', '.join(sorted(LAYERS))}", file=sys.stderr)
            return EXIT_SPEC
    if args.trials < 1:  # zero trials would pass every layer, an injected fault too
        print(f"--trials must be at least 1, got {args.trials}", file=sys.stderr)
        return EXIT_SPEC
    results = run_suite(layers=layers, trials=args.trials, seed=args.seed,
                        fault_layer=args.inject_fault)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAIL


# --- argument plumbing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimnet",
        description="Train small conv nets, account their exact memory/parameter "
                    "ledgers, and search for the smallest architecture meeting an "
                    "accuracy threshold.",
    )
    parser.add_argument("--version", action="version", version=f"slimnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the per-layer memory/parameter ledger")
    p.add_argument("spec", help=f"spec file or preset: {', '.join(PRESETS)}")
    p.add_argument("--convention", choices=["paper-compat", "with-biases"], default="paper-compat",
                   help="parameter counting convention (default excludes biases, matching the reference ledgers)")
    p.add_argument("--bytes", action="store_true", help="also print activation bytes at 8 B/element")
    p.add_argument("--diff-against", metavar="SPEC", help="also diff another spec's totals against this one")
    p.add_argument("--expect-golden", choices=sorted(GOLDEN_LEDGERS),
                   help="compare against the named golden ledger; nonzero exit on mismatch")

    p = sub.add_parser("train", help="train a spec and write a checkpoint")
    p.add_argument("spec", help=f"spec file or preset: {', '.join(PRESETS)}")
    p.add_argument("--data-dir", help=f"directory with the canonical IDX files (default ${DATA_DIR_ENV})")
    p.add_argument("--iterations", type=int, default=TrainConfig.iterations)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=0,
                   help="validation-accuracy trace interval (0: off)")
    p.add_argument("--out", default="runs/train", help="output directory (default runs/train)")

    p = sub.add_parser("search", help="sweep architectures and select the smallest feasible one")
    p.add_argument("--plan", help="JSON plan file (default: the built-in staged reduction)")
    p.add_argument("--data-dir", help=f"data directory for the trained oracle (default ${DATA_DIR_ENV})")
    p.add_argument("--oracle", choices=["trained", "table"], default="trained",
                   help="accuracy source: real training, or the recorded reference numbers")
    p.add_argument("--threshold", type=float, help="worst-case accuracy threshold (default 0.95)")
    p.add_argument("--seeds", help="comma-separated seeds, e.g. 0,1,2")
    p.add_argument("--iterations", type=int, help="override the schedule's iteration count")
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep the full knob lattice instead of the staged procedure")
    p.add_argument("--out", default="runs/search", help="output directory (default runs/search)")

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward kernel")
    p.add_argument("--layers", help=f"comma-separated subset of: {', '.join(sorted(LAYERS))}")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", metavar="LAYER",
                   help="flip the named layer's analytic gradient (verifies the checker fails)")

    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "train": cmd_train,
    "search": cmd_search,
    "gradcheck": cmd_gradcheck,
}


def _replay(argv: list[str]) -> int:
    manifest_path, *rest = argv
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        stored = manifest.get("argv") if isinstance(manifest, dict) else None
        if not (isinstance(stored, list) and all(isinstance(a, str) for a in stored)):
            raise ValueError("a manifest is a JSON object whose 'argv' is a list of strings")
        if stored[:1] == ["--replay"]:
            raise ValueError("its argv starts with --replay, which no run records")
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        print(f"cannot replay manifest {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    stored += rest  # argparse keeps an option's last value
    here = blas_record()
    if "blas" in manifest and manifest["blas"] != here:
        print(f"warning: {manifest_path} was recorded on BLAS {json.dumps(manifest['blas'])}, this process runs "
              f"{json.dumps(here)}; float results may differ", file=sys.stderr)
    print(f"replaying: slimnet {' '.join(stored)}")
    return main(stored)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--replay"]:
        if len(argv) < 2:
            print("--replay needs a manifest path", file=sys.stderr)
            return EXIT_FAIL
        return _replay(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MissingDataError, IdxFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except SearchError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (SpecError, ShapeError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
