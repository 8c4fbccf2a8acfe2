"""Threshold-constrained architecture reduction.

The procedure sweeps a chain of knobs in a fixed stage order (drop the
second conv stage; shrink the hidden layer; shrink the first conv's
kernel and depth; widen the pooling window), trains or looks up every
candidate, and finally picks the smallest architecture whose accuracy
stays at or above a worst-case threshold.  Each stage also records a
`pick` (the value carried into later stages), so the historical
procedure is reproducible as data rather than re-derived from results.
Each knob is one `KNOBS` record: the values it takes, its tag text and
its layer edit.  A plan checks every field when it is built.

Accuracy comes from a pluggable oracle: `trained_oracle` runs real
training, `table_oracle` replays the recorded accuracies bundled in
`golden`, which makes selection and frontier logic testable in
milliseconds.

A sweep's result is its ledger, one line per (candidate tag, seed), so a
repeated tag, seed or record is an error.  A `Search` owns a directory
for its ledger and artifacts, accounts each candidate once (`accounts`)
and reads its ledger once, when it is built.  `run_sweep(search)` runs
the pairs the ledger lacks and returns the parse of every pair's line,
and `load_ledger` the same records, so it rebuilds every artifact.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .accounting import analyze
from .golden import RECORDED_ACCURACY
from .netspec import (
    PRESETS,
    LayerSpec,
    NetSpec,
    SpecError,
    baseline_spec,
    optimized_3x3_spec,
    optimized_spec,
    parse_spec,
    propagate_shapes,
    save_spec,
    spec_id,
)
from .rng import derive_seed
from .trainer import TrainConfig, TrainingDiverged, train

logger = logging.getLogger(__name__)

__all__ = [
    "SearchError",
    "Stage",
    "SearchPlan",
    "Candidate",
    "CandidateResult",
    "AggregateResult",
    "SelectionResult",
    "FrontierPoint",
    "default_plan",
    "plan_from_dict",
    "apply_knob",
    "enumerate_candidates",
    "exhaustive_candidates",
    "trained_oracle",
    "table_oracle",
    "run_sweep",
    "aggregate_results",
    "select_minimal",
    "build_frontier",
    "export_curves",
    "Search",
    "run_search",
]

class SearchError(ValueError):
    pass


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise SearchError(f"must be true or false, got {value!r}")
    return value


def _positive(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SearchError(f"must be a positive integer, got {value!r}")
    return value


def _kernel_depth(value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SearchError(f"must be a [kernel, depth] pair, got {value!r}")
    return tuple(map(_positive, value))


def _indices(layers, kind: str) -> list[int]:
    return [i for i, layer in enumerate(layers) if layer.kind == kind]


def _drop_conv2(layers: list[LayerSpec], drop: bool) -> list[LayerSpec]:
    if not drop:
        return layers
    conv_idx = _indices(layers, "conv")
    if len(conv_idx) < 2:
        raise SearchError("drop_conv2: spec has no second conv layer")
    i = conv_idx[1]
    gone = [i, i + 1] if i + 1 in _indices(layers, "maxpool") else [i]
    return [l for j, l in enumerate(layers) if j not in gone]


def _replace_first(kind: str, need: int, missing: str, make, layers: list[LayerSpec], value) -> list[LayerSpec]:
    """Swap the first `kind` layer for `make(value)`; fewer than `need` such layers raise `missing`."""
    idx = _indices(layers, kind)
    if len(idx) < need:
        raise SearchError(missing)
    layers[idx[0]] = make(value)
    return layers


class Knob(NamedTuple):
    """One search knob: the plan values it takes, how a tag writes one, and its layer edit."""

    parse: Callable[[object], object]  # plan value -> held value; SearchError for a value it does not take
    text: Callable[[object], str]  # held value -> tag text
    apply: Callable[[list[LayerSpec], object], list[LayerSpec]]  # SearchError when the spec lacks the layer


KNOBS: dict[str, Knob] = {
    "drop_conv2": Knob(_flag, lambda drop: "true" if drop else "false", _drop_conv2),
    "fc1_width": Knob(_positive, str, partial(
        _replace_first, "dense", 2, "fc1_width: spec has no hidden dense layer to resize", LayerSpec.dense)),
    "conv1": Knob(_kernel_depth, lambda kd: f"{kd[0]}x{kd[0]}x{kd[1]}", partial(
        _replace_first, "conv", 1, "conv1: spec has no conv layer", lambda kd: LayerSpec.conv(*kd))),
    "pool_window": Knob(_positive, str, partial(
        _replace_first, "maxpool", 1, "pool_window: spec has no maxpool layer", LayerSpec.maxpool)),
}


def _parse(knob: str, value):
    """`value` as `knob` holds it; `SearchError` for an unknown knob or a value it does not take."""
    if not isinstance(knob, str) or knob not in KNOBS:
        raise SearchError(f"unknown knob '{knob}'; choose from {', '.join(KNOBS)}")
    try:
        return KNOBS[knob].parse(value)
    except SearchError as exc:
        raise SearchError(f"{knob} value {exc}") from None


@dataclass(frozen=True)
class Stage:
    """One knob sweep plus the value adopted for the following stages, both parsed by the knob."""

    knob: str
    values: tuple
    pick: object

    def __post_init__(self):
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise SearchError(f"stage '{self.knob}' values must be a non-empty list, got {self.values!r}")
        object.__setattr__(self, "values", tuple(_parse(self.knob, v) for v in self.values))
        object.__setattr__(self, "pick", _parse(self.knob, self.pick))

    def tag(self, value) -> str:
        return f"{self.knob}={KNOBS[self.knob].text(value)}"


@dataclass(frozen=True)
class SearchPlan:
    """A whole search; construction checks every field, so a built plan is a valid one."""

    base: NetSpec
    threshold: float = 0.95
    stages: tuple[Stage, ...] = ()
    extras: tuple[NetSpec, ...] = ()
    schedule: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, (int, float)):
            raise SearchError(f"plan threshold must be a number, got {self.threshold!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise SearchError(f"threshold must be in (0, 1], got {self.threshold}")
        seeds = self.seeds
        if not isinstance(seeds, (list, tuple)) or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
            raise SearchError(f"plan seeds must be a list of integers, got {seeds!r}")
        if not seeds:
            raise SearchError("plan needs at least one seed")
        if min(seeds) < 0:
            raise SearchError(f"plan seeds must be >= 0, got {min(seeds)}")
        repeated = [s for s in seeds if seeds.count(s) > 1]
        if repeated:
            raise SearchError(f"plan seeds repeat seed {repeated[0]}; each seed runs once per candidate")
        object.__setattr__(self, "seeds", tuple(seeds))
        self.schedule.validate()


KERNELS = (5, 3, 1)  # the paper's conv1 grid: kernel sizes and depths
DEPTHS = (32, 16, 8, 4, 2)


def default_plan(schedule: TrainConfig | None = None, seeds: tuple[int, ...] = (0,),
                 threshold: float = 0.95) -> SearchPlan:
    """The historical reduction procedure over the baseline network."""
    return SearchPlan(
        base=baseline_spec(),
        threshold=threshold,
        stages=(
            Stage("drop_conv2", (False, True), True),
            Stage("fc1_width", (1024, 512, 256, 128, 64, 32), 128),
            Stage("conv1", tuple((k, d) for k in KERNELS for d in DEPTHS), (5, 2)),
            Stage("pool_window", (2, 4), 4),
        ),
        extras=(optimized_3x3_spec(),),
        schedule=schedule if schedule is not None else TrainConfig(),
        seeds=seeds,
    )


def apply_knob(spec: NetSpec, knob: str, value) -> NetSpec:
    """Return `spec` with one knob set; SearchError for a value the knob does not take or a spec it cannot edit."""
    value = _parse(knob, value)
    return NetSpec(spec.name, tuple(KNOBS[knob].apply(list(spec.layers), value)))


class Candidate(NamedTuple):
    tag: str
    spec: NetSpec


def _try_candidate(tag: str, spec: NetSpec, out: list[Candidate], skipped: list):
    try:
        propagate_shapes(spec)
    except SpecError as exc:
        skipped.append((tag, exc))
        return
    out.append(Candidate(tag, NetSpec(tag, spec.layers)))


def _warn_skipped(skipped: list) -> None:
    """One warning for all the points a plan could not build: their count, and the first with its reason."""
    if skipped:
        tag, exc = skipped[0]
        logger.warning("skipping %d candidate(s), the first %s: %s", len(skipped), tag, exc)


def enumerate_candidates(plan: SearchPlan) -> list[Candidate]:
    """All stage candidates in order, each applied to the previous picks.

    Shape-incompatible candidates are skipped, and one logged warning
    counts them.  The plan's extras are appended with `extra=<name>` tags.
    """
    candidates: list[Candidate] = []
    skipped: list = []
    if not plan.stages:
        _try_candidate("base", plan.base, candidates, skipped)
    current = plan.base
    for stage in plan.stages:
        for value in stage.values:
            tag = stage.tag(value)
            try:
                candidate = apply_knob(current, stage.knob, value)
            except SearchError as exc:
                skipped.append((tag, exc))
                continue
            _try_candidate(tag, candidate, candidates, skipped)
        current = apply_knob(current, stage.knob, stage.pick)
    for extra in plan.extras:
        _try_candidate(f"extra={extra.name}", extra, candidates, skipped)
    _warn_skipped(skipped)
    return candidates


def exhaustive_candidates(plan: SearchPlan) -> list[Candidate]:
    """Full lattice over every stage's values (no picks); skips invalid combos under one warning."""
    combos: list[tuple[str, NetSpec]] = [("", plan.base)]
    skipped: list = []
    for stage in plan.stages:
        nxt = []
        for prefix, spec in combos:
            for value in stage.values:
                piece = stage.tag(value)
                tag = f"{prefix},{piece}" if prefix else piece
                try:
                    nxt.append((tag, apply_knob(spec, stage.knob, value)))
                except SearchError as exc:
                    skipped.append((f"lattice:{tag}", exc))
        combos = nxt
    candidates: list[Candidate] = []
    for tag, spec in combos:
        _try_candidate(f"lattice:{tag}", spec, candidates, skipped)
    _warn_skipped(skipped)
    return candidates


# --- running candidates -------------------------------------------------------


class RunOutcome(NamedTuple):
    accuracy: float
    wall_time: float
    diverged: bool


Oracle = Callable[[str, NetSpec, int], RunOutcome]


def trained_oracle(data, schedule: TrainConfig) -> Oracle:
    """Oracle that really trains: each (candidate, seed) gets its own stream.

    Of `schedule` only the learning rate, batch size and iterations count:
    the seed is derived per candidate, and no trace is kept.  A batch
    larger than the training split raises `ConfigError` here, not at the
    first candidate.
    """
    schedule.validate(len(data.train.images))

    def run(tag: str, spec: NetSpec, seed: int) -> RunOutcome:
        config = replace(schedule, seed=derive_seed(seed, f"candidate:{tag}"), eval_every=0, loss_log_every=0)
        started = time.perf_counter()
        try:
            result = train(spec, data, config)
        except TrainingDiverged as exc:
            logger.warning("candidate %s (seed %d) diverged: %s", tag, seed, exc)
            return RunOutcome(0.0, time.perf_counter() - started, True)
        return RunOutcome(result.final_test_accuracy, result.wall_time_seconds, False)

    run.schedule_id = schedule.schedule_id()
    return run


def _unrecorded(tag: str) -> SearchError:
    return SearchError(f"no recorded accuracy for candidate '{tag}'; the table oracle only "
                       "covers the default plan's sweep")


def table_oracle() -> Oracle:
    """Oracle that replays the recorded accuracies keyed by sweep tag; `tags` names the ones it holds."""

    def run(tag: str, spec: NetSpec, seed: int) -> RunOutcome:
        if tag not in RECORDED_ACCURACY:
            raise _unrecorded(tag)
        return RunOutcome(RECORDED_ACCURACY[tag], 0.0, False)

    run.schedule_id = "table"
    run.tags = frozenset(RECORDED_ACCURACY)
    return run


@dataclass(frozen=True)
class CandidateResult:
    tag: str
    ident: str
    params: int
    memory: int
    accuracy: float
    seed: int
    schedule_id: str
    wall_time: float
    diverged: bool


LEDGER_FILE = "results.ledger"  # the ledger's name in a search's output directory
# a ledger line is these `key=value` tokens in order: (key, CandidateResult field, text format, parser)
_LEDGER_FIELDS = (
    ("tag", "tag", "{}", str),
    ("id", "ident", "{}", str),
    ("seed", "seed", "{}", int),
    ("params", "params", "{}", int),
    ("memory", "memory", "{}", int),
    ("accuracy", "accuracy", "{:.6f}", float),
    ("schedule", "schedule_id", "{}", str),
    ("wall", "wall_time", "{:.3f}", float),
    ("diverged", "diverged", "{:d}", lambda text: bool(int(text))),
)


def _ledger_line(r: CandidateResult) -> str:
    return " ".join(f"{key}={fmt.format(getattr(r, name))}" for key, name, fmt, _ in _LEDGER_FIELDS)


def _parse_ledger_line(raw: bytes, where) -> CandidateResult:
    try:
        tokens = dict(token.partition("=")[::2] for token in raw.decode("utf-8").split())
        return CandidateResult(**{name: parse(tokens[key]) for key, name, _, parse in _LEDGER_FIELDS})
    except KeyError as exc:
        raise SearchError(f"malformed ledger line {where} (missing {exc}): {raw!r}") from None
    except ValueError as exc:
        raise SearchError(f"malformed ledger line {where} ({exc}): {raw!r}") from None


def _read_ledger(data: bytes) -> tuple[dict[int, CandidateResult], bytes]:
    """The records in a ledger's bytes by line number, and the leading bytes that hold them.

    A crash in the middle of a write leaves an unterminated final line.
    When that line does not parse it is dropped with a warning, and the
    kept bytes stop before it; any other malformed line raises
    `SearchError` naming its line number.
    """
    *lines, tail = data.split(b"\n")
    records = {
        lineno: _parse_ledger_line(line, lineno)
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith(b"#")
    }
    if tail.strip():
        try:
            records[len(lines) + 1] = _parse_ledger_line(tail, len(lines) + 1)
        except SearchError as exc:
            logger.warning("dropping the unterminated last ledger line left by an interrupted write: %s", exc)
            return records, data[: len(data) - len(tail)]
    return records, data


def load_ledger(path) -> list[CandidateResult]:
    return list(_read_ledger(Path(path).read_bytes())[0].values())


def run_sweep(search: Search) -> list[CandidateResult]:
    """Run the search's pending (candidate, seed) pairs, appending one ledger line for each.

    A record's id and totals are the candidate's `search.accounts` entry.
    The first call cuts a partial last line off the ledger (or ends a last
    line that lost its newline).  Each new record is the parse of its
    line, so a fresh sweep, its resume and `load_ledger` return the same
    records, and a pair leaves `search.pending` only once its line is
    flushed: a later call, after an oracle error too, runs just the pairs
    still pending.  Returns the records of all pairs in candidate x seed
    order.
    """
    with open(search.ledger_path, "a", encoding="utf-8") as ledger:
        if search.kept is not None:
            ledger.truncate(len(search.kept))  # drops a partial last line
            if search.kept and not search.kept.endswith(b"\n"):
                ledger.write("\n")  # ends a last line that parsed but lost its newline
            search.kept = None
        while search.pending:
            (tag, spec), seed = search.pending[0]
            outcome = search.oracle(tag, spec, seed)
            report = search.accounts[tag]
            line = _ledger_line(CandidateResult(
                tag=tag,
                ident=report.spec_ident,
                params=report.total_params,
                memory=report.total_memory,
                accuracy=outcome.accuracy,
                seed=seed,
                schedule_id=search.schedule_id,
                wall_time=outcome.wall_time,
                diverged=outcome.diverged,
            ))
            record = _parse_ledger_line(line.encode("utf-8"), f"for {tag} seed {seed}")
            ledger.write(line + "\n")
            ledger.flush()
            search.done[(tag, seed)] = record
            del search.pending[0]
    return [search.done[(c.tag, seed)] for c in search.candidates for seed in search.plan.seeds]


# --- selection and frontier ----------------------------------------------------


@dataclass(frozen=True)
class AggregateResult:
    """Per-architecture aggregate: median accuracy over all runs sharing an id."""

    ident: str
    params: int
    memory: int
    accuracy: float
    n_runs: int


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def aggregate_results(results: list[CandidateResult]) -> list[AggregateResult]:
    groups: dict[str, list[CandidateResult]] = {}
    for r in results:
        groups.setdefault(r.ident, []).append(r)
    return [
        AggregateResult(ident=ident, params=group[0].params, memory=group[0].memory,
                        accuracy=_median([g.accuracy for g in group]), n_runs=len(group))
        for ident, group in groups.items()
    ]


@dataclass(frozen=True)
class SelectionResult:
    feasible: bool
    threshold: float
    choice: AggregateResult | None
    best: AggregateResult

    def describe(self) -> str:
        if self.feasible:
            c = self.choice
            return (
                f"selected {c.ident}: {c.params:,} params, {c.memory:,} memory elements, "
                f"accuracy {c.accuracy:.4f} >= threshold {self.threshold:.4f}"
            )
        return (
            f"infeasible: no candidate reaches threshold {self.threshold:.4f}; "
            f"best is {self.best.ident} at accuracy {self.best.accuracy:.4f}"
        )


def select_minimal(results: list[CandidateResult], threshold: float) -> SelectionResult:
    """Smallest architecture meeting the threshold.

    Ties break by smaller memory, then lexicographic id.  When nothing
    meets the threshold the outcome is explicit rather than an exception,
    and carries the best accuracy found.
    """
    if not results:
        raise SearchError("select_minimal needs at least one result")
    aggregates = aggregate_results(results)
    best = max(aggregates, key=lambda a: a.accuracy)
    feasible = [a for a in aggregates if a.accuracy >= threshold]
    if not feasible:
        return SelectionResult(feasible=False, threshold=threshold, choice=None, best=best)
    choice = min(feasible, key=lambda a: (a.params, a.memory, a.ident))
    return SelectionResult(feasible=True, threshold=threshold, choice=choice, best=best)


@dataclass(frozen=True)
class FrontierPoint:
    size: int  # parameter count
    accuracy: float


def build_frontier(results: list[CandidateResult]) -> list[FrontierPoint]:
    """Minimum model size per achieved accuracy level, as a strict staircase.

    For every achieved accuracy level f (ascending), the frontier holds
    s(f) = min params over results with accuracy >= f; duplicate sizes
    collapse onto their highest accuracy, so sizes and accuracies are
    both strictly increasing.
    """
    if not results:
        raise SearchError("build_frontier needs at least one result")
    aggregates = aggregate_results(results)
    levels = sorted({a.accuracy for a in aggregates})
    by_size: dict[int, float] = {}
    for f in levels:
        size = min(a.params for a in aggregates if a.accuracy >= f)
        by_size[size] = f  # ascending f: highest level per size wins
    return [FrontierPoint(size=s, accuracy=f) for s, f in sorted(by_size.items())]


def frontier_csv(frontier: list[FrontierPoint]) -> str:
    lines = ["params,accuracy"]
    lines += [f"{p.size},{p.accuracy:g}" for p in frontier]
    return "\n".join(lines) + "\n"


_GRID_TAGS = {f"conv1={KNOBS['conv1'].text((k, d))}": (k, d) for k in KERNELS for d in DEPTHS}
# spec id -> (kernel, depth) of the grid template: `optimized` with a 2x2 pool and a KxKxD conv1
_GRID_IDENTS = {spec_id(apply_knob(apply_knob(optimized_spec(), "pool_window", 2), "conv1", (k, d))): (k, d)
                for k in KERNELS for d in DEPTHS}


def export_curves(results: list[CandidateResult]) -> str:
    """Accuracy-vs-depth series, one column per kernel size, as CSV.

    A function of the ledger lines alone.  Grid cells come from the conv1
    sweep rows (tags `conv1=KxKxD`), median over seeds; when no such tags
    exist, cell (K, D) is the median of the runs whose id is the grid
    template's: `optimized` with a 2x2 pool and a KxKxD first conv.
    Missing cells are left blank, never interpolated.
    """
    cells: dict[tuple[int, int], list[float]] = {}
    for r in results:
        if r.tag in _GRID_TAGS:
            cells.setdefault(_GRID_TAGS[r.tag], []).append(r.accuracy)
    if not cells:
        for agg in aggregate_results(results):
            if agg.ident in _GRID_IDENTS:
                cells[_GRID_IDENTS[agg.ident]] = [agg.accuracy]
    lines = ["depth," + ",".join(f"{k}x{k}" for k in KERNELS)]
    for d in DEPTHS:
        row = [str(d)]
        for k in KERNELS:
            values = cells.get((k, d))
            row.append("" if not values else f"{_median(values):g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --- the whole procedure ---------------------------------------------------------


class Search:
    """One search in one directory: its plan, oracle, candidates and accounts, ledger state and results.

    `out_dir` holds the ledger and the artifacts.  Building the search
    accounts each candidate once, in candidate order (`accounts`, tag ->
    its `analyze` report), and reads the ledger once.  It makes every
    refusal of the sweep as a `SearchError` and writes nothing: an oracle
    without `schedule_id`, a pick the base cannot take, no valid
    candidate, two candidates under one tag, a ledger that holds one (tag,
    seed) twice, a record of another schedule or of another net than its
    tag names here, and a pending tag that a table oracle (one with
    `tags`) holds no accuracy for.  Records of other tags are ignored.
    It keeps `done`, the records by (tag, seed); `kept`, the ledger bytes
    holding them (`None` once `run_sweep` has cut the file back to them);
    and `pending`, the (candidate, seed) pairs the ledger lacks, in
    candidate x seed order.  `run()` sweeps those (`run_sweep`), selects,
    and writes the ledger, `frontier.csv`, `curves.csv` and, when
    feasible, `selected.spec`.
    """

    def __init__(self, plan: SearchPlan, oracle: Oracle, out_dir, exhaustive: bool = False):
        self.schedule_id = getattr(oracle, "schedule_id", None)
        if self.schedule_id is None:
            raise SearchError("the oracle has no schedule_id to file its ledger records under")
        self.candidates = exhaustive_candidates(plan) if exhaustive else enumerate_candidates(plan)
        if not self.candidates:
            raise SearchError("plan produced no valid candidates")
        self.plan, self.oracle = plan, oracle
        self.out_dir = Path(out_dir)
        self.ledger_path = path = self.out_dir / LEDGER_FILE
        self.accounts = {}
        for c in self.candidates:
            if c.tag in self.accounts:
                raise SearchError(f"two candidates share the tag '{c.tag}'; the ledger could not tell their runs apart")
            self.accounts[c.tag] = analyze(c.spec)
        records, self.kept = _read_ledger(path.read_bytes() if path.exists() else b"")
        line_of: dict[tuple[str, int], int] = {}  # (tag, seed) -> its first ledger line
        for lineno, rec in records.items():
            if rec.schedule_id != self.schedule_id:
                raise SearchError(
                    f"ledger {path} holds tag {rec.tag} seed {rec.seed} under schedule "
                    f"{rec.schedule_id}, but this sweep runs schedule {self.schedule_id}"
                )
            if rec.tag in self.accounts and rec.ident != self.accounts[rec.tag].spec_ident:
                raise SearchError(f"ledger {path} holds tag {rec.tag} seed {rec.seed} as net {rec.ident}, "
                                  f"but this plan's candidate under that tag is {self.accounts[rec.tag].spec_ident}")
            first = line_of.setdefault((rec.tag, rec.seed), lineno)
            if first != lineno:
                raise SearchError(f"ledger {path} holds tag {rec.tag} seed {rec.seed} twice, on lines "
                                  f"{first} and {lineno}; a sweep runs each pair once")
        self.done = {(rec.tag, rec.seed): rec for rec in records.values()}
        self.pending = [(c, seed) for c in self.candidates for seed in plan.seeds if (c.tag, seed) not in self.done]
        tags = getattr(oracle, "tags", None)
        unrecorded = [c.tag for c, _ in self.pending if tags is not None and c.tag not in tags]
        if unrecorded:
            raise _unrecorded(unrecorded[0])
        self.results = self.selection = self.frontier = self.curves_csv = self.selected_spec_path = None

    def run(self) -> Search:
        """Sweep, select, and write the ledger/frontier/curves/selected-spec artifacts; returns the search."""
        out = self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        self.results = run_sweep(self)
        self.selection = select_minimal(self.results, self.plan.threshold)
        self.frontier = build_frontier(self.results)
        self.curves_csv = export_curves(self.results)
        (out / "frontier.csv").write_text(frontier_csv(self.frontier), encoding="utf-8")
        (out / "curves.csv").write_text(self.curves_csv, encoding="utf-8")
        selected = out / "selected.spec"
        selected.unlink(missing_ok=True)  # an infeasible rerun leaves no earlier pick behind
        if self.selection.feasible:
            ident = self.selection.choice.ident
            save_spec(next(c.spec for c in self.candidates if self.accounts[c.tag].spec_ident == ident), selected)
            self.selected_spec_path = selected
        return self


def run_search(plan: SearchPlan, oracle: Oracle, out_dir, exhaustive: bool = False) -> Search:
    """Sweep, select, and write the artifacts: `Search(...).run()`."""
    return Search(plan, oracle, out_dir, exhaustive).run()


# --- plan (de)serialization ------------------------------------------------------


def _resolve_base(token: str) -> NetSpec:
    if token in PRESETS:
        return PRESETS[token]()
    if "\n" in token:
        return parse_spec(token)
    raise SearchError(
        f"plan base '{token}' is neither a preset ({', '.join(PRESETS)}) nor inline spec text"
    )


def plan_from_dict(raw: dict) -> SearchPlan:
    """Build a plan from parsed JSON; omitted fields fall back to the default plan.

    "base" is a preset name or inline spec text.  An unknown key, a
    schedule's `seed`, `eval_every` or `loss_log_every` (the sweep derives
    each candidate's seed and keeps no trace), or contents of the wrong
    type, raise `SearchError` naming the field.
    """
    if not isinstance(raw, dict):
        raise SearchError(f"a plan must be a JSON object, got {type(raw).__name__}")
    keys = ("base", "threshold", "stages", "schedule", "seeds", "include_extras")
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise SearchError(f"unknown plan field '{unknown[0]}'; a plan holds {', '.join(keys)}")
    defaults = default_plan()
    if "base" in raw and not isinstance(raw["base"], str):
        raise SearchError(f"plan base must be a string, got {raw['base']!r}")
    raw_stages = raw.get("stages", [s.__dict__ for s in defaults.stages])
    if not isinstance(raw_stages, (list, tuple)):
        raise SearchError(f"plan stages must be a list, got {raw_stages!r}")
    stages = []
    for item in raw_stages:
        if not isinstance(item, dict) or item.keys() != {"knob", "values", "pick"}:
            raise SearchError(f"malformed plan stage {item!r}: a stage holds exactly the keys knob, values, pick")
        stages.append(Stage(**item))
    include_extras = raw.get("include_extras", True)
    if not isinstance(include_extras, bool):
        raise SearchError(f"plan include_extras must be true or false, got {include_extras!r}")
    raw_schedule = raw.get("schedule", {})
    for name in ("seed", "eval_every", "loss_log_every"):
        if isinstance(raw_schedule, dict) and name in raw_schedule:
            raise SearchError(f"a plan schedule cannot set '{name}': the sweep derives each "
                              "candidate's seed and keeps no trace")
    try:
        schedule = TrainConfig(**raw_schedule)
    except TypeError as exc:
        raise SearchError(f"malformed plan schedule: {exc}") from None
    return SearchPlan(
        base=_resolve_base(raw["base"]) if "base" in raw else defaults.base,
        threshold=raw.get("threshold", defaults.threshold),
        stages=tuple(stages),
        extras=defaults.extras if include_extras else (),
        schedule=schedule,
        seeds=raw.get("seeds", defaults.seeds),
    )


def load_plan(path) -> SearchPlan:
    with open(path, "r", encoding="utf-8") as f:
        return plan_from_dict(json.load(f))
