import collections
import hashlib
import logging
import re
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from slimnet.accounting import analyze
from slimnet.golden import RECORDED_ACCURACY
from slimnet.netspec import baseline_spec, optimized_3x3_spec, optimized_spec, spec_id
from slimnet.search import (
    Candidate,
    CandidateResult,
    RunOutcome,
    Search,
    SearchError,
    SearchPlan,
    Stage,
    aggregate_results,
    apply_knob,
    build_frontier,
    default_plan,
    enumerate_candidates,
    exhaustive_candidates,
    export_curves,
    frontier_csv,
    load_ledger,
    plan_from_dict,
    run_search,
    run_sweep,
    select_minimal,
    table_oracle,
    trained_oracle,
)
from slimnet.trainer import ConfigError, TrainConfig


def synthetic_result(ident, params, accuracy, memory=None, tag=None, seed=0):
    return CandidateResult(
        tag=tag or ident,
        ident=ident,
        params=params,
        memory=memory if memory is not None else params,
        accuracy=accuracy,
        seed=seed,
        schedule_id="synth",
        wall_time=0.0,
        diverged=False,
    )


# --- knobs and enumeration -----------------------------------------------------


def test_apply_knob_transforms():
    base = baseline_spec()
    dropped = apply_knob(base, "drop_conv2", True)
    assert sum(1 for l in dropped.layers if l.kind == "conv") == 1
    assert sum(1 for l in dropped.layers if l.kind == "maxpool") == 1
    assert apply_knob(base, "drop_conv2", False) == base

    narrowed = apply_knob(base, "fc1_width", 128)
    assert [l.out_features for l in narrowed.layers if l.kind == "dense"] == [128, 10]

    reshaped = apply_knob(base, "conv1", (3, 8))
    first_conv = next(l for l in reshaped.layers if l.kind == "conv")
    assert (first_conv.kernel, first_conv.out_channels) == (3, 8)

    pooled = apply_knob(base, "pool_window", 4)
    assert next(l for l in pooled.layers if l.kind == "maxpool").window == 4


def test_apply_knob_incompatibilities():
    single = apply_knob(baseline_spec(), "drop_conv2", True)
    with pytest.raises(SearchError, match="second conv"):
        apply_knob(single, "drop_conv2", True)
    with pytest.raises(SearchError, match="unknown knob"):
        apply_knob(single, "alpha", 1)


def test_enumerate_default_plan_counts():
    plan = default_plan()
    candidates = enumerate_candidates(plan)
    by_stage = {}
    for c in candidates:
        by_stage.setdefault(c.tag.split("=")[0], []).append(c)
    assert len(by_stage["drop_conv2"]) == 2
    assert len(by_stage["fc1_width"]) == 6
    assert len(by_stage["conv1"]) == 15
    assert len(by_stage["pool_window"]) == 2
    assert len(by_stage["extra"]) == 1
    assert len(candidates) == 26


def test_stage2_candidates_cover_widths():
    plan = default_plan()
    widths = [
        next(l.out_features for l in c.spec.layers if l.kind == "dense")
        for c in enumerate_candidates(plan)
        if c.tag.startswith("fc1_width=")
    ]
    assert widths == [1024, 512, 256, 128, 64, 32]
    # stage 2 operates on the conv2-less pick from stage 1
    for c in enumerate_candidates(plan):
        if c.tag.startswith("fc1_width="):
            assert sum(1 for l in c.spec.layers if l.kind == "conv") == 1


def test_empty_stage_list_yields_base():
    plan = SearchPlan(base=baseline_spec(), stages=(), extras=())
    candidates = enumerate_candidates(plan)
    assert len(candidates) == 1
    assert candidates[0].spec.layers == baseline_spec().layers


def test_incompatible_candidate_skipped_with_reason(caplog):
    # pool window 3 does not divide 28
    plan = SearchPlan(
        base=baseline_spec(),
        stages=(Stage("pool_window", (2, 3), 2),),
        extras=(),
    )
    with caplog.at_level(logging.WARNING, logger="slimnet.search"):
        candidates = enumerate_candidates(plan)
    assert [c.tag for c in candidates] == ["pool_window=2"]
    assert any("pool_window=3" in rec.message for rec in caplog.records)


def test_final_stage_tags_match_recorded_accuracies():
    tags = {c.tag for c in enumerate_candidates(default_plan())}
    assert tags == set(RECORDED_ACCURACY)


def test_exhaustive_lattice_covers_products():
    plan = SearchPlan(
        base=baseline_spec(),
        stages=(Stage("drop_conv2", (False, True), True), Stage("fc1_width", (1024, 128), 128)),
        extras=(),
    )
    candidates = exhaustive_candidates(plan)
    assert len(candidates) == 4
    assert all(c.tag.startswith("lattice:") for c in candidates)


def test_exhaustive_lattice_skips_invalid_combos(caplog):
    # pool window 4 with conv2 kept gives a 7x7 map that pool2 cannot divide:
    # those 2x6x15x2 = 360 combos lose the 90 drop_conv2=false/pool4 points
    with caplog.at_level(logging.WARNING, logger="slimnet.search"):
        candidates = exhaustive_candidates(default_plan())
    assert len(candidates) == 270
    assert len({c.tag for c in candidates}) == 270
    assert any("pool_window=4" in rec.message for rec in caplog.records)
    assert len(caplog.records) == 1 and caplog.records[0].message.startswith("skipping 90 candidate(s)")


def test_plan_from_dict_malformed_inputs():
    from slimnet.search import plan_from_dict

    with pytest.raises(SearchError, match="malformed plan stage"):
        plan_from_dict({"stages": [{"knob": "fc1_width"}]})
    for schedule in ({"warmup": 5}, {"activation": "none"}, {"init_stddev": 0.3}):
        with pytest.raises(SearchError, match="malformed plan schedule"):
            plan_from_dict({"schedule": schedule})
    with pytest.raises(SearchError, match="unknown knob"):
        plan_from_dict({"stages": [{"knob": "alpha", "values": [1], "pick": 1}]})


@pytest.mark.parametrize(
    "knob, value",
    [
        ("drop_conv2", "false"),
        ("drop_conv2", 1),
        ("fc1_width", 128.9),
        ("fc1_width", True),
        ("fc1_width", "abc"),
        ("fc1_width", 0),
        ("pool_window", 2.0),
        ("conv1", [5, 2.7]),
        ("conv1", [5]),
        ("conv1", 5),
    ],
)
def test_plan_refuses_a_stage_value_its_knob_does_not_take(knob, value):
    good = {"drop_conv2": False, "fc1_width": 128, "pool_window": 2, "conv1": [5, 2]}[knob]
    for values, pick in (([good, value], good), ([good], value)):
        with pytest.raises(SearchError, match=f"^{knob} value must be .*, got "):
            plan_from_dict({"stages": [{"knob": knob, "values": values, "pick": pick}]})


def test_stage_holds_parsed_values():
    stage = Stage("conv1", [[5, 2], (3, 8)], [1, 4])
    assert stage.values == ((5, 2), (3, 8)) and stage.pick == (1, 4)
    assert [stage.tag(v) for v in stage.values] == ["conv1=5x5x2", "conv1=3x3x8"]
    assert Stage("drop_conv2", (False, True), True).tag(True) == "drop_conv2=true"


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"threshhold": 0.99}, "unknown plan field 'threshhold'"),
        ({"stages": [{"knob": "fc1_width", "values": [128], "pick": 128, "picks": 64}]}, "malformed plan stage"),
        ({"stages": [["fc1_width", [128], 128]]}, "malformed plan stage"),
        ({"include_extras": "false"}, "plan include_extras must be true or false, got 'false'"),
        ({"include_extras": 0}, "plan include_extras must be true or false, got 0"),
        ({"threshold": "0.99"}, "plan threshold must be a number, got '0.99'"),
        ({"threshold": True}, "plan threshold must be a number, got True"),
        ({"threshold": 0}, r"threshold must be in \(0, 1\], got 0"),
        ({"seeds": [3, 1, 3]}, "plan seeds repeat seed 3"),
        ({"stages": [{"knob": ["conv1"], "values": [[5, 2]], "pick": [5, 2]}]}, "unknown knob"),
        ({"stages": [{"knob": "fc1_width", "values": "128", "pick": 128}]}, "stage 'fc1_width' values must be a non-empty list"),
    ],
    ids=["misspelt-field", "stage-extra-key", "stage-list", "include-extras-string", "include-extras-int",
         "threshold-string", "threshold-bool", "threshold-zero", "repeated-seed", "knob-list", "values-string"],
)
def test_plan_from_dict_refuses_unknown_fields_and_wrong_types(raw, message):
    with pytest.raises(SearchError, match=message):
        plan_from_dict(raw)


def test_plan_from_dict_keeps_include_extras_and_threshold():
    assert plan_from_dict({"include_extras": False}).extras == ()
    assert plan_from_dict({"include_extras": True}).extras == default_plan().extras
    plan = plan_from_dict({"threshold": 1, "seeds": [2, 0]})
    assert (plan.threshold, plan.seeds) == (1, (2, 0))


# digests of the "{tag} {spec_id}\n" lines of the default plan's candidates
CANDIDATE_DIGESTS = {
    "enumerate": "72c3cdc4aaf01f071d991969b6e537578fe24448c60e49e35bc161817d515549",
    "exhaustive": "ee718931f894248aa783d3154646e1d7b24e2da6f1759ceba8d3454f27d53cc0",
}


@pytest.mark.parametrize("name, enumerate_fn", [("enumerate", enumerate_candidates),
                                                  ("exhaustive", exhaustive_candidates)])
def test_default_plan_candidate_tags_and_ids_pinned(name, enumerate_fn):
    text = "".join(f"{c.tag} {spec_id(c.spec)}\n" for c in enumerate_fn(default_plan()))
    assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATE_DIGESTS[name]


# --- sweeping -------------------------------------------------------------------


def table_results():
    """The records of the default plan's sweep under the table oracle, run in a temporary directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        return run_search(default_plan(), table_oracle(), out_dir=out_dir).results


def default_prefix(k):
    """The default plan without extras, cut after its first `k` candidates (the same tags and nets)."""
    stages, left = [], k
    for stage in default_plan().stages:
        if left > 0:
            stages.append(replace(stage, values=stage.values[:left]))
            left -= len(stages[-1].values)
    return replace(default_plan(), stages=tuple(stages), extras=())


def write_ledger(plan, oracle, out_dir):
    """Sweep `plan` into `out_dir`, writing its ledger and no other file; returns the ledger's path."""
    out_dir.mkdir(exist_ok=True)
    search = Search(plan, oracle, out_dir=out_dir)
    run_sweep(search)
    return search.ledger_path


def counting_table_oracle(calls):
    """The table oracle, appending each tag it is asked for to `calls`."""
    inner = table_oracle()

    def counting(tag, spec, seed):
        calls.append(tag)
        return inner(tag, spec, seed)

    counting.schedule_id = inner.schedule_id
    return counting


def test_default_prefix_makes_the_default_plans_first_candidates():
    candidates = enumerate_candidates(default_plan())
    for k in (5, 10, 25):
        assert enumerate_candidates(default_prefix(k)) == candidates[:k]


def test_table_oracle_sweep_and_selection(tmp_path):
    plan = default_plan()
    results = run_search(plan, table_oracle(), out_dir=tmp_path).results
    assert len(results) == 26
    sel = select_minimal(results, 0.95)
    assert sel.feasible
    assert sel.choice.ident == spec_id(optimized_spec())
    assert sel.choice.params == 13874
    assert sel.choice.accuracy == pytest.approx(0.9581)


def test_table_oracle_threshold_99_selects_baseline_family():
    results = table_results()
    sel = select_minimal(results, 0.99)
    assert sel.feasible
    # all >=99% configurations keep the 5x5x32 first conv stage
    assert sel.choice.ident.startswith("in28x28x1-c5.32-p2-")
    assert sel.choice.accuracy >= 0.99
    # the median rule excludes the twice-recorded fc128 arch (0.991/0.986)
    assert sel.choice.ident == "in28x28x1-c5.32-p2-fl-fc256-do0.5-fc10"


def test_table_oracle_threshold_one_infeasible():
    results = table_results()
    sel = select_minimal(results, 1.0)
    assert not sel.feasible
    assert sel.choice is None
    assert sel.best.accuracy == pytest.approx(0.9929)
    assert "infeasible" in sel.describe()


def test_threshold_zero_returns_global_minimum():
    results = table_results()
    sel = select_minimal(results, 0.0)
    assert sel.choice.params == 13842  # the 3x3 regression variant is globally smallest
    assert sel.choice.ident == spec_id(optimized_3x3_spec())


def test_table_oracle_unknown_tag_rejected():
    oracle = table_oracle()
    with pytest.raises(SearchError, match="no recorded accuracy"):
        oracle("nonsense=1", baseline_spec(), 0)


def test_sweep_resume_skips_done_pairs(tmp_path):
    plan = default_plan()
    candidates = enumerate_candidates(plan)
    ledger = tmp_path / "results.ledger"

    calls = []
    counting = counting_table_oracle(calls)

    run_search(default_prefix(10), counting, out_dir=tmp_path)
    assert len(calls) == 10
    # resume with the full candidate list: only the remaining 16 run
    full = run_search(plan, counting, out_dir=tmp_path).results
    assert len(calls) == 26
    assert len(full) == 26
    # ledger holds each pair exactly once and parses back
    records = load_ledger(ledger)
    assert len(records) == 26
    assert {r.tag for r in records} == {c.tag for c in candidates}
    # resumed output identical to a fresh uninterrupted sweep
    fresh = run_search(plan, table_oracle(), out_dir=tmp_path / "fresh").results
    assert [(r.tag, r.seed, r.accuracy, r.params) for r in full] == [
        (r.tag, r.seed, r.accuracy, r.params) for r in fresh
    ]


def oracle_with_schedule(schedule_id):
    oracle = table_oracle()
    oracle.schedule_id = schedule_id
    return oracle


def test_sweep_resume_rejects_records_of_another_schedule(tmp_path):
    short = oracle_with_schedule("it150-bs50-lr0.0001")
    ledger = write_ledger(default_prefix(5), short, tmp_path)
    written = ledger.read_bytes()
    with pytest.raises(SearchError, match="drop_conv2=false seed 0 .*it150-bs50-lr0.0001.*it300-bs50-lr0.0001"):
        Search(default_plan(), oracle_with_schedule("it300-bs50-lr0.0001"), out_dir=tmp_path)
    assert ledger.read_bytes() == written
    resumed = run_search(default_plan(), short, out_dir=tmp_path).results
    assert {r.schedule_id for r in resumed} == {"it150-bs50-lr0.0001"}


def test_resume_refuses_a_record_whose_id_is_not_the_net_its_tag_names(tmp_path):
    # the default sweep files conv2-dropped nets under the fc1_width tags; this plan keeps conv2
    write_ledger(default_plan(), table_oracle(), tmp_path)
    written = (tmp_path / "results.ledger").read_bytes()
    plan = SearchPlan(base=baseline_spec(), stages=(Stage("fc1_width", (1024, 128), 128),), extras=())
    dropped = spec_id(apply_knob(apply_knob(baseline_spec(), "drop_conv2", True), "fc1_width", 1024))
    kept = spec_id(apply_knob(baseline_spec(), "fc1_width", 1024))
    message = re.escape(f"tag fc1_width=1024 seed 0 as net {dropped}, "
                        f"but this plan's candidate under that tag is {kept}")
    with pytest.raises(SearchError, match=message):
        Search(plan, table_oracle(), out_dir=tmp_path)
    assert (tmp_path / "results.ledger").read_bytes() == written
    assert sorted(path.name for path in tmp_path.iterdir()) == ["results.ledger"]
    # records of tags the plan does not make are not checked, and not used
    calls = []

    def counting(tag, spec, seed):
        calls.append(tag)
        return RunOutcome(0.9, 0.0, False)

    counting.schedule_id = "table"
    only_drop = SearchPlan(base=baseline_spec(), stages=(Stage("drop_conv2", (False, True), True),), extras=())
    assert len(run_search(only_drop, counting, out_dir=tmp_path).results) == 2
    assert calls == []


@pytest.mark.parametrize("cut,reruns", [(1, 0), (3, 1), (40, 1)])
def test_sweep_resume_after_a_crash_cut_the_last_ledger_line(tmp_path, caplog, cut, reruns):
    # cut 1 loses only the newline; 3 leaves "diverged="; 40 ends inside "accuracy="
    candidates = enumerate_candidates(default_plan())
    uninterrupted = write_ledger(default_plan(), table_oracle(), tmp_path / "whole")
    ledger = write_ledger(default_prefix(5), table_oracle(), tmp_path / "cut")
    ledger.write_bytes(ledger.read_bytes()[:-cut])
    calls = []
    with caplog.at_level(logging.WARNING, logger="slimnet.search"):
        search = Search(default_plan(), counting_table_oracle(calls), out_dir=tmp_path / "cut").run()
    assert calls == [c.tag for c in candidates[5 - reruns :]]
    assert ("unterminated last ledger line" in caplog.text) == bool(reruns)
    assert ledger.read_bytes() == uninterrupted.read_bytes()
    # a second run finds nothing pending: no oracle call, no byte cut or added
    assert search.run().results == load_ledger(uninterrupted)
    assert len(calls) == 21 + reruns
    assert ledger.read_bytes() == uninterrupted.read_bytes()


def test_a_ledger_that_holds_one_pair_twice_is_refused(tmp_path):
    # the sweep would keep the later record and `load_ledger` both, so the artifacts would disagree
    run_search(default_plan(), table_oracle(), out_dir=tmp_path)
    ledger = tmp_path / "results.ledger"
    lines = ledger.read_text().splitlines(keepends=True)
    assert lines[22].startswith("tag=conv1=1x1x2 ")
    ledger.write_text("".join(lines) + re.sub(r"accuracy=\S+", "accuracy=0.990000", lines[22]))
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(SearchError, match="holds tag conv1=1x1x2 seed 0 twice, on lines 23 and 27"):
        Search(replace(default_plan(), threshold=0.97), table_oracle(), out_dir=tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written


def test_a_search_reads_its_ledger_once(tmp_path, monkeypatch):
    import slimnet.search

    run_search(default_prefix(10), table_oracle(), out_dir=tmp_path)
    reads = []
    real = slimnet.search._read_ledger

    def counting(data, *args):
        reads.append(len(data))
        return real(data, *args)

    monkeypatch.setattr(slimnet.search, "_read_ledger", counting)
    run_search(default_plan(), table_oracle(), out_dir=tmp_path)
    assert len(reads) == 1 and reads[0] > 0


def test_a_search_resumes_in_place_after_its_oracle_raised(tmp_path):
    uninterrupted = write_ledger(default_plan(), table_oracle(), tmp_path / "whole")
    calls = []
    inner = counting_table_oracle(calls)

    def failing_once(tag, spec, seed):
        if len(calls) == 7 and not failing_once.failed:
            failing_once.failed = True
            raise RuntimeError("the oracle failed")
        return inner(tag, spec, seed)

    failing_once.failed = False
    failing_once.schedule_id = inner.schedule_id
    search = Search(default_plan(), failing_once, out_dir=tmp_path / "out")
    with pytest.raises(RuntimeError, match="the oracle failed"):
        search.run()
    assert len(search.pending) == 19
    assert search.ledger_path.read_bytes() == b"".join(uninterrupted.read_bytes().splitlines(keepends=True)[:7])
    search.run()
    assert calls == [c.tag for c in enumerate_candidates(default_plan())]
    assert search.ledger_path.read_bytes() == uninterrupted.read_bytes()
    assert search.results == load_ledger(uninterrupted)


@pytest.mark.parametrize(
    "damage", [("diverged=0", "diverged="), ("accuracy=", "accuracy=x"), (" schedule=table", "")]
)
def test_malformed_complete_ledger_line_names_its_line_number(tmp_path, damage):
    ledger = write_ledger(default_prefix(5), table_oracle(), tmp_path)
    lines = ledger.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(*damage)
    ledger.write_text("".join(lines))
    with pytest.raises(SearchError, match="line 3"):
        load_ledger(ledger)
    with pytest.raises(SearchError, match="line 3"):
        Search(default_plan(), table_oracle(), out_dir=tmp_path)


def thousandths_oracle(tag, spec, seed):
    """Accuracies of k/3000, more digits than a ledger line's six decimals hold.

    The smallest net sits exactly at 2920/3000, and the conv1 cells fall
    below 0.1, where six decimals keep fewer digits than `g` prints.
    """
    if tag == "extra=optimized-3x3":
        k = 2920
    elif tag.startswith("conv1="):
        k = 37 + len(tag) + seed
    else:
        k = 2990 - len(tag) - seed
    return RunOutcome(k / 3000, 0.0, False)


thousandths_oracle.schedule_id = "thousandths"


def test_an_oracle_without_a_schedule_id_is_refused_before_anything_is_written(tmp_path):
    # filed under one default id, two such oracles would resume each other's ledgers
    def bare(tag, spec, seed):
        return RunOutcome(0.5, 0.0, False)

    with pytest.raises(SearchError, match="^the oracle has no schedule_id"):
        Search(default_plan(), bare, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_fresh_sweep_equals_its_resume_and_its_ledger(tmp_path):
    plan = default_plan(seeds=(0, 1), threshold=2920 / 3000 - 1e-9)
    fresh = run_search(plan, thousandths_oracle, out_dir=tmp_path / "fresh")
    ledger = load_ledger(tmp_path / "fresh" / "results.ledger")
    (tmp_path / "resumed").mkdir()
    half = fresh.ledger_path.read_text().splitlines(keepends=True)[:20]
    (tmp_path / "resumed" / "results.ledger").write_text("".join(half))
    resumed = run_search(plan, thousandths_oracle, out_dir=tmp_path / "resumed")

    def picked(selection):
        return selection.feasible, selection.choice and selection.choice.ident

    assert fresh.results == resumed.results == ledger
    assert picked(fresh.selection) == picked(resumed.selection) == picked(select_minimal(ledger, plan.threshold))
    assert (tmp_path / "fresh" / "curves.csv").read_text() == export_curves(ledger)
    assert fresh.ledger_path.read_bytes() == resumed.ledger_path.read_bytes()


def test_sweep_deterministic_across_runs():
    a = table_results()
    b = table_results()
    assert [(r.tag, r.accuracy) for r in a] == [(r.tag, r.accuracy) for r in b]


def test_sweep_multiseed_median(synth_data, tmp_path):
    # a 0-iteration schedule scores the untrained net: chance accuracy
    schedule = TrainConfig(iterations=0)
    plan = SearchPlan(base=optimized_spec(), stages=(), extras=(), schedule=schedule, seeds=(0, 1, 2))
    results = run_search(plan, trained_oracle(synth_data, schedule), out_dir=tmp_path).results
    assert len(results) == 3
    agg = aggregate_results(results)
    assert len(agg) == 1
    assert abs(agg[0].accuracy - 0.1) <= 0.05
    assert agg[0].n_runs == 3


def test_diverged_candidate_recorded_not_dropped(tmp_path):
    def exploding(tag, spec, seed):
        from slimnet.search import RunOutcome

        return RunOutcome(0.0, 0.1, True)

    exploding.schedule_id = "exploding"
    results = run_search(SearchPlan(base=optimized_spec(), stages=(), extras=()), exploding, out_dir=tmp_path).results
    assert results[0].diverged and results[0].accuracy == 0.0
    reloaded = load_ledger(tmp_path / "results.ledger")
    assert reloaded[0].diverged


# --- frontier ---------------------------------------------------------------------


def test_frontier_forced_example():
    results = [
        synthetic_result("a", 800, 0.90),
        synthetic_result("b", 200, 0.80),
        synthetic_result("c", 50, 0.70),
    ]
    frontier = build_frontier(results)
    assert [(p.size, p.accuracy) for p in frontier] == [(50, 0.70), (200, 0.80), (800, 0.90)]


def test_frontier_collapses_duplicate_sizes():
    results = [
        synthetic_result("a", 800, 0.90),
        synthetic_result("b", 800, 0.85),
        synthetic_result("c", 50, 0.70),
    ]
    frontier = build_frontier(results)
    assert [(p.size, p.accuracy) for p in frontier] == [(50, 0.70), (800, 0.90)]


def test_frontier_strictly_increasing_on_table_oracle():
    results = table_results()
    frontier = build_frontier(results)
    sizes = [p.size for p in frontier]
    accs = [p.accuracy for p in frontier]
    assert sizes == sorted(set(sizes))
    assert accs == sorted(set(accs))
    assert all(s > 0 for s in sizes)


def test_frontier_depth32_slice():
    results = [
        r
        for r in table_results()
        if r.tag in ("conv1=5x5x32", "conv1=3x3x32", "conv1=1x1x32")
    ]
    frontier = build_frontier(results)
    assert frontier[0].size == min(r.params for r in results)  # the 1x1 entry
    assert frontier[-1].size == max(r.params for r in results)  # the 5x5 entry
    by_tag = {r.tag: r.params for r in results}
    assert frontier[0].size == by_tag["conv1=1x1x32"]
    assert frontier[-1].size == by_tag["conv1=5x5x32"]


@given(st.lists(st.tuples(st.integers(1, 10**7), st.floats(0, 1)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_frontier_ordering_property(pairs):
    results = [synthetic_result(f"r{i}", p, a) for i, (p, a) in enumerate(pairs)]
    frontier = build_frontier(results)
    for lo, hi in zip(frontier, frontier[1:]):
        assert lo.size < hi.size
        assert lo.accuracy < hi.accuracy


@given(st.lists(st.tuples(st.integers(1, 10**6), st.floats(0, 1)), min_size=1, max_size=30),
       st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_selection_consistency_property(pairs, threshold):
    results = [synthetic_result(f"r{i}", p, a) for i, (p, a) in enumerate(pairs)]
    sel = select_minimal(results, threshold)
    if sel.feasible:
        # nothing feasible is strictly smaller
        for r in results:
            if r.accuracy >= threshold:
                assert r.params >= sel.choice.params
        # the selected candidate lies on the frontier
        assert sel.choice.params in {p.size for p in build_frontier(results)}
    else:
        assert all(r.accuracy < threshold for r in results)


# --- curves ------------------------------------------------------------------------


def test_export_curves_matches_recorded_series():
    results = table_results()
    csv = export_curves(results)
    lines = csv.strip().splitlines()
    assert lines[0] == "depth,5x5,3x3,1x1"
    rows = {int(l.split(",")[0]): l.split(",")[1:] for l in lines[1:]}
    assert [rows[d][0] for d in (32, 16, 8, 4, 2)] == ["0.986", "0.985", "0.982", "0.978", "0.9738"]
    assert [rows[d][2] for d in (32, 16, 8, 4, 2)] == ["0.9588", "0.959", "0.95", "0.9438", "0.9428"]


def test_export_curves_blank_for_missing_cells():
    results = [
        CandidateResult(
            tag="conv1=5x5x32", ident="x", params=1, memory=1, accuracy=0.9,
            seed=0, schedule_id="s", wall_time=0.0, diverged=False,
        )
    ]
    csv = export_curves(results)
    lines = csv.strip().splitlines()
    assert lines[1] == "32,0.9,,"
    assert lines[2] == "16,,,"


def test_export_curves_empty_results_header_only():
    assert export_curves([]) == "depth,5x5,3x3,1x1\n32,,,\n16,,,\n8,,,\n4,,,\n2,,,\n"


# --- whole procedure -----------------------------------------------------------------


def test_run_search_writes_artifacts(tmp_path):
    plan = default_plan()
    output = run_search(plan, table_oracle(), out_dir=tmp_path)
    assert (tmp_path / "results.ledger").exists()
    assert (tmp_path / "frontier.csv").read_text().startswith("params,accuracy")
    assert (tmp_path / "curves.csv").read_text().startswith("depth,")
    assert output.selection.feasible
    from slimnet.netspec import load_spec

    selected = load_spec(tmp_path / "selected.spec")
    assert spec_id(selected) == spec_id(optimized_spec())


def test_run_search_infeasible_writes_no_spec(tmp_path):
    plan = replace(default_plan(), threshold=1.0)
    output = run_search(plan, table_oracle(), out_dir=tmp_path)
    assert not output.selection.feasible
    assert output.selected_spec_path is None
    assert not (tmp_path / "selected.spec").exists()


def test_a_search_warns_once_of_a_ledger_line_cut_by_a_crash(tmp_path, caplog):
    # the search reads its ledger once, when it is built, and the sweep cuts the line off
    run_search(default_plan(), table_oracle(), out_dir=tmp_path)
    ledger = tmp_path / "results.ledger"
    ledger.write_bytes(ledger.read_bytes()[:-40])
    with caplog.at_level(logging.WARNING, logger="slimnet.search"):
        run_search(default_plan(), table_oracle(), out_dir=tmp_path)
    assert sum("unterminated last ledger line" in rec.message for rec in caplog.records) == 1


def test_an_infeasible_rerun_leaves_no_earlier_pick(tmp_path):
    assert run_search(default_plan(), table_oracle(), out_dir=tmp_path).selected_spec_path.exists()
    rerun = run_search(replace(default_plan(), threshold=0.999), table_oracle(), out_dir=tmp_path)
    assert not rerun.selection.feasible
    assert rerun.selected_spec_path is None
    assert not (tmp_path / "selected.spec").exists()


def test_the_sweep_calls_the_search_module_names_the_benchmark_counts(monkeypatch, synth_data, tmp_path):
    # bench/spans.py counts a sweep's spans by patching these names in `slimnet.search`
    import slimnet.search

    calls = collections.Counter()

    def count(name):
        real = getattr(slimnet.search, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(slimnet.search, name, counting)

    for name in ("run_sweep", "analyze", "train"):
        count(name)
    run_search(default_plan(), table_oracle(), out_dir=tmp_path / "table")
    assert calls == {"run_sweep": 1, "analyze": 26}
    calls.clear()
    schedule = TrainConfig(iterations=2)
    plan = SearchPlan(base=optimized_spec(), stages=(Stage("pool_window", (2, 4), 4),), extras=(),
                      schedule=schedule, seeds=(0, 1))
    run_search(plan, trained_oracle(synth_data, schedule), out_dir=tmp_path / "trained")
    assert calls == {"run_sweep": 1, "analyze": 2, "train": 4}


def test_a_search_accounts_each_candidate_once_when_it_is_built(monkeypatch, tmp_path):
    import slimnet.search

    run_search(default_plan(), table_oracle(), out_dir=tmp_path)  # leaves a complete ledger
    calls = []
    search = Search(default_plan(), counting_table_oracle(calls), out_dir=tmp_path)
    assert list(search.accounts) == [c.tag for c in search.candidates]
    assert all(search.accounts[c.tag] == analyze(c.spec) for c in search.candidates)
    assert search.pending == []

    def no_analyze(spec):
        raise AssertionError(f"analyze called after the search was built, for {spec.name}")

    monkeypatch.setattr(slimnet.search, "analyze", no_analyze)
    search.run()
    assert calls == []
    assert search.selection.choice.ident == spec_id(optimized_spec())


def test_candidate_results_consistent_with_accountant():
    candidates = enumerate_candidates(default_plan())
    spec_of = {c.tag: c.spec for c in candidates}
    for r in table_results():
        report = analyze(spec_of[r.tag])
        assert r.params == report.total_params
        assert r.memory == report.total_memory


def hashed_oracle(tag, spec, seed):
    """A deterministic stand-in for training: a 4-decimal accuracy hashed from (tag, seed)."""
    digest = int(hashlib.sha256(f"{tag}/{seed}".encode()).hexdigest(), 16)
    return RunOutcome(round(0.9 + (digest % 1000) / 10000, 4), 0.0, False)


hashed_oracle.schedule_id = "hashed"

NO_CONV1_PLAN = SearchPlan(
    base=baseline_spec(),
    stages=(
        Stage("drop_conv2", (False, True), True),
        Stage("fc1_width", (1024, 128, 32), 128),
        Stage("pool_window", (2, 4), 4),
    ),
    extras=(),
    seeds=(0, 1),
)


@pytest.mark.parametrize(
    "plan, oracle, exhaustive",
    [
        (default_plan(), table_oracle(), False),
        (default_plan(seeds=(0, 1)), hashed_oracle, True),
        (NO_CONV1_PLAN, hashed_oracle, False),
    ],
    ids=["staged-table", "exhaustive", "no-conv1"],
)
def test_every_artifact_is_rebuilt_from_the_ledger_alone(tmp_path, plan, oracle, exhaustive):
    output = run_search(plan, oracle, out_dir=tmp_path, exhaustive=exhaustive)
    ledger = load_ledger(tmp_path / "results.ledger")
    assert ledger == output.results
    assert export_curves(ledger) == (tmp_path / "curves.csv").read_text() == output.curves_csv
    assert frontier_csv(build_frontier(ledger)) == (tmp_path / "frontier.csv").read_text()
    assert select_minimal(ledger, plan.threshold) == output.selection


def test_exhaustive_curves_come_from_the_grid_template_ids(tmp_path):
    output = run_search(default_plan(seeds=(0, 1)), hashed_oracle, out_dir=tmp_path, exhaustive=True)
    rows = [line.split(",")[1:] for line in output.curves_csv.splitlines()[1:]]
    assert len(rows) == 5 and all(cell for row in rows for cell in row)
    # cell (3, 8) is the median over both seeds of the one lattice point with the template's id
    template = "lattice:drop_conv2=true,fc1_width=128,conv1=3x3x8,pool_window=2"
    accs = sorted(r.accuracy for r in output.results if r.tag == template)
    assert rows[2][1] == f"{(accs[0] + accs[1]) / 2:g}"


def test_repeated_tag_is_rejected_before_anything_runs(tmp_path):
    # fc1_width=128 is tagged in stage 1 and again after conv1 has changed the net
    plan = SearchPlan(
        base=baseline_spec(),
        stages=(
            Stage("fc1_width", (128,), 128),
            Stage("conv1", ((3, 8),), (3, 8)),
            Stage("fc1_width", (128,), 128),
        ),
        extras=(),
    )
    calls = []

    def counting(tag, spec, seed):
        calls.append(tag)
        return RunOutcome(0.9, 0.0, False)

    counting.schedule_id = "counting"
    with pytest.raises(SearchError, match="'fc1_width=128'"):
        run_search(plan, counting, out_dir=tmp_path)
    assert calls == []
    assert not (tmp_path / "results.ledger").exists()


def test_plan_rejects_a_negative_seed():
    with pytest.raises(SearchError, match="seeds must be >= 0, got -1"):
        SearchPlan(base=optimized_spec(), seeds=(0, -1))


def test_repeated_seed_is_rejected_before_anything_runs():
    # no sweep can be built without a plan, so a repeated seed never reaches one
    with pytest.raises(SearchError, match="plan seeds repeat seed 0"):
        default_plan(seeds=(0, 0))


def test_plan_checks_its_schedule():
    plan = default_plan()
    with pytest.raises(ConfigError, match="iterations must be >= 0"):
        replace(plan, schedule=replace(plan.schedule, iterations=-1))
    with pytest.raises(ConfigError, match="batch_size must be an integer, got 2.5"):
        default_plan(schedule=TrainConfig(batch_size=2.5))


@pytest.mark.parametrize("name", ["seed", "eval_every", "loss_log_every"])
def test_a_plan_schedule_holds_only_what_the_sweep_uses(name):
    with pytest.raises(SearchError, match=f"a plan schedule cannot set '{name}'"):
        plan_from_dict({"schedule": {"iterations": 6, name: 1}})


def test_trained_oracle_scores_only_the_test_split(synth_data, monkeypatch):
    # a schedule's traces were computed and dropped, a validation pass per step
    import slimnet.trainer

    scored = []
    real = slimnet.trainer.evaluate

    def counting(spec, params, images, labels, **kwargs):
        scored.append(len(images))
        return real(spec, params, images, labels, **kwargs)

    monkeypatch.setattr(slimnet.trainer, "evaluate", counting)
    traced = trained_oracle(synth_data, TrainConfig(iterations=6, eval_every=1, seed=5))("t", optimized_spec(), 0)
    assert scored == [len(synth_data.test.images)]
    plain = trained_oracle(synth_data, TrainConfig(iterations=6))("t", optimized_spec(), 0)
    assert traced.accuracy == plain.accuracy


def test_run_search_with_trained_oracle_end_to_end(synth_data, tmp_path):
    # tiny two-stage plan with a real (but short) training oracle
    schedule = TrainConfig(iterations=150, seed=0)
    plan = SearchPlan(
        base=optimized_spec(),
        threshold=0.3,
        stages=(Stage("fc1_width", (128, 32), 32), Stage("pool_window", (2, 4), 4)),
        extras=(),
        schedule=schedule,
        seeds=(0,),
    )
    output = run_search(plan, trained_oracle(synth_data, schedule), out_dir=tmp_path)
    assert len(output.results) == 4
    assert all(r.schedule_id == schedule.schedule_id() for r in output.results)
    assert all(0.0 <= r.accuracy <= 1.0 for r in output.results)
    assert output.selection.feasible
    # the winner is the smallest architecture clearing the (low) threshold
    feasible = [r for r in aggregate_results(output.results) if r.accuracy >= 0.3]
    assert output.selection.choice.params == min(r.params for r in feasible)
    assert (tmp_path / "selected.spec").exists()
