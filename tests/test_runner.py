import copy
import gc
import json
import sys
import tracemalloc
import types
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mgv.runner
from mgv import recall
from mgv.config import RunConfig, RunMode, build, validate_config
from mgv.errors import MissingFile, NonFiniteOutput, ParseError
from mgv.experience import ExperienceMode, ExperienceTuple, ExperienceVector, FokCounters
from mgv.runner import (_write_trace, canonical_json, report, run, run_id_for,
                        run_repeated, substream, summary_path_for)

TRACE_RECORD_SCHEMA = {
    "type": "object",
    "required": ["run_id", "cycle", "module", "payload", "timestamp"],
    "additionalProperties": False,
    "properties": {
        "run_id": {"type": "string", "pattern": "^[0-9a-f]{12}$"},
        "cycle": {"type": "integer", "minimum": 0},
        "module": {"enum": ["flavell", "acquire", "retrieve", "bandit",
                            "plan", "recall_mdp"]},
        "payload": {"type": "object"},
        "timestamp": {"type": "integer", "minimum": 0},
    },
}


def flavell_config(tmp_path, seed=7, out="trace.jsonl"):
    return validate_config({
        "mode": "flavell", "seed": seed,
        "params": {"task_tags": ["t"], "success_threshold": 0.5,
                   "max_cycles": 6,
                   "strategies": [{"id": "good", "quality": 0.9},
                                  {"id": "bad", "quality": -0.5}]},
        "out": str(tmp_path / out)})


def recall_config(tmp_path, simulate=True, out="recall.jsonl"):
    params = {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
              "evidence_variance": 1.0, "recall_threshold": 1.0,
              "recall_utility": 5.0, "search_cost": 0.02, "horizon": 8,
              "z_min": -1.0, "z_step": 0.25}
    if simulate:
        params["simulate"] = {"drifts": [0.1, 0.4], "episodes": 50}
    return validate_config({"mode": "recall_mdp", "seed": 3, "params": params,
                            "out": str(tmp_path / out)})


# --- substreams and identifiers ---------------------------------------------

def test_substream_is_deterministic_and_name_sensitive():
    a = substream(7, "flavell").random(4)
    b = substream(7, "flavell").random(4)
    c = substream(7, "acquire").random(4)
    d = substream(8, "flavell").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_canonical_json_is_key_ordered_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_run_id_depends_on_config_not_output_timing(tmp_path):
    c1 = flavell_config(tmp_path)
    c2 = flavell_config(tmp_path)
    assert run_id_for(c1) == run_id_for(c2)
    assert run_id_for(c1) != run_id_for(flavell_config(tmp_path, seed=8))
    assert len(run_id_for(c1)) == 12


# --- trace writing ----------------------------------------------------------

def test_run_writes_schema_valid_trace(tmp_path):
    config = flavell_config(tmp_path)
    summary = run(config)
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines
    for i, line in enumerate(lines):
        record = json.loads(line)
        jsonschema.validate(record, TRACE_RECORD_SCHEMA)
        assert record["cycle"] == i
        assert record["timestamp"] == i
        assert record["run_id"] == summary["run_id"]
        assert record["module"] == "flavell"


def test_repeated_runs_are_byte_identical(tmp_path):
    blobs = []
    for sub in ("a", "b", "c"):
        d = tmp_path / sub
        d.mkdir()
        run(flavell_config(d))
        blobs.append((d / "trace.jsonl").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_summary_file_written_next_to_trace(tmp_path):
    config = flavell_config(tmp_path)
    summary = run(config)
    sp = summary_path_for(config.out)
    assert sp == tmp_path / "trace.summary.json"
    on_disk = json.loads(sp.read_text())
    assert on_disk == summary
    assert on_disk["mode"] == "flavell"
    assert on_disk["seed"] == 7
    assert on_disk["status"] in ("terminated", "abandoned")


def test_run_without_out_writes_nothing(tmp_path):
    config = flavell_config(tmp_path)
    config = RunConfig(config.mode, config.seed, config.params, out=None)
    summary = run(config)
    assert summary["cycles"] >= 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["trace.jsonl", None], ids=["out", "no-out"])
def test_non_finite_trace_record_fails_the_run_and_leaves_no_file(monkeypatch, tmp_path,
                                                                  out):
    def overflowing(config, rng):
        payloads = [{"x": 1.0}, {"x": 2.0}, {"x": [3.0, float("inf")]}, {"x": 4.0}]
        return payloads, {"status": "finished"}, {}

    monkeypatch.setitem(mgv.runner._RUNNERS, RunMode.FLAVELL, (overflowing, canonical_json))
    config = flavell_config(tmp_path)
    config = RunConfig(config.mode, config.seed, config.params,
                       out=out and str(tmp_path / out))
    with pytest.raises(NonFiniteOutput, match="^trace record 2: "):
        run(config)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [TypeError("record 2 does not encode"),
                                   OSError(28, "No space left on device"),
                                   KeyboardInterrupt()],
                         ids=["TypeError", "OSError", "KeyboardInterrupt"])
def test_any_failure_mid_trace_removes_the_file_and_propagates(monkeypatch, tmp_path,
                                                               error):
    def encode(payload):
        if payload["x"] == 2:
            raise error
        return canonical_json(payload)

    def four_records(config, rng):
        return [{"x": i} for i in range(4)], {"status": "finished"}, {}

    config = flavell_config(tmp_path)
    _write_trace(config.out, "older", "flavell", [{"x": i} for i in range(50)])
    monkeypatch.setitem(mgv.runner._RUNNERS, RunMode.FLAVELL, (four_records, encode))
    with pytest.raises(type(error)) as raised:
        run(config)
    assert raised.value is error
    assert list(tmp_path.iterdir()) == []


def test_a_failed_rerun_removes_the_older_summary_with_its_trace(monkeypatch, tmp_path):
    config = flavell_config(tmp_path, out="t.jsonl")
    run(config)
    assert summary_path_for(config.out).exists()

    def overflowing(config, rng):
        return [{"x": 1.0}, {"x": float("inf")}], {"status": "finished"}, {}

    monkeypatch.setitem(mgv.runner._RUNNERS, RunMode.FLAVELL, (overflowing, canonical_json))
    with pytest.raises(NonFiniteOutput, match="^trace record 1: "):
        run(config)
    assert list(tmp_path.iterdir()) == []


def test_a_summary_that_cannot_be_removed_is_a_note_on_the_first_error(monkeypatch,
                                                                       tmp_path):
    config = flavell_config(tmp_path, out="t.jsonl")
    run(config)

    def overflowing(config, rng):
        return [{"x": float("nan")}], {"status": "finished"}, {}

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setitem(mgv.runner._RUNNERS, RunMode.FLAVELL, (overflowing, canonical_json))
    monkeypatch.setattr(Path, "unlink", refuse)
    with pytest.raises(NonFiniteOutput, match="^trace record 0: ") as raised:
        run(config)
    if sys.version_info >= (3, 11):
        assert "PermissionError" in "\n".join(raised.value.__notes__)
    assert [p.name for p in tmp_path.iterdir()] == ["t.summary.json"]


# --- trace bytes against a per-record reference ------------------------------

def reference_trace(run_id, mode, payloads) -> bytes:
    """The trace as one canonical ``json.dumps`` call per record writes it."""
    return "".join(json.dumps({"run_id": run_id, "cycle": i, "module": mode,
                               "payload": p, "timestamp": i},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for i, p in enumerate(payloads)).encode()


# Keys and strings that need escapes or are not ASCII.
TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["", "\"", "\\", "\n\t\x00", "\u00e9t\u00e9",
                                  "\u2028", "\U0001f600", "</script>"]))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1,
                                    1 / 3, 1.7976931348623157e308, 123456789.0]))
INTS = st.one_of(st.integers(-10, 10), st.sampled_from([2**63, -(2**63) - 1, 10**30]),
                 st.integers())
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)
PAYLOADS = st.lists(st.dictionaries(TEXT, JSON_VALUES, max_size=5), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payloads=PAYLOADS, run_id=TEXT, mode=TEXT)
def test_trace_writer_matches_per_record_canonical_json(tmp_path_factory, payloads,
                                                        run_id, mode):
    path = tmp_path_factory.getbasetemp() / "writer.jsonl"
    _write_trace(path, run_id, mode, payloads)
    assert path.read_bytes() == reference_trace(run_id, mode, payloads)


DRIFTS = st.lists(st.one_of(st.floats(-3, 3),
                            st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, 0.1, 1 / 3, 2])),
                  min_size=1, max_size=3, unique=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drifts=DRIFTS, episodes=st.integers(1, 40), seed=st.integers(0, 2**32),
       horizon=st.integers(1, 12), start=st.sampled_from([0.0, -0.5, 0.75]))
def test_recall_trace_matches_simulation_arrays(tmp_path_factory, drifts, episodes,
                                                seed, horizon, start):
    tmp_path = tmp_path_factory.mktemp("recall")
    config = validate_config({
        "mode": "recall_mdp", "seed": seed,
        "params": {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
                   "evidence_variance": 1.0, "recall_threshold": 1.0,
                   "recall_utility": 5.0, "search_cost": 0.02, "horizon": horizon,
                   "simulate": {"drifts": drifts, "episodes": episodes,
                                "start": start}},
        "out": str(tmp_path / "recall.jsonl")})
    run(config)
    (mdp,) = build(config.mode, config.params)
    policy = recall.solve_recall_mdp(mdp)
    rng = substream(seed, "recall_mdp")
    payloads = []
    for drift in config.params["simulate"]["drifts"]:
        result = recall.simulate_recall(policy, mdp, drift, episodes, rng, start=start)
        payloads += [{"episode": e, "drift": drift, "recalled": bool(result.recalled[e]),
                      "steps": int(result.steps[e])} for e in range(episodes)]
    expected = reference_trace(run_id_for(config), "recall_mdp", payloads)
    assert (tmp_path / "recall.jsonl").read_bytes() == expected


def test_recall_payloads_are_strings_the_garbage_collector_skips():
    """Thousands of simulated episodes leave no object for a cyclic
    collection to scan; the bytes are held by the test above."""
    config = validate_config({
        "mode": "recall_mdp", "seed": 3,
        "params": {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
                   "evidence_variance": 1.0, "recall_threshold": 1.0,
                   "recall_utility": 5.0, "search_cost": 0.02, "horizon": 6,
                   "simulate": {"drifts": [-0.5, 0.5], "episodes": 300}}})
    payloads, summary, _ = mgv.runner._run_recall(config, substream(3, "recall_mdp"))
    assert type(payloads) is list and len(payloads) == 600
    assert all(type(p) is str for p in payloads)
    assert not any(map(gc.is_tracked, payloads))
    assert [json.loads(p)["episode"] for p in payloads[299:301]] == [299, 0]


# Control-loop record fields: plain and awkward floats, ints and bools where
# floats go, and numpy scalars, each within the range its constructor takes.
def _numbers(lo, hi, *extra):
    return st.one_of(st.floats(lo, hi), st.sampled_from([-0.0, 5e-324, *extra]),
                     st.floats(lo, hi).map(np.float64))


UNIT_FIELD = _numbers(0.0, 1.0, 0, 1, True, 1 / 3)
SIGNED_FIELD = _numbers(-1.0, 1.0, -1, 0, 1, False, -5e-324)
NONNEG_FIELD = _numbers(0.0, 1e300, 1e16, 1e-7, 0, 7, 10**30, np.float64(1e16))
RECORDS = st.builds(
    ExperienceTuple,
    cycle=st.one_of(st.integers(0, 10**20), st.just(np.int64(3))),
    experience=st.builds(ExperienceVector, primary=UNIT_FIELD,
                         secondary=st.none() | UNIT_FIELD,
                         mode=st.sampled_from(ExperienceMode)),
    strategy_id=TEXT, resources=NONNEG_FIELD, outcome_quality=SIGNED_FIELD,
    fok=st.none() | st.builds(FokCounters, NONNEG_FIELD, NONNEG_FIELD),
    confidence=st.none() | UNIT_FIELD)


def _encoded(encode, record):
    """What ``encode`` makes of ``record``: its text, or the type it raises."""
    try:
        return encode(record)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(record=RECORDS)
def test_experience_template_matches_canonical_json_of_the_record(record):
    expected = _encoded(lambda t: canonical_json(t.to_dict()), record)
    assert _encoded(mgv.runner._experience_record, record) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan")], ids=["nan", "inf", "-inf", "np-nan"])
@pytest.mark.parametrize("field", ["cycle", "experience.primary", "experience.secondary",
                                   "resources", "outcome_quality", "fok.plus", "fok.minus",
                                   "confidence"])
def test_experience_template_rejects_non_finite_fields(tmp_path, field, value):
    def record():
        return ExperienceTuple(2, ExperienceVector(0.5, 0.25), "s", 1.0, 0.5,
                               fok=FokCounters(0.5, 0.25), confidence=0.75)

    bad = record()
    *path, name = field.split(".")
    setattr(getattr(bad, path[0]) if path else bad, name, value)
    out = tmp_path / "trace.jsonl"
    with pytest.raises(NonFiniteOutput, match="^trace record 1: "):
        _write_trace(out, "r", "acquire", [record(), bad], mgv.runner._experience_record)
    assert not out.exists()


# Documents whose trace grows with one count: (mode, params, field, small, large).
GROWING = [
    ("recall_mdp", {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
                    "evidence_variance": 1.0, "recall_threshold": 1.0,
                    "recall_utility": 5.0, "search_cost": 0.02, "horizon": 8,
                    "simulate": {"drifts": [0.1, 0.4], "episodes": None}},
     "simulate.episodes", 10, 1000),
    ("flavell", {"task_tags": ["t"], "success_threshold": 1.0, "max_cycles": None,
                 "failure_streak_limit": 1000, "prune_margin": 1000,
                 "strategies": [{"id": "good", "quality": 0.9},
                                {"id": "bad", "quality": -0.5}]},
     "max_cycles", 5, 200),
    ("acquire", {"target_performance": 0.95, "retention_discount": 0.0,
                 "total_resources_per_cycle": 3.0, "max_cycles": None,
                 "items": [{"id": 1, "latent_difficulty": 0.3},
                           {"id": 2, "latent_difficulty": 0.7}]},
     "max_cycles", 5, 200),
    ("retrieve", {"query": ["cue"], "match_prob": 0.95, "max_cycles": None},
     "max_cycles", 5, 200),
    ("bandit", {"episodes": None, "utilities": [0.9, 0.1], "times": [1.0, 1.0]},
     "episodes", 10, 1000),
]


def json_work(monkeypatch, tmp_path, mode, params, field, count) -> tuple[int, int]:
    """(JSON encoders built plus ``json.dumps`` calls, trace lines) for one run."""
    params = copy.deepcopy(params)
    *outer, last = field.split(".")
    inner = params
    for key in outer:
        inner = inner[key]
    inner[last] = count
    config = validate_config({"mode": mode, "seed": 3, "params": params,
                              "out": str(tmp_path / f"{mode}-{count}.jsonl")})
    work = []

    class CountingEncoder(json.JSONEncoder):
        def __init__(self, *args, **kwargs):
            work.append("encoder")
            super().__init__(*args, **kwargs)

    def dumps(*args, **kwargs):
        work.append("dumps")
        return json.dumps(*args, **kwargs)

    counting = types.SimpleNamespace(**{**vars(json), "JSONEncoder": CountingEncoder,
                                        "dumps": dumps})
    with monkeypatch.context() as m:
        m.setattr(mgv.runner, "json", counting)
        run(config)
    return len(work), len(Path(config.out).read_text().splitlines())


@pytest.mark.parametrize("mode,params,field,small,large", GROWING,
                         ids=[f"{g[0]}-{g[2]}" for g in GROWING])
def test_json_work_per_run_does_not_grow_with_the_trace(monkeypatch, tmp_path, mode,
                                                        params, field, small, large):
    few_work, few_lines = json_work(monkeypatch, tmp_path, mode, params, field, small)
    many_work, many_lines = json_work(monkeypatch, tmp_path, mode, params, field, large)
    assert few_lines < many_lines
    assert few_work == many_work


def test_trace_writer_memory_stays_well_under_the_trace_size(monkeypatch, tmp_path):
    params = {**recall_config(tmp_path, simulate=False).params,
              "simulate": {"drifts": [0.1], "episodes": 50_000}}
    config = validate_config({"mode": "recall_mdp", "seed": 3, "params": params,
                              "out": str(tmp_path / "long.jsonl")})
    peaks = []

    def measured(*args):
        tracemalloc.start()
        try:
            _write_trace(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(mgv.runner, "_write_trace", measured)
    run(config)
    size = Path(config.out).stat().st_size
    assert size > 4_000_000
    assert peaks[0] < size / 2


# --- per-mode summaries -----------------------------------------------------

def test_acquire_run_summary(tmp_path):
    config = validate_config({
        "mode": "acquire", "seed": 11,
        "params": {"target_performance": 0.6, "retention_discount": 0.1,
                   "total_resources_per_cycle": 3.0, "max_cycles": 40,
                   "items": [{"id": 1, "latent_difficulty": 0.3},
                             {"id": 2, "latent_difficulty": 0.7}]},
        "out": str(tmp_path / "acq.jsonl")})
    summary = run(config)
    assert summary["status"] == "finished"
    assert summary["remaining_items"] == []
    assert summary["norm_of_study"] == pytest.approx(0.66)


def test_retrieve_run_summary(tmp_path):
    config = validate_config({
        "mode": "retrieve", "seed": 5,
        "params": {"query": ["cue"], "target": "answer", "match_prob": 0.95,
                   "min_matches": 3},
        "out": str(tmp_path / "ret.jsonl")})
    summary = run(config)
    assert summary["status"] == "output"
    assert summary["answer"] == "answer"
    assert summary["cycles"] >= 1


def test_bandit_run_summary(tmp_path):
    config = validate_config({
        "mode": "bandit", "seed": 2,
        "params": {"episodes": 60, "utilities": [0.9, 0.1],
                   "times": [1.0, 1.0]},
        "out": str(tmp_path / "bandit.jsonl")})
    summary = run(config)
    assert summary["episodes"] == 60
    assert sum(summary["pulls"]) == 60
    assert summary["cumulative_regret"] >= 0
    assert summary["pulls"][0] > summary["pulls"][1]


def test_plan_run_summary(tmp_path):
    config = validate_config({
        "mode": "plan", "seed": 4,
        "params": {"parents": [None, 0, 0],
                   "priors": [{"support": [0.0], "probs": [1.0]},
                              {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
                              {"support": [0.0, 1.0], "probs": [0.5, 0.5]}],
                   "expansion_cost": 0.05},
        "out": str(tmp_path / "plan.jsonl")})
    summary = run(config)
    assert summary["expansions"] >= 1
    assert summary["net_reward"] == pytest.approx(
        summary["plan_value"] - 0.05 * summary["expansions"])


def test_recall_run_emits_policy_and_threshold_files(tmp_path):
    config = recall_config(tmp_path)
    policy_path = tmp_path / "policy.json"
    threshold_path = tmp_path / "thresholds.csv"
    summary = run(config, emit_policy=str(policy_path),
                  emit_threshold=str(threshold_path))
    policy = json.loads(policy_path.read_text())
    assert policy["horizon"] == 8
    assert len(policy["values"]) == 9
    lines = threshold_path.read_text().splitlines()
    assert lines[0] == "t,threshold"
    assert len(lines) == 10
    for line, t in zip(lines[1:], range(9)):
        assert line.startswith(f"{t},")
    assert summary["simulated"]["0.1"]["recall_rate"] <= \
        summary["simulated"]["0.4"]["recall_rate"]
    records = [json.loads(l) for l in
               (tmp_path / "recall.jsonl").read_text().splitlines()]
    assert len(records) == 100
    for record in records[:5]:
        jsonschema.validate(record, TRACE_RECORD_SCHEMA)


def test_recall_run_without_simulation_has_empty_trace(tmp_path):
    config = recall_config(tmp_path, simulate=False)
    summary = run(config)
    assert summary["simulated"] is None
    assert (tmp_path / "recall.jsonl").read_text() == ""
    thresholds = summary["stopping_threshold"]
    assert set(thresholds) == {str(t) for t in range(9)}


# --- repeat fan-out ---------------------------------------------------------

def test_repeat_fans_out_files_and_streams(tmp_path):
    config = flavell_config(tmp_path)
    summaries = run_repeated(config, repeat=3)
    assert [s["repeat_index"] for s in summaries] == [0, 1, 2]
    for i in range(3):
        assert (tmp_path / f"trace.{i}.jsonl").exists()
        assert (tmp_path / f"trace.{i}.summary.json").exists()
    assert not (tmp_path / "trace.jsonl").exists()


def test_repeat_one_keeps_plain_paths(tmp_path):
    summaries = run_repeated(flavell_config(tmp_path), repeat=1)
    assert len(summaries) == 1
    assert "repeat_index" not in summaries[0]
    assert (tmp_path / "trace.jsonl").exists()


def test_repeats_draw_independent_streams(tmp_path):
    config = validate_config({
        "mode": "bandit", "seed": 9,
        "params": {"episodes": 30, "utilities": [0.5, 0.5],
                   "times": [1.0, 1.0], "reward_noise": 0.3},
        "out": str(tmp_path / "b.jsonl")})
    run_repeated(config, repeat=2)
    first = (tmp_path / "b.0.jsonl").read_text()
    second = (tmp_path / "b.1.jsonl").read_text()
    assert first != second


# --- report -----------------------------------------------------------------

def test_report_collects_metrics_and_formats_table(tmp_path):
    f = flavell_config(tmp_path)
    run(f)
    b = validate_config({
        "mode": "bandit", "seed": 2,
        "params": {"episodes": 20, "utilities": [0.8, 0.2],
                   "times": [1.0, 1.0]},
        "out": str(tmp_path / "bandit.jsonl")})
    run(b)
    doc, table = report([tmp_path / "trace.jsonl", tmp_path / "bandit.jsonl"])
    assert len(doc["runs"]) == 2
    by_module = {m["module"]: m for m in doc["runs"]}
    assert by_module["flavell"]["extra"]["cycles"] >= 1
    assert by_module["bandit"]["extra"]["cumulative_regret"] >= 0
    assert by_module["bandit"]["extra"]["final_gamma"] is not None
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["run_id", "module"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4


def test_report_skips_blank_trace_lines(tmp_path):
    run(flavell_config(tmp_path))
    plain = tmp_path / "trace.jsonl"
    lines = plain.read_text().splitlines(keepends=True)
    blank = tmp_path / "blank" / "trace.jsonl"
    blank.parent.mkdir()
    blank.write_text("".join([lines[0], "\n", "  \n", *lines[1:]]))
    summary_path_for(blank).write_bytes(summary_path_for(plain).read_bytes())
    (doc, table), (plain_doc, plain_table) = report([blank]), report([plain])
    assert doc["runs"][0].pop("trace") == str(blank)
    plain_doc["runs"][0].pop("trace")
    assert (doc, table) == (plain_doc, plain_table)


def test_report_missing_and_malformed_traces(tmp_path):
    with pytest.raises(MissingFile):
        report([tmp_path / "absent.jsonl"])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    with pytest.raises(ParseError):
        report([bad])
