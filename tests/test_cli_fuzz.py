"""Property: whatever one field of a valid document is replaced by, the CLI
prints summaries or exits 2 with one JSON line on stderr; it never raises."""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgv.cli import main

# One small valid document per mode (and bandit world); counts stay <= 8.
BASES = {
    "flavell": {"mode": "flavell", "seed": 1, "params": {
        "task_tags": ["t"], "success_threshold": 0.5, "max_cycles": 6,
        "noise": 0.1, "resource_budget": 8.0,
        "strategies": [{"id": "a", "quality": 0.9, "successes": 1},
                       {"id": "b", "quality": -0.4, "tags": ["t"]}]}},
    "acquire": {"mode": "acquire", "seed": 2, "params": {
        "target_performance": 0.6, "retention_discount": 0.1,
        "total_resources_per_cycle": 2.0, "max_cycles": 8,
        "items": [{"id": 1, "latent_difficulty": 0.3, "mastery": 0.1},
                  {"id": 2, "latent_difficulty": 0.8}]}},
    "retrieve": {"mode": "retrieve", "seed": 3, "params": {
        "query": ["cue"], "target": "x", "match_prob": 0.8, "max_cycles": 8,
        "min_matches": 3, "cue_samples": 3,
        "seed_items": [{"id": "s", "category": "strategy", "tags": ["cue"],
                        "features": [0.5], "successes": 1, "in_stm": True,
                        "calibration_records": [{"fok_magnitude": 0.4,
                                                 "confidence": 0.7,
                                                 "was_correct": True}]}]}},
    "bandit": {"mode": "bandit", "seed": 4, "params": {
        "episodes": 8, "utilities": [0.5, 0.2], "times": [1.0, 2.0],
        "time_noise": 0.1, "gamma_prior": [0.0, 1.0]}},
    "bandit-feature": {"mode": "bandit", "seed": 5, "params": {
        "env": "feature", "episodes": 8,
        "utility_weights": [[1.0, 0.0], [0.5, 0.5]],
        "time_weights": [[0.5, 0.5], [1.0, 0.2]]}},
    "plan": {"mode": "plan", "seed": 6, "params": {
        "parents": [None, 0, 0, 1],
        "priors": [{"support": [0.0], "probs": [1.0]},
                   {"support": [-1.0, 2.0], "probs": [0.5, 0.5]},
                   {"support": [0.0, 1.0], "probs": [0.6, 0.4]},
                   {"support": [-2.0, 3.0], "probs": [0.5, 0.5]}],
        "expansion_cost": 0.05}},
    "recall_mdp": {"mode": "recall_mdp", "seed": 7, "params": {
        "drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
        "evidence_variance": 1.0, "recall_threshold": 1.0,
        "recall_utility": 5.0, "search_cost": 0.02, "horizon": 6,
        "z_min": -1.0, "z_step": 0.25,
        "simulate": {"drifts": [0.1, 0.4], "episodes": 8, "start": 0.0}}},
}

COMMANDS = {"flavell": ("flavell", "--config"), "acquire": ("acquire", "--config"),
            "retrieve": ("retrieve", "--config"), "bandit": ("bandit", "--arms"),
            "plan": ("plan", "--tree"), "recall_mdp": ("solve-recall", "--config")}

HOSTILE = ["x", True, False, None, -1, -1.5, 0, 0.0, 1.5, [], {},
           math.nan, math.inf, -math.inf, 10**12, 2**63, 10**400]

UNKNOWN = object()


def slots(value, path=()):
    """Paths to every field and list entry inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, inner in items:
        found.append(path + (key,))
        found.extend(slots(inner, path + (key,)))
    return found


def run_main(doc: dict) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        path.write_text(json.dumps(doc))
        command, flag = COMMANDS[doc["mode"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, flag, str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_hostile_field_never_raises(data):
    doc = copy.deepcopy(BASES[data.draw(st.sampled_from(sorted(BASES)))])
    params = doc["params"]
    path = data.draw(st.sampled_from(slots(params)))
    value = data.draw(st.sampled_from(HOSTILE + [UNKNOWN]))
    parent = params
    for key in path[:-1]:
        parent = parent[key]
    if value is UNKNOWN:
        assume(isinstance(parent, dict))
        parent["bogus_field"] = 1
    else:
        parent[path[-1]] = value

    code, out, err = run_main(doc)
    if code == 0:
        summaries = [json.loads(line) for line in out.splitlines()]
        assert summaries and all(s["mode"] == doc["mode"] for s in summaries)
    else:
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert set(json.loads(line)["error"]) == {"type", "message"}


NUMERIC_HOSTILE = [v for v in HOSTILE if type(v) in (int, float)]
CROSSED = [(base, path, value) for base in sorted(BASES)
           for path in slots(BASES[base]["params"]) for value in NUMERIC_HOSTILE]


def test_every_slot_takes_every_numeric_hostile_value():
    """The Hypothesis test above reaches a given (slot, value) pair only by
    chance; here every slot of every base meets every numeric value.

    Warnings are recorded rather than raised, and any of them, such as a
    numpy RuntimeWarning, fails the test.
    """
    failures = []
    for base, path, value in CROSSED:
        doc = copy.deepcopy(BASES[base])
        parent = doc["params"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, out, err = run_main(doc)
            except Exception as exc:  # report every crash, not only the first
                failures.append((base, path, value, repr(exc)))
                continue
        if caught:
            failures.append((base, path, value, [str(w.message) for w in caught]))
        if code == 0:
            ok = all(json.loads(line)["mode"] == doc["mode"] for line in out.splitlines())
        else:
            ok = code == 2 and out == "" and len(err.splitlines()) == 1
        if not ok:
            failures.append((base, path, value, code, err))
    assert not failures
