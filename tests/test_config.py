import copy
import inspect
import json
import math

import pytest

import mgv.config as mgv_config
from mgv.config import (MAX_CUE_SAMPLES, MAX_HORIZON, MAX_RECORDS, RunConfig,
                        RunMode, load_config, save_config, validate_config,
                        validate_params)
from mgv.acquisition import compute_norm_of_study
from mgv.errors import MissingFile, ParseError, ValidationError
from mgv.planning import DiscretePrior


def flavell_params(**overrides):
    params = {
        "task_tags": ["algebra"],
        "success_threshold": 0.8,
        "max_cycles": 10,
        "strategies": [{"id": "s1", "quality": 0.9}],
    }
    params.update(overrides)
    return params


def minimal_doc(**overrides):
    doc = {"mode": "flavell", "seed": 7, "params": flavell_params()}
    doc.update(overrides)
    return doc


# --- document level ---------------------------------------------------------

def test_minimal_document_fills_defaults():
    config = validate_config(minimal_doc())
    assert config.mode is RunMode.FLAVELL
    assert config.seed == 7
    assert config.out is None
    assert config.params["feel_prob"] == 0.5
    assert config.params["prune_margin"] == 5
    assert config.params["resource_budget"] is None
    assert config.params["strategies"][0]["tags"] == ["algebra"]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError) as err:
        validate_config(minimal_doc(extra=1))
    assert "extra" in str(err.value)


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError) as err:
        validate_config(minimal_doc(mode="daydream"))
    assert err.value.field == "config.mode"


def test_seed_must_be_nonnegative_int():
    with pytest.raises(ValidationError):
        validate_config(minimal_doc(seed=-1))
    with pytest.raises(ValidationError):
        validate_config(minimal_doc(seed=1.5))
    with pytest.raises(ValidationError):
        validate_config(minimal_doc(seed=True))


def test_validation_error_names_the_field():
    with pytest.raises(ValidationError) as err:
        validate_config(minimal_doc(params=flavell_params(feel_prob=2.0)))
    assert err.value.field == "params.feel_prob"


def test_non_object_document_rejected():
    with pytest.raises(ValidationError):
        validate_config([1, 2, 3])


# --- per-mode validators ----------------------------------------------------

def test_flavell_strategy_entries_checked():
    bad = flavell_params(strategies=[{"id": "a", "quality": 0.5},
                                     {"id": "a", "quality": 0.2}])
    with pytest.raises(ValidationError):
        validate_params(RunMode.FLAVELL, bad)
    bad = flavell_params(strategies=[{"id": "a", "quality": 0.5, "oops": 1}])
    with pytest.raises(ValidationError) as err:
        validate_params(RunMode.FLAVELL, bad)
    assert "oops" in str(err.value)


def test_acquire_defaults_and_items():
    params = validate_params(RunMode.ACQUIRE, {
        "target_performance": 0.8,
        "retention_discount": 0.1,
        "total_resources_per_cycle": 2.0,
        "max_cycles": 5,
        "items": [{"id": 1, "latent_difficulty": 0.4}],
    })
    assert params["mastery_gain"] == 0.2
    assert params["items"][0]["mastery"] == 0.0
    with pytest.raises(ValidationError):
        validate_params(RunMode.ACQUIRE, {
            "target_performance": 0.8, "retention_discount": 0.1,
            "total_resources_per_cycle": 2.0, "max_cycles": 5,
            "items": [{"id": 1, "latent_difficulty": 0.0}]})


def test_retrieve_defaults():
    params = validate_params(RunMode.RETRIEVE, {
        "query": ["cue-b", "cue-a"], "match_prob": 0.7})
    assert params["query"] == ["cue-a", "cue-b"]
    assert params["satisficing_rate"] == 0.1
    assert params["compound_decay"] is False
    assert params["target"] is None


def test_bandit_stationary_and_feature_shapes():
    params = validate_params(RunMode.BANDIT, {
        "episodes": 10, "utilities": [0.5, 0.2], "times": [1.0, 1.0]})
    assert params["env"] == "stationary"
    assert params["gamma_prior"] == [0.0, 1.0]
    params = validate_params(RunMode.BANDIT, {
        "env": "feature", "episodes": 10,
        "utility_weights": [[1.0, 0.0]], "time_weights": [[0.5, 0.5]]})
    assert params["env"] == "feature"
    with pytest.raises(ValidationError):
        validate_params(RunMode.BANDIT, {
            "env": "feature", "episodes": 10,
            "utility_weights": [[1.0, 0.0]], "time_weights": [[0.5]]})
    with pytest.raises(ValidationError):
        validate_params(RunMode.BANDIT, {
            "episodes": 10, "utilities": [0.5], "times": [0.0]})


def test_plan_parents_and_priors():
    params = validate_params(RunMode.PLAN, {
        "parents": [None, 0, 0],
        "priors": [{"support": [0.0], "probs": [1.0]}] * 3,
        "expansion_cost": 0.1})
    assert params["expansion_cost"] == 0.1
    with pytest.raises(ValidationError):
        validate_params(RunMode.PLAN, {
            "parents": [0], "priors": [{"support": [0.0], "probs": [1.0]}],
            "expansion_cost": 0.1})
    with pytest.raises(ValidationError):
        validate_params(RunMode.PLAN, {
            "parents": [None, 0],
            "priors": [{"support": [0.0], "probs": [0.9]}] * 2,
            "expansion_cost": 0.1})


def test_recall_params_and_simulate_block():
    base = {"drift_prior_mean": 0.1, "drift_prior_variance": 0.5,
            "evidence_variance": 1.0, "recall_threshold": 1.0,
            "recall_utility": 2.0, "search_cost": 0.05, "horizon": 10}
    params = validate_params(RunMode.RECALL_MDP, base)
    assert params["z_min"] is None and params["simulate"] is None
    params = validate_params(RunMode.RECALL_MDP, dict(
        base, simulate={"drifts": [0.1, 0.3], "episodes": 100}))
    assert params["simulate"]["start"] == 0.0
    with pytest.raises(ValidationError):
        validate_params(RunMode.RECALL_MDP, dict(base, simulate={"drifts": []}))


def test_integer_accepted_where_number_expected():
    params = validate_params(RunMode.RETRIEVE, {"query": ["q"], "match_prob": 1})
    assert params["match_prob"] == 1.0
    with pytest.raises(ValidationError):
        validate_params(RunMode.RETRIEVE, {"query": ["q"], "match_prob": True})


def test_number_fields_store_integers_as_floats():
    checks = [
        (RunMode.FLAVELL, flavell_params(resource_budget=5, resources_per_cycle=1, noise=0),
         ["resource_budget", "resources_per_cycle", "noise"]),
        (RunMode.ACQUIRE, {"target_performance": 1, "retention_discount": 0,
                           "total_resources_per_cycle": 2, "max_cycles": 5,
                           "items": [{"id": 1, "latent_difficulty": 1}],
                           "jol_noise_sigma": 0, "signal_floor": 1, "mastery_gain": 1},
         ["retention_discount", "total_resources_per_cycle", "jol_noise_sigma",
          "signal_floor", "mastery_gain"]),
        (RunMode.RETRIEVE, {"query": ["q"], "match_prob": 1, "satisficing_rate": 0,
                            "default_lambda_fok": 1, "evidence_scale": 1,
                            "confidence_gain": 2},
         ["satisficing_rate", "default_lambda_fok", "evidence_scale", "confidence_gain"]),
        (RunMode.BANDIT, {"episodes": 3, "utilities": [1], "times": [1],
                          "reward_noise": 0, "prior_variance": 1, "noise_variance": 1,
                          "time_noise": 0},
         ["reward_noise", "prior_variance", "noise_variance", "time_noise"]),
        (RunMode.RECALL_MDP, {"drift_prior_mean": 0, "drift_prior_variance": 1,
                              "evidence_variance": 1, "recall_threshold": 2,
                              "recall_utility": 1, "search_cost": 0, "horizon": 3,
                              "z_min": -2, "z_step": 1},
         ["z_min", "z_step"]),
    ]
    for mode, params, fields in checks:
        clean = validate_params(mode, params)
        for name in fields:
            assert type(clean[name]) is float, (mode, name)
    item = validate_params(RunMode.RETRIEVE, {
        "query": ["q"], "match_prob": 0.5,
        "seed_items": [{"id": "a", "category": "task", "features": [1],
                        "calibration_records": [{"fok_magnitude": 1, "confidence": 1,
                                                 "was_correct": True}]}]})["seed_items"][0]
    assert type(item["features"][0]) is float
    assert item["successes"] == 0 and item["in_stm"] is False
    record = item["calibration_records"][0]
    assert type(record["fok_magnitude"]) is float and type(record["confidence"]) is float


@pytest.mark.parametrize("mode,params,field", [
    (RunMode.ACQUIRE, {"target_performance": 0.5, "retention_discount": 0.1,
                       "total_resources_per_cycle": 1.0, "max_cycles": 3,
                       "items": [{"id": 1, "latent_difficulty": 0.5},
                                 {"id": 1, "latent_difficulty": 0.2}]}, "params.items"),
    (RunMode.BANDIT, {"episodes": 3, "utilities": [0.5, 0.2], "times": [1.0]},
     "params.utilities"),
    (RunMode.BANDIT, {"env": "feature", "episodes": 3, "utility_weights": [[1.0, 0.0]],
                      "time_weights": [[1.0]]}, "params.time_weights"),
    (RunMode.PLAN, {"parents": [None, 0], "priors": [{"support": [0.0], "probs": [1.0]},
                                                      {"support": [1.0], "probs": [0.5]}],
                    "expansion_cost": 0.1}, "params.priors[1].probs"),
    (RunMode.PLAN, {"parents": [None, 0], "priors": [{"support": [0.0], "probs": [1.0]}],
                    "expansion_cost": 0.1}, "params.priors"),
    (RunMode.PLAN, {"parents": [None, 3], "priors": [{"support": [0.0], "probs": [1.0]}] * 2,
                    "expansion_cost": 0.1}, "params.parents"),
    (RunMode.RECALL_MDP, {"drift_prior_mean": 0.1, "drift_prior_variance": 0.5,
                          "evidence_variance": 1.0, "recall_threshold": 1.0,
                          "recall_utility": 2.0, "search_cost": 0.05, "horizon": 10,
                          "z_min": -1.0, "z_step": 0.0001}, "params.z_step"),
    (RunMode.RECALL_MDP, {"drift_prior_mean": 0.1, "drift_prior_variance": 0.5,
                          "evidence_variance": 1.0, "recall_threshold": 1.0,
                          "recall_utility": 2.0, "search_cost": 0.05, "horizon": 10,
                          "z_step": 1e12}, "params.z_step"),
])
def test_cross_field_rules_name_the_field(mode, params, field):
    with pytest.raises(ValidationError) as err:
        validate_params(mode, params)
    assert err.value.field == field


RECALL_PARAMS = {"drift_prior_mean": 0.1, "drift_prior_variance": 0.5,
                 "evidence_variance": 1.0, "recall_threshold": 1.0,
                 "recall_utility": 2.0, "search_cost": 0.05, "horizon": 10,
                 "simulate": {"drifts": [0.1], "episodes": 10}}


BOUNDED_COUNTS = [
    (RunMode.FLAVELL, flavell_params(), "max_cycles", MAX_RECORDS),
    (RunMode.ACQUIRE, {"target_performance": 0.5, "retention_discount": 0.1,
                       "total_resources_per_cycle": 1.0, "max_cycles": 3,
                       "items": [{"id": 1, "latent_difficulty": 0.5}]},
     "max_cycles", MAX_RECORDS),
    (RunMode.RETRIEVE, {"query": ["q"], "match_prob": 0.5}, "max_cycles", MAX_RECORDS),
    (RunMode.RETRIEVE, {"query": ["q"], "match_prob": 0.5}, "cue_samples",
     MAX_CUE_SAMPLES),
    (RunMode.BANDIT, {"episodes": 3, "utilities": [0.5], "times": [1.0]},
     "episodes", MAX_RECORDS),
    (RunMode.RECALL_MDP, RECALL_PARAMS, "horizon", MAX_HORIZON),
    (RunMode.RECALL_MDP, RECALL_PARAMS, "simulate.episodes", MAX_RECORDS),
]


@pytest.mark.parametrize("mode,params,path,limit", BOUNDED_COUNTS,
                         ids=[f"{c[0].value}-{c[2]}" for c in BOUNDED_COUNTS])
def test_counts_have_an_upper_bound_naming_the_field(mode, params, path, limit):
    def given(count):
        doc = copy.deepcopy(params)
        *outer, last = path.split(".")
        inner = doc
        for key in outer:
            inner = inner[key]
        inner[last] = count
        return doc

    assert validate_params(mode, given(limit))
    for count in (limit + 1, 10**12, 2**63):
        with pytest.raises(ValidationError) as err:
            validate_params(mode, given(count))
        assert err.value.field == f"params.{path}"
        assert err.value.message == f"must be at most {limit}"


# --- file round trip --------------------------------------------------------

def test_save_and_load_round_trip(tmp_path):
    config = validate_config(minimal_doc(out=str(tmp_path / "trace.jsonl")))
    path = tmp_path / "run.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded == config


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_config(tmp_path / "nope.json")


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)


def test_round_trip_is_stable(tmp_path):
    """Loading what was saved and saving again changes nothing."""
    config = validate_config(minimal_doc())
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_config(config, first)
    save_config(load_config(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_to_dict_matches_document_shape():
    config = validate_config(minimal_doc())
    doc = config.to_dict()
    assert doc["mode"] == "flavell"
    assert json.loads(json.dumps(doc)) == doc


# --- params defaults against constructor defaults -----------------------------

def _tables_by_dict(table, clean: dict) -> dict[int, object]:
    """id of each cleaned params object -> the table that cleaned it."""
    table = table.tables[clean["env"]] if hasattr(table, "tables") else table
    found = {id(clean): table}
    for f in table.fields:
        item = getattr(f.type, "item", None)
        if hasattr(item, "fields") and clean[f.name]:
            for entry in clean[f.name]:
                found.update(_tables_by_dict(item, entry))
    return found


DEFAULT_DOCS = [
    {"mode": "flavell", "params": flavell_params()},
    {"mode": "acquire", "params": {"target_performance": 0.6, "retention_discount": 0.1,
                                   "total_resources_per_cycle": 2.0, "max_cycles": 4,
                                   "items": [{"id": 1, "latent_difficulty": 0.3}]}},
    {"mode": "retrieve", "params": {"query": ["cue"], "match_prob": 0.7}},
    {"mode": "bandit", "params": {"episodes": 3, "utilities": [0.5], "times": [1.0]}},
    {"mode": "bandit", "params": {"env": "feature", "episodes": 3,
                                  "utility_weights": [[1.0]], "time_weights": [[1.0]]}},
    {"mode": "plan", "params": {"parents": [None], "priors": [{"support": [0.0],
                                                               "probs": [1.0]}],
                                "expansion_cost": 0.0}},
    {"mode": "recall_mdp", "params": {
        "drift_prior_mean": 0.2, "drift_prior_variance": 0.5, "evidence_variance": 1.0,
        "recall_threshold": 1.0, "recall_utility": 5.0, "search_cost": 0.02,
        "horizon": 4}},
]


def _made_objects(monkeypatch):
    """(factory, params it took, arguments given beside them, the table that
    cleaned those params) for every ``_make`` call that builds DEFAULT_DOCS."""
    calls = []
    real_make = mgv_config._make

    def spying(factory, params, **given):
        calls.append((factory, params, given))
        return real_make(factory, params, **given)

    monkeypatch.setattr(mgv_config, "_make", spying)
    for doc in DEFAULT_DOCS:
        mode = RunMode(doc["mode"])
        clean = validate_params(mode, doc["params"])
        tables = _tables_by_dict(mgv_config._MODES[mode][0], clean)
        calls.clear()
        mgv_config.build(mode, clean)
        for factory, params, given in calls:
            yield factory, params, given, tables[id(params)]


def test_params_defaults_equal_the_constructor_defaults(monkeypatch):
    """A default written in a params table and again in the constructor
    ``_make`` feeds must agree; ``resource_budget`` (null <-> inf) is the
    one deliberate exception."""
    compared = []
    for factory, params, _, table in _made_objects(monkeypatch):
        signature = inspect.signature(factory).parameters
        for f in table.fields:
            if (f.name not in signature or f.default is mgv_config.REQUIRED
                    or callable(f.default) or f.name == "resource_budget"):
                continue
            made = signature[f.name].default
            if made is inspect.Parameter.empty:  # the table's default is the only one
                continue
            made = list(made) if isinstance(made, tuple) else made
            compared.append((factory.__qualname__, f.name))
            assert made == f.default, (factory.__qualname__, f.name)
    # Every mode with _make-built objects took part.
    assert {name for name, _ in compared} >= {
        "KnowledgeStore", "KnowledgeItem", "SyntheticTaskEnvironment", "GoalSpec",
        "FlavellConfig", "LearnItem", "AcquisitionConfig", "CueRetrievalEnvironment",
        "RetrievalConfig", "StationaryBanditEnvironment", "BanditState.create",
        "RecallMdpConfig"}


# --- constructor range checks against the params tables -------------------------

# The fields each library constructor with range checks checks itself;
# ``name[0]`` stands for a rule on every entry of the list ``name``.
CONSTRUCTOR_CHECKS = {
    "GoalSpec": {"success_threshold", "max_cycles", "failure_streak_limit",
                 "resource_budget"},
    "FlavellConfig": {"feel_prob", "resources_per_cycle", "prune_margin"},
    "SyntheticTaskEnvironment": {"completeness", "noise"},
    "AcquisitionConfig": {"total_resources_per_cycle", "max_cycles", "items", "feel_prob",
                          "jol_noise_sigma", "signal_floor", "mastery_gain"},
    "LearnItem": {"latent_difficulty", "mastery"},
    "compute_norm_of_study": {"target_performance", "retention_discount"},
    "RetrievalConfig": {"satisficing_rate", "default_lambda_fok",
                        "default_lambda_confidence", "max_cycles"},
    "RecallMdpConfig": {"drift_prior_variance", "evidence_variance", "recall_threshold",
                        "search_cost", "horizon", "z_step"},
    "KnowledgeStore": {"access_prob", "encoding_rate"},
    "CueRetrievalEnvironment": {"match_prob", "cue_samples", "evidence_scale",
                                "min_matches", "confidence_gain"},
    "StationaryBanditEnvironment": {"times[0]", "reward_noise", "time_noise"},
    "FeatureBanditEnvironment": {"reward_noise"},
    "BanditState.create": {"gamma_prior"},
    "DiscretePrior": {"probs[0]"},
}
# The number fields with no range rule that a constructor checks are finite.
FINITE_CHECKS = {
    "RecallMdpConfig": {"drift_prior_mean", "recall_utility"},
    "DiscretePrior": {"support[0]"},
}


def _checked_constructors(monkeypatch, checks=CONSTRUCTOR_CHECKS):
    """(factory, valid arguments, the table of its params) for each constructor
    in ``checks``, as DEFAULT_DOCS build it."""
    made = list(_made_objects(monkeypatch))
    acquire, plan = (validate_params(RunMode(d["mode"]), d["params"]) for d in DEFAULT_DOCS
                     if d["mode"] in ("acquire", "plan"))
    made += [(compute_norm_of_study, acquire, {}, mgv_config._ACQUIRE),
             (DiscretePrior, plan["priors"][0], {}, mgv_config._PRIOR)]
    found = set()
    for factory, params, given, table in made:
        if factory.__qualname__ in checks:
            found.add(factory.__qualname__)
            names = inspect.signature(factory).parameters
            yield factory, {k: v for k, v in params.items() if k in names} | given, table
    assert found == set(checks)


# How a number stands in for a field that holds a list: ``items`` becomes
# empty, ``gamma_prior`` takes the number as its pseudo-time.
AS_LIST = {"items": lambda x: [], "gamma_prior": lambda x: [0.0, x]}


def _replaced(args: dict, field: str, value) -> dict:
    """``args`` with ``field``, or for ``name[0]`` the first entry of ``name``,
    set to ``value`` (see AS_LIST for the list fields)."""
    name = field.removesuffix("[0]")
    if field in AS_LIST:
        value = AS_LIST[field](value)
    return {**args, name: [value, *args[name][1:]] if name != field else value}


def _raised(call, *args, **kwargs):
    """(field, message) of the ValidationError ``call`` raises, else None."""
    try:
        call(*args, **kwargs)
    except ValidationError as exc:
        return exc.field, exc.message
    return None


def test_constructors_reject_nan_naming_the_field(monkeypatch):
    for factory, args, _ in _checked_constructors(monkeypatch):
        for field in CONSTRUCTOR_CHECKS[factory.__qualname__] - {"items"}:
            raised = _raised(factory, **_replaced(args, field, math.nan))
            assert raised and raised[0] == field, (factory.__qualname__, field)


def test_constructors_reject_infinities_as_their_tables_do(monkeypatch):
    """A number field with no range rule fails on NaN and on either infinity in
    the constructor as in its params table: same field, same message."""
    for factory, args, table in _checked_constructors(monkeypatch, FINITE_CHECKS):
        types = {f.name: f.type for f in table.fields}
        for field in FINITE_CHECKS[factory.__qualname__]:
            arg = field.removesuffix("[0]")
            for value in (math.nan, math.inf, -math.inf):
                bad = _replaced(args, field, value)
                expected = _raised(types[arg].check, bad[arg], arg, None)
                assert expected == (field, "must be finite")
                assert _raised(factory, **bad) == expected, (field, value)


def test_constructors_check_a_field_with_its_table_rule(monkeypatch):
    """A value on either side of a checked field's range fails in the
    constructor exactly as in the field's params table: same field, same
    message."""
    broken = set()
    for factory, args, table in _checked_constructors(monkeypatch):
        name = factory.__qualname__
        types = {f.name: f.type for f in table.fields}
        for field in CONSTRUCTOR_CHECKS[name]:
            arg = field.removesuffix("[0]")
            for value in (-2, 2):
                bad = _replaced(args, field, value)
                expected = _raised(types[arg].check, bad[arg], arg, None)
                if expected is None:  # inside the range
                    continue
                broken.add((name, field))
                assert _raised(factory, **bad) == expected, (name, field, value)
    assert broken == {(name, field) for name, fields in CONSTRUCTOR_CHECKS.items()
                      for field in fields}
