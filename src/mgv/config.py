"""Run configuration: loading, validation, object construction, canonical save.

A run document is ``{"mode": ..., "seed": ..., "params": {...}, "out": ...}``.
Each mode declares its params once, as a table of fields: a name, a JSON type
carrying the field's own range, and a default or "required".  One walker
applies a table: it rejects unknown fields, keeps JSON booleans out of number
fields, stores every number as a float, fills defaults and names the
offending field (``params.priors[3].probs``) in every error.  Rules that
relate several fields live in the library constructors; ``build`` makes a
mode's objects from its validated params and reports those rules by field
too.  Saving always emits canonical JSON (sorted keys) so a load/save round
trip is byte-stable.
"""

from __future__ import annotations

import copy
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from math import inf, isfinite
from pathlib import Path
from typing import Any, NamedTuple

from .acquisition import AcquisitionConfig, LearnItem
from .bandit import BanditState
from .envs import (CueRetrievalEnvironment, FeatureBanditEnvironment,
                   StationaryBanditEnvironment, SyntheticTaskEnvironment)
from .errors import MissingFile, ParseError, ValidationError
from .flavell import FlavellConfig, GoalSpec
from .knowledge import KnowledgeCategory, KnowledgeItem, KnowledgeStore
from .planning import DiscretePrior, make_initial_state
from .recall import RecallMdpConfig
from .retrieval import RetrievalConfig


class RunMode(Enum):
    FLAVELL = "flavell"
    ACQUIRE = "acquire"
    RETRIEVE = "retrieve"
    BANDIT = "bandit"
    PLAN = "plan"
    RECALL_MDP = "recall_mdp"


@dataclass
class RunConfig:
    mode: RunMode
    seed: int
    params: dict
    out: str | None = None

    def to_dict(self) -> dict:
        return {"mode": self.mode.value, "seed": self.seed,
                "params": self.params, "out": self.out}


# -- field types ---------------------------------------------------------------
# ``check(value, path, root)`` returns the cleaned value or raises
# ValidationError naming ``path``.  ``root`` is the enclosing params block as
# cleaned so far, for defaults that copy an earlier field.  A rule is a
# (predicate, message) pair applied to the cleaned value.

def _apply(rules, value, path: str):
    for ok, message in rules:
        if not ok(value):
            raise ValidationError(path, message)
    return value


class _Scalar:
    """One JSON kind: number (stored as float), integer, string, bool, object."""

    def __init__(self, label: str, kinds: tuple, *rules):
        self.label, self.kinds, self.rules = label, kinds, rules

    def check(self, value, path: str, root):
        # JSON booleans parse as Python bools, which are ints; keep them out
        # of numeric fields.
        if not isinstance(value, self.kinds) or (
                isinstance(value, bool) and bool not in self.kinds):
            raise ValidationError(path, f"expected {self.label}, got {type(value).__name__}")
        if self.label == "number":
            try:
                value = float(value)
            except OverflowError:
                raise ValidationError(path, "number out of range") from None
            if not isfinite(value):
                raise ValidationError(path, "must be finite")
        return _apply(self.rules, value, path)


_number = partial(_Scalar, "number", (int, float))
_integer = partial(_Scalar, "integer", (int,))
_string = partial(_Scalar, "string", (str,))
_BOOLEAN = _Scalar("boolean", (bool,))
_OBJECT = _Scalar("object", (dict,))


class _OneOf:
    def __init__(self, *choices: str):
        self.choices = choices

    def check(self, value, path: str, root):
        if not (isinstance(value, str) and value in self.choices):
            raise ValidationError(path, "must be one of " + ", ".join(map(repr, self.choices)))
        return value


class _NullOr:
    def __init__(self, inner):
        self.inner = inner

    def check(self, value, path: str, root):
        return None if value is None else self.inner.check(value, path, root)


class _List:
    """A JSON list: ``item`` checks each entry, ``rules`` the whole list."""

    def __init__(self, item, *rules):
        self.item, self.rules = item, rules

    def check(self, value, path: str, root):
        if not isinstance(value, list):
            raise ValidationError(path, f"expected list, got {type(value).__name__}")
        out = [self.item.check(v, f"{path}[{i}]", root) for i, v in enumerate(value)]
        return _apply(self.rules, out, path)


class _Tags(_List):
    """A list of strings, stored sorted and without repeats."""

    def __init__(self, *rules):
        super().__init__(_string(), *rules)

    def check(self, value, path: str, root):
        return sorted(set(super().check(value, path, root)))


REQUIRED = object()


class _Field(NamedTuple):
    name: str
    type: Any
    # A value, REQUIRED, or a function of the params cleaned so far.
    default: Any = REQUIRED


class _Table:
    """A JSON object with declared fields; null stands for the default."""

    def __init__(self, fields: list[_Field]):
        self.fields = fields
        self.names = {f.name for f in fields}

    def check(self, value, path: str, root=None):
        if not isinstance(value, dict):
            raise ValidationError(path, f"expected object, got {type(value).__name__}")
        unknown = set(value) - self.names
        if unknown:
            raise ValidationError(f"{path}.{sorted(unknown)[0]}", "unknown field")
        out: dict = {}
        root = out if root is None else root
        for f in self.fields:
            given = value.get(f.name)
            if given is None and f.default is not REQUIRED:
                out[f.name] = f.default(root) if callable(f.default) else copy.copy(f.default)
            elif f.name not in value:
                raise ValidationError(f"{path}.{f.name}", "required field missing")
            else:
                out[f.name] = f.type.check(given, f"{path}.{f.name}", root)
        return out


class _Switch:
    """An object whose table is chosen by the value of one of its fields."""

    def __init__(self, key: str, default: str, tables: dict[str, _Table]):
        self.key, self.default, self.tables = key, default, tables

    def check(self, value, path: str, root=None):
        choice = value.get(self.key) if isinstance(value, dict) else None
        choice = self.default if choice is None else choice
        if not (isinstance(choice, str) and choice in self.tables):
            raise ValidationError(f"{path}.{self.key}",
                                  "must be one of " + ", ".join(map(repr, self.tables)))
        return self.tables[choice].check(value, path, root)


# -- per-mode tables -------------------------------------------------------------
# Per-field rules only.  Rules relating several fields are the constructors':
# unique item ids (AcquisitionConfig), aligned utilities and times
# (StationaryBanditEnvironment), weight shapes (FeatureBanditEnvironment),
# tree shape (PlanningState), probabilities summing to 1 (DiscretePrior) and
# the progress grid (RecallMdpConfig).

# Upper bounds on the counts that size a run's trace and arrays.  A trace line
# is the record envelope that ``runner._write_trace`` writes (about 80 bytes
# and two counters) around the payload; over the benchmark's documents a line
# takes 117-558 bytes, so a loop of MAX_RECORDS records, or a recall
# simulation of MAX_RECORDS episodes per drift, writes well under 1 GiB per
# item, drift or arm.  A recall step of the largest grid writes about 35 KB of
# policy JSON, so MAX_HORIZON steps stay under 400 MB.
MAX_RECORDS = 10**6
MAX_HORIZON = 10**4


def _at_most(limit: int):
    return (lambda x: x <= limit, f"must be at most {limit}")


_NONNEG = (lambda x: x >= 0, "must be nonnegative")
_POSITIVE = (lambda x: x > 0, "must be positive")
_AT_LEAST_1 = (lambda x: x >= 1, "must be at least 1")
_RECORD_COUNT = _integer(_AT_LEAST_1, _at_most(MAX_RECORDS))
_UNIT = (lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
_OPEN_UNIT = (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")
_SIGNED_UNIT = (lambda x: -1.0 <= x <= 1.0, "must lie in [-1, 1]")
_NONEMPTY = (bool, "must be non-empty")
_UNIQUE = (lambda xs: len(set(xs)) == len(xs), "must be unique")
_UNIQUE_IDS = (lambda xs: len({x["id"] for x in xs}) == len(xs), "ids must be unique")

_STORE = [
    _Field("access_prob", _number(_UNIT), 1.0),
    _Field("encoding_rate", _number(_UNIT), 1.0),
]

_STRATEGY = _Table([
    _Field("id", _string(_NONEMPTY)),
    _Field("quality", _number(_SIGNED_UNIT)),
    _Field("tags", _Tags(), lambda params: list(params["task_tags"])),
    _Field("successes", _integer(_NONNEG), 0),
    _Field("failures", _integer(_NONNEG), 0),
])

_FLAVELL = _Table([
    _Field("task_tags", _Tags(_NONEMPTY)),
    _Field("success_threshold", _number(_SIGNED_UNIT)),
    _Field("max_cycles", _RECORD_COUNT),
    _Field("strategies", _List(_STRATEGY, _NONEMPTY, _UNIQUE_IDS)),
    _Field("failure_streak_limit", _integer(_AT_LEAST_1), 3),
    _Field("resource_budget", _number(_POSITIVE), None),
    _Field("feel_prob", _number(_UNIT), 0.5),
    _Field("resources_per_cycle", _number(_POSITIVE), 1.0),
    _Field("prune_margin", _integer(_NONNEG), 5),
    *_STORE,
    _Field("completeness", _number(_UNIT), 1.0),
    _Field("noise", _number(_NONNEG), 0.0),
])

_ITEM = _Table([
    _Field("id", _integer()),
    _Field("latent_difficulty", _number(_OPEN_UNIT)),
    _Field("mastery", _number(_UNIT), 0.0),
])

_ACQUIRE = _Table([
    _Field("target_performance", _number(_UNIT)),
    _Field("retention_discount", _number(_NONNEG)),
    _Field("total_resources_per_cycle", _number(_POSITIVE)),
    _Field("max_cycles", _RECORD_COUNT),
    _Field("items", _List(_ITEM, _NONEMPTY)),
    _Field("feel_prob", _number(_UNIT), 0.5),
    _Field("jol_noise_sigma", _number(_NONNEG), 0.05),
    _Field("signal_floor", _number(_POSITIVE), 1e-6),
    _Field("mastery_gain", _number(_POSITIVE), 0.2),
    *_STORE,
])

_CALIBRATION_RECORD = _Table([
    _Field("fok_magnitude", _number(_NONNEG)),
    _Field("confidence", _number(_UNIT)),
    _Field("was_correct", _BOOLEAN),
])

_STORE_ITEM = _Table([
    _Field("id", _string(_NONEMPTY)),
    _Field("category", _OneOf(*(c.value for c in KnowledgeCategory))),
    _Field("tags", _List(_string()), []),
    _Field("features", _List(_number()), []),
    _Field("successes", _integer(_NONNEG), 0),
    _Field("failures", _integer(_NONNEG), 0),
    _Field("calibration_records", _List(_CALIBRATION_RECORD), []),
    _Field("in_stm", _BOOLEAN, False),
])

_RETRIEVE = _Table([
    _Field("query", _Tags(_NONEMPTY)),
    _Field("match_prob", _number(_UNIT)),
    _Field("target", _string(), None),
    _Field("satisficing_rate", _number(_NONNEG), 0.1),
    _Field("default_lambda_fok", _number(_POSITIVE), 0.5),
    _Field("default_lambda_confidence", _number(_OPEN_UNIT), 0.5),
    _Field("max_cycles", _RECORD_COUNT, 25),
    _Field("compound_decay", _BOOLEAN, False),
    _Field("cue_samples", _integer(_AT_LEAST_1), 4),
    _Field("evidence_scale", _number(_POSITIVE), 0.25),
    _Field("min_matches", _integer(_NONNEG), 6),
    _Field("confidence_gain", _number(_POSITIVE), 1.0),
    *_STORE,
    _Field("seed_items", _List(_STORE_ITEM), []),
])

_BANDIT_SHARED = [
    _Field("env", _OneOf("stationary", "feature"), "stationary"),
    _Field("episodes", _RECORD_COUNT),
    _Field("reward_noise", _number(_NONNEG), 0.1),
    _Field("prior_variance", _number(_POSITIVE), 1.0),
    _Field("noise_variance", _number(_POSITIVE), 1.0),
    _Field("gamma_prior", _List(_number(), (lambda g: len(g) == 2 and g[1] > 0,
                                            "must be [pseudo_reward, pseudo_time > 0]")),
           [0.0, 1.0]),
]

_MATRIX = _List(_List(_number(), _NONEMPTY), _NONEMPTY,
                (lambda rows: len({len(r) for r in rows}) == 1, "rows must share a length"))

_BANDIT = _Switch("env", "stationary", {
    "stationary": _Table(_BANDIT_SHARED + [
        _Field("utilities", _List(_number(), _NONEMPTY)),
        _Field("times", _List(_number(_POSITIVE), _NONEMPTY)),
        _Field("time_noise", _number(_NONNEG), 0.0),
    ]),
    "feature": _Table(_BANDIT_SHARED + [
        _Field("utility_weights", _MATRIX),
        _Field("time_weights", _MATRIX),
    ]),
})

_PRIOR = _Table([
    _Field("support", _List(_number(), _NONEMPTY)),
    _Field("probs", _List(_number(_NONNEG), _NONEMPTY)),
])

_PLAN = _Table([
    _Field("parents", _List(_NullOr(_integer(_NONNEG)), _NONEMPTY)),
    _Field("priors", _List(_PRIOR, _NONEMPTY)),
    _Field("expansion_cost", _number(_NONNEG)),
])

_SIMULATE = _Table([
    _Field("drifts", _List(_number(), _NONEMPTY, _UNIQUE)),
    _Field("episodes", _RECORD_COUNT),
    _Field("start", _number(), 0.0),
])

_RECALL = _Table([
    _Field("drift_prior_mean", _number()),
    _Field("drift_prior_variance", _number(_POSITIVE)),
    _Field("evidence_variance", _number(_POSITIVE)),
    _Field("recall_threshold", _number(_POSITIVE)),
    _Field("recall_utility", _number()),
    _Field("search_cost", _number(_NONNEG)),
    _Field("horizon", _integer(_AT_LEAST_1, _at_most(MAX_HORIZON))),
    _Field("z_min", _number(), None),
    _Field("z_step", _number(_POSITIVE), None),
    _Field("simulate", _SIMULATE, None),
])

_DOCUMENT = _Table([
    _Field("mode", _OneOf(*(m.value for m in RunMode))),
    _Field("seed", _integer(_NONNEG)),
    _Field("params", _OBJECT),
    _Field("out", _string(), None),
])


# -- object construction ---------------------------------------------------------
# Document field names match the constructors' argument names, so each object
# takes the params named like its arguments.

@cache
def _arg_names(factory) -> frozenset[str]:
    return frozenset(inspect.signature(factory).parameters)


def _make(factory, params: dict, **given):
    names = _arg_names(factory)
    picked = {k: v for k, v in params.items() if k in names and k not in given}
    return factory(**picked, **given)


@contextmanager
def _within(path: str):
    """Report a ValidationError raised inside as a field under ``path``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc.field}", exc.message) from exc


def _build_flavell(p: dict) -> tuple:
    store = _make(KnowledgeStore, p)
    for s in p["strategies"]:
        store.add(_make(KnowledgeItem, s, category=KnowledgeCategory.STRATEGY,
                        tags=set(s["tags"])))
    env = _make(SyntheticTaskEnvironment, p,
                strategy_quality={s["id"]: s["quality"] for s in p["strategies"]})
    budget = inf if p["resource_budget"] is None else p["resource_budget"]
    goal = _make(GoalSpec, p, resource_budget=budget)
    return set(p["task_tags"]), goal, env, store, _make(FlavellConfig, p)


def _build_acquire(p: dict) -> tuple:
    items = [_make(LearnItem, e) for e in p["items"]]
    return _make(AcquisitionConfig, p, items=items), _make(KnowledgeStore, p)


def _build_retrieve(p: dict) -> tuple:
    store = _make(KnowledgeStore, p)
    for d in p["seed_items"]:
        store.add(KnowledgeItem.from_dict(d), activate=d["in_stm"])
    return (set(p["query"]), store, _make(CueRetrievalEnvironment, p),
            _make(RetrievalConfig, p))


def _build_bandit(p: dict) -> tuple:
    env = _make(StationaryBanditEnvironment if p["env"] == "stationary"
                else FeatureBanditEnvironment, p)
    state = _make(BanditState.create, p, num_strategies=env.num_arms,
                  feature_dim=env.feature_dim, gamma_prior=tuple(p["gamma_prior"]))
    return env, state, p["episodes"]


def _build_plan(p: dict) -> tuple:
    priors = []
    for i, d in enumerate(p["priors"]):
        with _within(f"priors[{i}]"):
            priors.append(DiscretePrior.from_dict(d))
    return make_initial_state(p["parents"], priors), p["expansion_cost"]


def _build_recall(p: dict) -> tuple:
    return (_make(RecallMdpConfig, p),)


_MODES = {
    RunMode.FLAVELL: (_FLAVELL, _build_flavell),
    RunMode.ACQUIRE: (_ACQUIRE, _build_acquire),
    RunMode.RETRIEVE: (_RETRIEVE, _build_retrieve),
    RunMode.BANDIT: (_BANDIT, _build_bandit),
    RunMode.PLAN: (_PLAN, _build_plan),
    RunMode.RECALL_MDP: (_RECALL, _build_recall),
}


def build(mode: RunMode, params: dict) -> tuple:
    """Fresh library objects for one run: the arguments of the mode's solver
    that precede its ``rng``, made from validated params.

    A constructor's cross-field check fails as ``params.<field>``.
    """
    with _within("params"):
        return _MODES[mode][1](params)


def validate_params(mode: RunMode, params) -> dict:
    """Check a mode's params block and return it with defaults filled in.

    The mode's objects are built once, so the rules that relate several
    fields fail here rather than mid-run.
    """
    clean = _MODES[mode][0].check(params, "params")
    build(mode, clean)
    return clean


def validate_config(doc) -> RunConfig:
    """Check a run document and return it with defaults filled in."""
    top = _DOCUMENT.check(doc, "config")
    mode = RunMode(top["mode"])
    return RunConfig(mode=mode, seed=top["seed"],
                     params=validate_params(mode, top["params"]), out=top["out"])


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, raising MissingFile or ParseError."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_document(path: str | Path):
    """Parse a JSON file, raising MissingFile or ParseError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    return validate_config(read_document(path))


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
