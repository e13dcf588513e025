"""Run configuration: loading, validation, object construction.

A run document is ``{"mode": ..., "seed": ..., "params": {...}, "out": ...}``.
Each mode declares its params once, as a table of fields: a name, a JSON type
carrying the field's own range, and a default or "required".  One walker
applies a table: it rejects unknown fields, keeps JSON booleans out of number
fields, stores every number as a float, fills defaults and names the
offending field (``params.priors[3].probs``) in every error.  Rules that
relate several fields live in the library constructors.  ``validate_config``
builds a mode's objects from its validated params once, reporting those rules
by field too, and hands them to the run in ``RunConfig.args``.
"""

from __future__ import annotations

import copy
import inspect
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from math import inf
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from .acquisition import AcquisitionConfig, LearnItem
from .bandit import GAMMA_PRIOR, BanditState
from .envs import (CueRetrievalEnvironment, FeatureBanditEnvironment,
                   StationaryBanditEnvironment, SyntheticTaskEnvironment)
from .errors import (AT_LEAST_1, FINITE, NONEMPTY, NONNEG, OPEN_UNIT, POSITIVE, SIGNED_UNIT,
                     UNIT, MissingFile, ParseError, ValidationError, at_most)
from .flavell import FlavellConfig, GoalSpec
from .knowledge import CalibrationRecord, KnowledgeCategory, KnowledgeItem, KnowledgeStore
from .planning import DiscretePrior, make_initial_state
from . import recall
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
    # The run's objects, built from ``params`` by ``validate_config`` alone.
    args: Callable[[], tuple] = field(kw_only=True, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {"mode": self.mode.value, "seed": self.seed,
                "params": self.params, "out": self.out}


# -- field types ---------------------------------------------------------------
# ``check(value, path, root)`` returns the cleaned value or raises
# ValidationError naming ``path``.  ``root`` is the enclosing params block as
# cleaned so far, for defaults that copy an earlier field.  A rule is a
# (predicate, message) pair applied to the cleaned value; the range rules are
# the ``errors`` objects that the library constructors apply too.

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
            FINITE.check(path, value)
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
# takes 117-558 bytes.  A run holds at most MAX_RECORDS records in all (see
# ``_check_records``), so its trace stays well under 1 GiB; the largest
# benchmark documents hold 4 000.  A recall step of the largest grid writes
# about 35 KB of policy JSON, so MAX_HORIZON steps stay under 400 MB.
MAX_RECORDS = 10**6
MAX_HORIZON = 10**4
# A retrieve glance draws cue_samples features, and attention up to twice as
# many, in one binomial draw whose count numpy takes as an int64; twice this
# bound fits with room to spare.
MAX_CUE_SAMPLES = 10**9


_RECORD_COUNT = _integer(AT_LEAST_1, at_most(MAX_RECORDS))
_UNIQUE = (lambda xs: len(set(xs)) == len(xs), "must be unique")
_UNIQUE_IDS = (lambda xs: len({x["id"] for x in xs}) == len(xs), "ids must be unique")

_STORE = [
    _Field("access_prob", _number(UNIT), 1.0),
    _Field("encoding_rate", _number(UNIT), 1.0),
]

_STRATEGY = _Table([
    _Field("id", _string(NONEMPTY)),
    _Field("quality", _number(SIGNED_UNIT)),
    _Field("tags", _Tags(), lambda params: list(params["task_tags"])),
    _Field("successes", _integer(NONNEG), 0),
    _Field("failures", _integer(NONNEG), 0),
])

_FLAVELL = _Table([
    _Field("task_tags", _Tags(NONEMPTY)),
    _Field("success_threshold", _number(SIGNED_UNIT)),
    _Field("max_cycles", _RECORD_COUNT),
    _Field("strategies", _List(_STRATEGY, NONEMPTY, _UNIQUE_IDS)),
    _Field("failure_streak_limit", _integer(AT_LEAST_1), 3),
    _Field("resource_budget", _number(POSITIVE), None),
    _Field("feel_prob", _number(UNIT), 0.5),
    _Field("resources_per_cycle", _number(POSITIVE), 1.0),
    _Field("prune_margin", _integer(NONNEG), 5),
    *_STORE,
    _Field("completeness", _number(UNIT), 1.0),
    _Field("noise", _number(NONNEG), 0.0),
])

_ITEM = _Table([
    _Field("id", _integer()),
    _Field("latent_difficulty", _number(OPEN_UNIT)),
    _Field("mastery", _number(UNIT), 0.0),
])

_ACQUIRE = _Table([
    _Field("target_performance", _number(UNIT)),
    _Field("retention_discount", _number(NONNEG)),
    _Field("total_resources_per_cycle", _number(POSITIVE)),
    _Field("max_cycles", _RECORD_COUNT),
    _Field("items", _List(_ITEM, NONEMPTY)),
    _Field("feel_prob", _number(UNIT), 0.5),
    _Field("jol_noise_sigma", _number(NONNEG), 0.05),
    _Field("signal_floor", _number(POSITIVE), 1e-6),
    _Field("mastery_gain", _number(POSITIVE), 0.2),
    *_STORE,
])

_CALIBRATION_RECORD = _Table([
    _Field("fok_magnitude", _number(NONNEG)),
    _Field("confidence", _number(UNIT)),
    _Field("was_correct", _BOOLEAN),
])

_STORE_ITEM = _Table([
    _Field("id", _string(NONEMPTY)),
    _Field("category", _OneOf(*(c.value for c in KnowledgeCategory))),
    _Field("tags", _List(_string()), []),
    _Field("features", _List(_number()), []),
    _Field("successes", _integer(NONNEG), 0),
    _Field("failures", _integer(NONNEG), 0),
    _Field("calibration_records", _List(_CALIBRATION_RECORD), []),
    _Field("in_stm", _BOOLEAN, False),
])

_RETRIEVE = _Table([
    _Field("query", _Tags(NONEMPTY)),
    _Field("match_prob", _number(UNIT)),
    _Field("target", _string(), None),
    _Field("satisficing_rate", _number(NONNEG), 0.1),
    _Field("default_lambda_fok", _number(POSITIVE), 0.5),
    _Field("default_lambda_confidence", _number(OPEN_UNIT), 0.5),
    _Field("max_cycles", _RECORD_COUNT, 25),
    _Field("compound_decay", _BOOLEAN, False),
    _Field("cue_samples", _integer(AT_LEAST_1, at_most(MAX_CUE_SAMPLES)), 4),
    _Field("evidence_scale", _number(POSITIVE), 0.25),
    _Field("min_matches", _integer(NONNEG), 6),
    _Field("confidence_gain", _number(POSITIVE), 1.0),
    *_STORE,
    _Field("seed_items", _List(_STORE_ITEM), []),
])

_BANDIT_SHARED = [
    _Field("env", _OneOf("stationary", "feature"), "stationary"),
    _Field("episodes", _RECORD_COUNT),
    _Field("reward_noise", _number(NONNEG), 0.1),
    _Field("prior_variance", _number(POSITIVE), 1.0),
    _Field("noise_variance", _number(POSITIVE), 1.0),
    _Field("gamma_prior", _List(_number(), GAMMA_PRIOR), [0.0, 1.0]),
]

_MATRIX = _List(_List(_number(), NONEMPTY), NONEMPTY,
                (lambda rows: len({len(r) for r in rows}) == 1, "rows must share a length"))

_BANDIT = _Switch("env", "stationary", {
    "stationary": _Table(_BANDIT_SHARED + [
        _Field("utilities", _List(_number(), NONEMPTY)),
        _Field("times", _List(_number(POSITIVE), NONEMPTY)),
        _Field("time_noise", _number(NONNEG), 0.0),
    ]),
    "feature": _Table(_BANDIT_SHARED + [
        _Field("utility_weights", _MATRIX),
        _Field("time_weights", _MATRIX),
    ]),
})

_PRIOR = _Table([
    _Field("support", _List(_number(), NONEMPTY)),
    _Field("probs", _List(_number(NONNEG), NONEMPTY)),
])

_PLAN = _Table([
    _Field("parents", _List(_NullOr(_integer(NONNEG)), NONEMPTY)),
    _Field("priors", _List(_PRIOR, NONEMPTY)),
    _Field("expansion_cost", _number(NONNEG)),
])

_SIMULATE = _Table([
    _Field("drifts", _List(_number(), NONEMPTY, _UNIQUE)),
    _Field("episodes", _RECORD_COUNT),
    _Field("start", _number(), 0.0),
])

_RECALL = _Table([
    _Field("drift_prior_mean", _number()),
    _Field("drift_prior_variance", _number(POSITIVE)),
    _Field("evidence_variance", _number(POSITIVE)),
    _Field("recall_threshold", _number(POSITIVE)),
    _Field("recall_utility", _number()),
    _Field("search_cost", _number(NONNEG)),
    _Field("horizon", _integer(AT_LEAST_1, at_most(MAX_HORIZON))),
    _Field("z_min", _number(), None),
    _Field("z_step", _number(POSITIVE), None),
    _Field("simulate", _SIMULATE, None),
])

_DOCUMENT = _Table([
    _Field("mode", _OneOf(*(m.value for m in RunMode))),
    _Field("seed", _integer(NONNEG)),
    _Field("params", _OBJECT),
    _Field("out", _string(NONEMPTY), None),
])


# -- object construction ---------------------------------------------------------
# Document field names match the constructors' argument names, so each object
# takes the params named like its arguments.  Each builder makes the objects a
# run only reads, once, and returns a function that makes fresh the objects a
# run mutates and returns the solver's arguments that precede its ``rng``.

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


def _build_flavell(p: dict) -> Callable[[], tuple]:
    env = _make(SyntheticTaskEnvironment, p,
                strategy_quality={s["id"]: s["quality"] for s in p["strategies"]})
    budget = inf if p["resource_budget"] is None else p["resource_budget"]
    goal = _make(GoalSpec, p, resource_budget=budget)
    flavell_config = _make(FlavellConfig, p)

    def args() -> tuple:
        store = _make(KnowledgeStore, p)
        for s in p["strategies"]:
            store.add(_make(KnowledgeItem, s, category=KnowledgeCategory.STRATEGY,
                            tags=set(s["tags"])))
        return set(p["task_tags"]), goal, env, store, flavell_config
    return args


def _build_acquire(p: dict) -> Callable[[], tuple]:
    items = [_make(LearnItem, e) for e in p["items"]]
    acquisition_config = _make(AcquisitionConfig, p, items=items)
    return lambda: (acquisition_config, _make(KnowledgeStore, p))


def _build_retrieve(p: dict) -> Callable[[], tuple]:
    retrieval_config = _make(RetrievalConfig, p)

    def args() -> tuple:
        store = _make(KnowledgeStore, p)
        for d in p["seed_items"]:
            records = [_make(CalibrationRecord, r) for r in d["calibration_records"]]
            store.add(_make(KnowledgeItem, d, category=KnowledgeCategory(d["category"]),
                            tags=set(d["tags"]), features=tuple(d["features"]),
                            calibration_records=records), activate=d["in_stm"])
        return set(p["query"]), store, _make(CueRetrievalEnvironment, p), retrieval_config
    return args


def _build_bandit(p: dict) -> Callable[[], tuple]:
    env = _make(StationaryBanditEnvironment if p["env"] == "stationary"
                else FeatureBanditEnvironment, p)
    state = partial(_make, BanditState, p, num_strategies=env.num_arms,
                    feature_dim=env.feature_dim, gamma_prior=tuple(p["gamma_prior"]))
    return lambda: (env, state(), p["episodes"])


def _build_plan(p: dict) -> Callable[[], tuple]:
    priors = []
    for i, d in enumerate(p["priors"]):
        with _within(f"priors[{i}]"):
            priors.append(DiscretePrior(tuple(d["support"]), tuple(d["probs"])))
    state = make_initial_state(p["parents"], priors)  # the planner expands a copy
    return lambda: (state, p["expansion_cost"])


def _solve_recall(mdp: recall.RecallMdpConfig) -> tuple:
    policy = recall.solve_recall_mdp(mdp)
    return mdp, policy, recall.stopping_threshold(policy)


def _build_recall(p: dict) -> Callable[[], tuple]:
    # Solved on the first call, not in validation, and kept for every repeat.
    return cache(partial(_solve_recall, _make(recall.RecallMdpConfig, p)))


_MODES = {
    RunMode.FLAVELL: (_FLAVELL, _build_flavell),
    RunMode.ACQUIRE: (_ACQUIRE, _build_acquire),
    RunMode.RETRIEVE: (_RETRIEVE, _build_retrieve),
    RunMode.BANDIT: (_BANDIT, _build_bandit),
    RunMode.PLAN: (_PLAN, _build_plan),
    RunMode.RECALL_MDP: (_RECALL, _build_recall),
}


def _check_records(mode: RunMode, p: dict) -> None:
    """Bound the records a run holds, over all its items, arms and drifts, by
    MAX_RECORDS, naming the count that tips it: acquire's ``max_cycles`` for
    each item, a bandit's ``episodes`` for each arm or feature, whichever are
    more (a record holds a score per arm and the features), recall's
    ``simulate.episodes`` for each drift.  A flavell or retrieve run holds a
    record per cycle, and a plan run one per node at most, so their own
    bounds already hold."""
    if mode is RunMode.ACQUIRE:
        path, count, per, unit = "max_cycles", p["max_cycles"], len(p["items"]), "items"
    elif mode is RunMode.BANDIT:
        shape = ((len(p["utilities"]), 1) if p["env"] == "stationary"
                 else (len(p["utility_weights"]), len(p["utility_weights"][0])))
        path, count, per, unit = "episodes", p["episodes"], max(shape), "arms or features"
    elif mode is RunMode.RECALL_MDP and p["simulate"] is not None:
        sim = p["simulate"]
        path, count, per, unit = "simulate.episodes", sim["episodes"], len(sim["drifts"]), "drifts"
    else:
        return
    if count * per > MAX_RECORDS:
        raise ValidationError(f"params.{path}", f"with {per} {unit} makes {count * per} "
                                                f"records, more than {MAX_RECORDS}")


def validate_config(doc) -> RunConfig:
    """Check a run document and return it with defaults filled in and its
    mode's objects built, once, into ``args``.  The records a run would hold
    are bounded before anything is built; a rule relating several fields
    fails as ``params.<field>``."""
    top = _DOCUMENT.check(doc, "config")
    mode = RunMode(top["mode"])
    params = _MODES[mode][0].check(top["params"], "params")
    _check_records(mode, params)
    with _within("params"):
        args = _MODES[mode][1](params)
    return RunConfig(mode=mode, seed=top["seed"], params=params, out=top["out"], args=args)


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


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` as UTF-8; every file mgv writes goes here.

    The file is overwritten in place, not opened with ``O_TRUNC``: on ext4,
    truncating an existing file at open, and the flush that arms for
    ``close``, cost far more than a small write.  A regular file is then cut
    where the writing ended; a FIFO or device (``/dev/null`` seeks but cannot
    be truncated) is only written.  New files get mode 0o666 under the umask,
    and a symlink is written through.  If writing raises, the regular file
    (a symlink's target, not the link) is removed, or emptied when it cannot
    be removed, so no failure leaves new bytes ahead of an older file's tail.
    The exception that writing raised is the one that propagates; an error of
    the clean-up is added to it as a note.
    """
    f = open(path, "w", encoding="utf-8",
             opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666))
    regular = False
    try:
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
        f.writelines(chunks)
        if regular:
            f.truncate()
    except BaseException as exc:
        _clean_up(exc, f.close)
        if regular:
            target = os.path.realpath(path)
            if not _clean_up(exc, os.unlink, target):
                _clean_up(exc, os.truncate, target, 0)
        raise
    f.close()


def _clean_up(exc: BaseException, action, *args) -> bool:
    """Call ``action(*args)`` while ``exc`` propagates; an ``OSError`` from it
    becomes a note on ``exc`` (Python 3.11 and later) instead of replacing it.
    Returns whether the action succeeded."""
    try:
        action(*args)
    except OSError as err:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while cleaning up: {err!r}")
        return False
    return True
