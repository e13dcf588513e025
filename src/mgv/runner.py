"""Run orchestration: named random substreams, JSONL traces, summaries, reports.

Every run derives its generator from the user seed plus a stream name, so
adding a new consumer never shifts the draws of an existing one.  Trace files
hold one canonical-JSON record per line; ``timestamp`` is a logical sequence
number, not wall time, so traces for a given (config, seed) are byte-identical
across machines and reruns.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from functools import lru_cache, partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import acquisition, bandit, flavell, planning, recall, retrieval
from .config import MAX_HORIZON, RunConfig, RunMode, _clean_up, read_text, write_text
from .errors import NONEMPTY, NONNEG, NonFiniteOutput, ParseError, ValidationError, at_most
from .experience import ExperienceTuple
from .floats import fold_sum


# One encoder for every trace line and run id; ``json.dumps`` with options
# would build a new one per call.  NaN and infinities raise ValueError.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  allow_nan=False).encode
# A recall episode in a trace takes 0 to MAX_HORIZON steps.
_AT_MOST_HORIZON = at_most(MAX_HORIZON)


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named consumer under one user seed."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def run_id_for(config: RunConfig) -> str:
    """Stable 12-hex id of the experiment: mode, seed, and params.

    The output path is deliberately left out so moving a run's files never
    changes its identity or its trace bytes.
    """
    doc = config.to_dict()
    doc.pop("out", None)
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:12]


def _trace_lines(run_id: str, mode: str, payloads: list, encode=canonical_json):
    """One line per payload: ``canonical_json`` of the record envelope.

    The envelope's sorted keys are always cycle, module, payload, run_id,
    timestamp, so only ``encode(payload)`` changes from line to line.
    """
    module = canonical_json(mode)
    tail = f',"run_id":{canonical_json(run_id)},"timestamp":'
    for i, payload in enumerate(payloads):
        try:
            body = encode(payload)
        except ValueError:
            raise NonFiniteOutput(f"trace record {i}: holds NaN or Infinity") from None
        yield f'{{"cycle":{i},"module":{module},"payload":{body}{tail}{i}}}\n'


def _write_trace(path: str | Path, run_id: str, mode: str, payloads: list,
                 encode=canonical_json) -> None:
    # Streamed line by line, so memory stays flat however long the trace.  Any
    # exception while it streams removes the partial file (see ``write_text``).
    write_text(path, _trace_lines(run_id, mode, payloads, encode))


def summary_path_for(trace_path: str | Path) -> Path:
    p = Path(trace_path)
    return p.with_name(p.stem + ".summary.json")


# One formula per run total, shared by the summaries and ``report``.

def _resources_spent(resources) -> float:
    return fold_sum(resources)


def _cumulative_regret(payloads: list[dict]) -> float:
    return fold_sum(p["true_voc_best"] - p["true_voc_chosen"] for p in payloads)


def _drift_stats(result: recall.RecallSimResult) -> dict:
    return {"recall_rate": result.recall_rate,
            "mean_recall_time": result.mean_recall_time(),
            "mean_giveup_time": result.mean_giveup_time()}


def _run_flavell(config: RunConfig, rng) -> tuple[list[ExperienceTuple], dict, dict]:
    state, trace = flavell.run_cycle(*config.args(), rng)
    summary = {
        "status": state.status.value,
        "abandon_reason": state.abandon_reason.value if state.abandon_reason else None,
        "cycles": state.cycle,
        "resources_spent": state.resources_spent(),
        "final_outcome": trace[-1].outcome_quality if trace else None,
    }
    return trace, summary, {}


def _run_acquire(config: RunConfig, rng) -> tuple[list[ExperienceTuple], dict, dict]:
    state, trace = acquisition.run_acquisition(*config.args(), rng)
    summary = {
        "status": "finished" if state.finished else "unfinished",
        "cycles": state.cycle,
        "norm_of_study": state.norm_of_study,
        "remaining_items": sorted(state.active_items),
        "jols": {str(k): v for k, v in sorted(state.jols.items())},
        "resources_spent": _resources_spent(t.resources for t in trace),
    }
    return trace, summary, {}


def _run_retrieve(config: RunConfig, rng) -> tuple[list[ExperienceTuple], dict, dict]:
    result, trace = retrieval.run_retrieval(*config.args(), rng)
    summary = {"status": result.decision, **result.to_dict()}
    summary["resources_spent"] = _resources_spent(t.resources for t in trace)
    return trace, summary, {}


def _run_bandit(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    env, state, episodes = config.args()
    records = bandit.run_bandit_episodes(env, state, episodes, rng)
    pulls = [0] * env.num_arms
    for r in records:
        pulls[r["chosen"]] += 1
    summary = {
        "status": "finished",
        "episodes": len(records),
        "pulls": pulls,
        "cumulative_regret": _cumulative_regret(records),
        "gamma": state.gamma,
        "cumulative_reward": state.cumulative_reward,
        "cumulative_time": state.cumulative_time,
    }
    return records, summary, {}


def _run_plan(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    state, expansion_cost = config.args()
    result = planning.run_myopic_planner(state, expansion_cost, rng)
    payloads = [{"step": i, "node": node, "revealed_value": value}
                for i, (node, value) in enumerate(result.expansions)]
    summary = {
        "status": "finished",
        "expansions": result.num_expansions,
        "plan_value": planning.plan_value(result.state),
        "net_reward": result.net_reward,
        "expansion_cost": expansion_cost,
    }
    return payloads, summary, {}


def _run_recall(config: RunConfig, rng) -> tuple[list[str], dict, dict]:
    mdp, policy, thresholds = config.args()
    # Each episode is kept as its encoded payload: strings are not tracked by
    # the cyclic garbage collector, so thousands of rows trigger no collection.
    rows: list[str] = []
    by_drift = {}
    sim = config.params["simulate"]
    if sim is not None:
        for drift in sim["drifts"]:
            result = recall.simulate_recall(policy, mdp, drift, sim["episodes"],
                                            rng, start=sim["start"])
            by_drift[str(drift)] = _drift_stats(result)
            rows += map(_recall_episode, repeat(canonical_json(drift)),
                        range(sim["episodes"]), result.recalled.tolist(),
                        result.steps.tolist())
    summary = {
        "status": "finished",
        "horizon": mdp.horizon,
        "grid_cells": int(policy.z_values.size),
        "stopping_threshold": {str(t): thresholds[t] for t in sorted(thresholds)},
        "simulated": by_drift or None,
    }

    # Serialised only when asked for, so a plain run never pays for them.
    def threshold_csv() -> str:
        lines = ["t,threshold"]
        lines += [f"{t},{'' if thresholds[t] is None else repr(thresholds[t])}"
                  for t in sorted(thresholds)]
        return "\n".join(lines) + "\n"

    artifacts = {
        "policy": lambda: json.dumps(policy.to_dict(), sort_keys=True, indent=2,
                                     allow_nan=False) + "\n",
        "threshold": threshold_csv,
    }
    return rows, summary, artifacts


def _recall_episode(drift: str, episode: int, recalled: bool, steps: int) -> str:
    """A recall episode (encoded drift, episode, recalled, steps) as the
    payload ``canonical_json`` would write for it."""
    return (f'{{"drift":{drift},"episode":{episode},'
            f'"recalled":{"true" if recalled else "false"},"steps":{steps}}}')


def _finite_repr(x: float) -> str:
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    raise ValueError(f"{x!r} is not a JSON number")


# ``canonical_json`` of a record field, by the field's exact type.  Any other
# type (bool, numpy scalars, str subclasses, ...) takes the encoder itself.
# Strategy ids and modes repeat from record to record, so each distinct
# string is encoded once.
_FIELD_ENCODERS = {float: _finite_repr, int: int.__repr__, type(None): lambda _: "null",
                   str: lru_cache(maxsize=1024)(canonical_json)}


def _experience_record(t: ExperienceTuple) -> str:
    """A control-loop record as ``canonical_json(t.to_dict())`` writes it:
    sorted keys, ``confidence`` and ``fok`` left out when None."""
    get, other = _FIELD_ENCODERS.get, canonical_json
    e, fok, confidence = t.experience, t.fok, t.confidence
    head = "{" if confidence is None else (
        f'{{"confidence":{get(type(confidence), other)(confidence)},')
    counters = "" if fok is None else (
        f'"fok":{{"minus":{get(type(fok.minus), other)(fok.minus)},'
        f'"plus":{get(type(fok.plus), other)(fok.plus)}}},')
    mode, primary, secondary = e.mode.value, e.primary, e.secondary
    cycle, quality, resources, sid = t.cycle, t.outcome_quality, t.resources, t.strategy_id
    return (f'{head}"cycle":{get(type(cycle), other)(cycle)},'
            f'"experience":{{"mode":{get(type(mode), other)(mode)},'
            f'"primary":{get(type(primary), other)(primary)},'
            f'"secondary":{get(type(secondary), other)(secondary)}}},{counters}'
            f'"outcome_quality":{get(type(quality), other)(quality)},'
            f'"resources":{get(type(resources), other)(resources)},'
            f'"strategy_id":{get(type(sid), other)(sid)}}}')


# Each mode's runner, and the encoder of the payloads it returns.
_RUNNERS = {
    RunMode.FLAVELL: (_run_flavell, _experience_record),
    RunMode.ACQUIRE: (_run_acquire, _experience_record),
    RunMode.RETRIEVE: (_run_retrieve, _experience_record),
    RunMode.BANDIT: (_run_bandit, canonical_json),
    RunMode.PLAN: (_run_plan, canonical_json),
    RunMode.RECALL_MDP: (_run_recall, str),
}


def run(config: RunConfig, emit_policy: str | None = None,
        emit_threshold: str | None = None, stream_name: str | None = None) -> dict:
    """Execute one run: solve/simulate, write the trace, return the summary.

    The trace goes to ``config.out`` when set.  ``emit_policy`` and
    ``emit_threshold`` only apply to the stopping-problem mode and write the
    solved policy table (JSON) and per-step thresholds (CSV).  ``stream_name``
    overrides the substream label (used by repeat fan-out).  A NaN or
    infinity in a summary key or trace record raises NonFiniteOutput naming
    it, with or without ``out``, and leaves no trace or summary file.
    """
    for name, path in (("emit_policy", emit_policy), ("emit_threshold", emit_threshold)):
        if path is not None:
            NONEMPTY.check(name, path)
    rng = substream(config.seed, stream_name or config.mode.value)
    run_id = run_id_for(config)
    runner, encode = _RUNNERS[config.mode]
    payloads, summary, artifacts = runner(config, rng)
    summary = {"run_id": run_id, "mode": config.mode.value, "seed": config.seed,
               **summary}
    for key in sorted(summary):
        try:
            canonical_json(summary[key])
        except ValueError:
            raise NonFiniteOutput(f"summary.{key}: holds NaN or Infinity") from None
    if config.out is not None:
        try:
            _write_trace(config.out, run_id, config.mode.value, payloads, encode)
        except BaseException as exc:
            # An older run's summary must not outlive the trace it described.
            _clean_up(exc, partial(summary_path_for(config.out).unlink, missing_ok=True))
            raise
        write_text(summary_path_for(config.out),
                   (json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n",))
    else:
        for _ in _trace_lines(run_id, config.mode.value, payloads, encode):
            pass
    for name, path in (("policy", emit_policy), ("threshold", emit_threshold)):
        if path is not None and name in artifacts:
            write_text(path, (artifacts[name](),))
    return summary


def _suffixed(path: str | None, i: int) -> str | None:
    if not path:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{i}{p.suffix}"))


def run_repeated(config: RunConfig, repeat: int,
                 emit_policy: str | None = None,
                 emit_threshold: str | None = None) -> list[dict]:
    """Fan a run out over independent substreams.

    Repeat i runs under stream name ``<mode>/<i>`` with its output files
    suffixed ``.<i>`` before the extension; a single repeat runs the plain
    stream with paths unchanged.  Several repeats need an ``out`` with an
    extension: ``t.0`` and ``t.1`` would share the summary ``t.summary.json``.
    """
    if repeat < 1:
        raise ValidationError("repeat", "must be at least 1")
    if repeat > 1 and config.out and not Path(config.out).suffix:
        raise ValidationError("out", "needs an extension when repeat is more than 1, "
                                     "so each repeat gets its own summary")
    if repeat == 1:
        return [run(config, emit_policy, emit_threshold)]
    summaries = []
    for i in range(repeat):
        sub = replace(config, out=_suffixed(config.out, i))
        summary = run(sub, _suffixed(emit_policy, i), _suffixed(emit_threshold, i),
                      stream_name=f"{config.mode.value}/{i}")
        summary["repeat_index"] = i
        summaries.append(summary)
    return summaries


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_number(text: str, parse=float):
    if not math.isfinite(float(text)):
        raise ValueError(f"{text} overflows a float")
    return parse(text)


def _strict_json(text: str, where: str):
    """Parse JSON whose numbers all fit a float; ParseError names ``where``."""
    try:
        return json.loads(text, parse_constant=_no_constant, parse_float=_finite_number,
                          parse_int=partial(_finite_number, parse=int))
    except ValueError as exc:  # JSONDecodeError is one
        raise ParseError(f"{where}: {exc}") from exc


def _read_trace(path: str | Path) -> list[dict]:
    """The trace's records; every one must carry the first one's run_id and
    module, so lines spliced in from another run are a ParseError."""
    records = []
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        record = _strict_json(line, f"{path}:{line_no}")
        if not (isinstance(record, dict)
                and all(isinstance(record.get(key), str) for key in ("run_id", "module"))):
            raise ParseError(f"{path}:{line_no}: not a record with string run_id and module")
        if records:
            for key in ("run_id", "module"):
                if record[key] != records[0][key]:
                    raise ParseError(f"{path}:{line_no}: {key} {record[key]!r} differs "
                                     f"from the first record's {records[0][key]!r}")
        records.append(record)
    return records


# Each mode's summary field that counts its trace records, and its value when
# the trace is empty.
_NO_RECORDS = {"flavell": ("cycles", 0), "acquire": ("cycles", 0),
               "retrieve": ("cycles", 0), "bandit": ("episodes", 0),
               "plan": ("expansions", 0), "recall_mdp": ("simulated", None)}


def _check_empty_trace_summary(sp: Path, summary: dict) -> None:
    """An empty trace's summary must name its run and mode and count no records."""
    mode = summary.get("mode")
    if not (isinstance(mode, str) and mode in _NO_RECORDS):
        raise ParseError(f"{sp}: mode {mode!r} is not a run mode")
    if not isinstance(summary.get("run_id"), str):
        raise ParseError(f"{sp}: run_id {summary.get('run_id')!r} is not a string")
    field, none = _NO_RECORDS[mode]
    value = summary.get(field, "missing")
    if type(value) is not type(none) or value != none:
        raise ParseError(f"{sp}: {field} {value!r} is not {canonical_json(none)}, "
                         f"but the trace is empty")


def _metrics_for(path: Path, records: list[dict]) -> dict:
    module = records[0]["module"] if records else "unknown"
    run_id = records[0]["run_id"] if records else "-"
    metrics = {"trace": str(path), "run_id": run_id, "module": module,
               "records": len(records), "status": "unknown",
               "resources_spent": None, "extra": {}}
    sp = summary_path_for(path)
    if sp.exists():
        summary = _strict_json(read_text(sp), str(sp))
        if not (isinstance(summary, dict) and isinstance(summary.get("status", ""), str)):
            raise ParseError(f"{sp}: not an object with a string status")
        if records:
            for key, value in (("run_id", run_id), ("mode", module)):
                if summary.get(key) != value:
                    raise ParseError(f"{sp}: {key} {summary.get(key)!r} is not the "
                                     f"trace's {value!r}")
        else:
            _check_empty_trace_summary(sp, summary)
            module = metrics["module"] = summary["mode"]
            metrics["run_id"] = summary["run_id"]
        metrics["status"] = summary.get("status", "unknown")
    try:
        payloads = [r["payload"] for r in records]
        if module in ("flavell", "acquire", "retrieve"):
            metrics["resources_spent"] = _resources_spent(p["resources"] for p in payloads)
            metrics["extra"]["cycles"] = max((p["cycle"] for p in payloads), default=-1) + 1
        elif module == "bandit":
            metrics["extra"]["cumulative_regret"] = _cumulative_regret(payloads)
            if payloads:
                metrics["extra"]["final_gamma"] = payloads[-1]["gamma"]
        elif module == "recall_mdp":
            drifts: dict[float, list[dict]] = {}
            for p in payloads:
                steps, recalled = p["steps"], p["recalled"]
                if type(steps) is not int or type(recalled) is not bool:
                    raise TypeError(f"want int steps, bool recalled; got {steps!r}, {recalled!r}")
                _AT_MOST_HORIZON.check("steps", NONNEG.check("steps", steps))
                drifts.setdefault(p["drift"], []).append(p)
            per_drift = {}
            for drift in sorted(drifts):
                eps = drifts[drift]
                result = recall.RecallSimResult(
                    drift, np.array([e["recalled"] for e in eps]),
                    np.array([e["steps"] for e in eps]))
                per_drift[str(drift)] = {"episodes": len(eps), **_drift_stats(result)}
            metrics["extra"]["by_drift"] = per_drift
        elif module == "plan":
            metrics["extra"]["expansions"] = len(payloads)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {module} payloads do not fit: "
                         f"{type(exc).__name__}: {exc}") from exc
    for name, total in (("resources_spent", metrics["resources_spent"]),
                        ("cumulative_regret", metrics["extra"].get("cumulative_regret"))):
        if isinstance(total, float) and not math.isfinite(total):
            raise ParseError(f"{path}: {name} is {total}, not a finite number")
    return metrics


def report(trace_paths: list[str | Path]) -> tuple[dict, str]:
    """Per-run metrics for a set of traces, as a dict and an aligned table."""
    runs = [_metrics_for(Path(p), _read_trace(p)) for p in trace_paths]
    header = ["run_id", "module", "records", "status", "resources"]
    rows = [header]
    for m in runs:
        spent = m["resources_spent"]
        rows.append([m["run_id"], m["module"], str(m["records"]), m["status"],
                     "-" if spent is None else f"{spent:.3f}"])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return {"runs": runs}, "\n".join(lines)
