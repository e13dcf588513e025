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
from itertools import repeat
from pathlib import Path

import numpy as np

from . import acquisition, bandit, flavell, planning, recall, retrieval
from .config import RunConfig, RunMode, build, read_document, read_text
from .errors import ParseError, ValidationError


# One encoder for every trace line and run id; ``json.dumps`` with options
# would build a new one per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def _write_trace(path: str | Path, run_id: str, mode: str, payloads: list,
                 encode=canonical_json) -> None:
    """One line per payload: ``canonical_json`` of the record envelope.

    The envelope's sorted keys are always cycle, module, payload, run_id,
    timestamp, so only ``encode(payload)`` changes from line to line.
    """
    module = canonical_json(mode)
    tail = f',"run_id":{canonical_json(run_id)},"timestamp":'
    Path(path).write_text("".join(
        f'{{"cycle":{i},"module":{module},"payload":{encode(payload)}{tail}{i}}}\n'
        for i, payload in enumerate(payloads)))


def summary_path_for(trace_path: str | Path) -> Path:
    p = Path(trace_path)
    return p.with_name(p.stem + ".summary.json")


def _run_flavell(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    state, trace = flavell.run_cycle(*build(config.mode, config.params), rng)
    payloads = [t.to_dict() for t in trace]
    summary = {
        "status": state.status.value,
        "abandon_reason": state.abandon_reason.value if state.abandon_reason else None,
        "cycles": state.cycle,
        "resources_spent": state.resources_spent(),
        "final_outcome": trace[-1].outcome_quality if trace else None,
    }
    return payloads, summary, {}


def _run_acquire(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    state, trace = acquisition.run_acquisition(*build(config.mode, config.params), rng)
    payloads = [t.to_dict() for t in trace]
    summary = {
        "status": "finished" if state.finished else "unfinished",
        "cycles": state.cycle,
        "norm_of_study": state.norm_of_study,
        "remaining_items": sorted(state.active_items),
        "jols": {str(k): v for k, v in sorted(state.jols.items())},
        "resources_spent": sum(t.resources for t in trace),
    }
    return payloads, summary, {}


def _run_retrieve(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    result, trace = retrieval.run_retrieval(*build(config.mode, config.params), rng)
    payloads = [t.to_dict() for t in trace]
    summary = {"status": result.decision, **result.to_dict()}
    summary["resources_spent"] = sum(t.resources for t in trace)
    return payloads, summary, {}


def _run_bandit(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    env, state, episodes = build(config.mode, config.params)
    records = bandit.run_bandit_episodes(env, state, episodes, rng)
    pulls = [0] * env.num_arms
    regret = 0.0
    for r in records:
        pulls[r["chosen"]] += 1
        regret += r["true_voc_best"] - r["true_voc_chosen"]
    summary = {
        "status": "finished",
        "episodes": len(records),
        "pulls": pulls,
        "cumulative_regret": regret,
        "gamma": state.gamma,
        "cumulative_reward": state.cumulative_reward,
        "cumulative_time": state.cumulative_time,
    }
    return records, summary, {}


def _run_plan(config: RunConfig, rng) -> tuple[list[dict], dict, dict]:
    state, expansion_cost = build(config.mode, config.params)
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


def _run_recall(config: RunConfig, rng) -> tuple[list[tuple], dict, dict]:
    (mdp,) = build(config.mode, config.params)
    policy = recall.solve_recall_mdp(mdp)
    thresholds = recall.stopping_threshold(policy)
    rows: list[tuple] = []
    by_drift = {}
    sim = config.params["simulate"]
    if sim is not None:
        for drift in sim["drifts"]:
            result = recall.simulate_recall(policy, mdp, drift, sim["episodes"],
                                            rng, start=sim["start"])
            by_drift[str(drift)] = {
                "recall_rate": result.recall_rate,
                "mean_recall_time": result.mean_recall_time(),
                "mean_giveup_time": result.mean_giveup_time(),
            }
            rows += zip(repeat(canonical_json(drift)), range(sim["episodes"]),
                        result.recalled.tolist(), result.steps.tolist())
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
        "policy": lambda: json.dumps(policy.to_dict(), sort_keys=True, indent=2) + "\n",
        "threshold": threshold_csv,
    }
    return rows, summary, artifacts


def _recall_episode(row: tuple) -> str:
    """A recall episode row (encoded drift, episode, recalled, steps) as the
    payload ``canonical_json`` would write for it."""
    drift, episode, recalled, steps = row
    return (f'{{"drift":{drift},"episode":{episode},'
            f'"recalled":{"true" if recalled else "false"},"steps":{steps}}}')


# Each mode's runner, and the encoder of the payloads it returns.
_RUNNERS = {
    RunMode.FLAVELL: (_run_flavell, canonical_json),
    RunMode.ACQUIRE: (_run_acquire, canonical_json),
    RunMode.RETRIEVE: (_run_retrieve, canonical_json),
    RunMode.BANDIT: (_run_bandit, canonical_json),
    RunMode.PLAN: (_run_plan, canonical_json),
    RunMode.RECALL_MDP: (_run_recall, _recall_episode),
}


def run(config: RunConfig, emit_policy: str | None = None,
        emit_threshold: str | None = None, stream_name: str | None = None) -> dict:
    """Execute one run: solve/simulate, write the trace, return the summary.

    The trace goes to ``config.out`` when set.  ``emit_policy`` and
    ``emit_threshold`` only apply to the stopping-problem mode and write the
    solved policy table (JSON) and per-step thresholds (CSV).  ``stream_name``
    overrides the substream label (used by repeat fan-out).
    """
    rng = substream(config.seed, stream_name or config.mode.value)
    run_id = run_id_for(config)
    runner, encode = _RUNNERS[config.mode]
    payloads, summary, artifacts = runner(config, rng)
    for name, path in (("policy", emit_policy), ("threshold", emit_threshold)):
        if path and name in artifacts:
            Path(path).write_text(artifacts[name]())
    summary = {"run_id": run_id, "mode": config.mode.value, "seed": config.seed,
               **summary}
    if config.out:
        _write_trace(config.out, run_id, config.mode.value, payloads, encode)
        summary_path_for(config.out).write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
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
    suffixed ``.<i>``; a single repeat runs the plain stream with paths
    unchanged.
    """
    if repeat < 1:
        raise ValidationError("repeat", "must be at least 1")
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


def _read_trace(path: str | Path) -> list[dict]:
    records = []
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line, parse_constant=_no_constant)
        except ValueError as exc:  # JSONDecodeError is one
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
        if not (isinstance(record, dict)
                and all(isinstance(record.get(key), str) for key in ("run_id", "module"))):
            raise ParseError(f"{path}:{line_no}: not a record with string run_id and module")
        records.append(record)
    return records


def _metrics_for(path: Path, records: list[dict]) -> dict:
    module = records[0]["module"] if records else "unknown"
    run_id = records[0]["run_id"] if records else "-"
    metrics = {"trace": str(path), "run_id": run_id, "module": module,
               "records": len(records), "status": "unknown",
               "resources_spent": None, "extra": {}}
    sp = summary_path_for(path)
    if sp.exists():
        summary = read_document(sp)
        if not (isinstance(summary, dict) and isinstance(summary.get("status", ""), str)):
            raise ParseError(f"{sp}: not an object with a string status")
        metrics["status"] = summary.get("status", "unknown")
    try:
        payloads = [r["payload"] for r in records]
        if module in ("flavell", "acquire", "retrieve"):
            metrics["resources_spent"] = sum(p["resources"] for p in payloads)
            metrics["extra"]["cycles"] = max((p["cycle"] for p in payloads), default=-1) + 1
        elif module == "bandit":
            metrics["extra"]["cumulative_regret"] = sum(
                p["true_voc_best"] - p["true_voc_chosen"] for p in payloads)
            if payloads:
                metrics["extra"]["final_gamma"] = payloads[-1]["gamma"]
        elif module == "recall_mdp":
            drifts: dict[float, list[dict]] = {}
            for p in payloads:
                steps = p["steps"]
                if (isinstance(steps, bool) or not isinstance(steps, (int, float))
                        or not math.isfinite(steps)):
                    raise TypeError(f"steps must be a finite number, not {steps!r}")
                drifts.setdefault(p["drift"], []).append(p)
            per_drift = {}
            for drift in sorted(drifts):
                eps = drifts[drift]
                succ = [e["steps"] for e in eps if e["recalled"]]
                fail = [e["steps"] for e in eps if not e["recalled"]]
                per_drift[str(drift)] = {
                    "episodes": len(eps),
                    "recall_rate": len(succ) / len(eps),
                    "mean_recall_time": float(np.mean(succ)) if succ else None,
                    "mean_giveup_time": float(np.mean(fail)) if fail else None,
                }
            metrics["extra"]["by_drift"] = per_drift
        elif module == "plan":
            metrics["extra"]["expansions"] = len(payloads)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {module} payloads do not fit: "
                         f"{type(exc).__name__}: {exc}") from exc
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
