"""Output checks and byte digests for benchmark runs.

The checks read back what ``runner.run`` wrote and compare it with the run
document and with ``mgv.report``, which recomputes its figures from the
trace alone.  They run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def output_digest(trace_path: str, summary_path) -> str:
    """sha256 over a run's trace bytes followed by its summary bytes."""
    h = hashlib.sha256(Path(trace_path).read_bytes())
    h.update(Path(summary_path).read_bytes())
    return h.hexdigest()


def combined_digest(digests: list[str]) -> str:
    """One sha256 over the per-run digests of a pass, in run order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(
        a, b, rel_tol=1e-12, abs_tol=1e-12)


def _expected_records(config, summary: dict) -> int:
    p = config.params
    mode = config.mode.value
    if mode == "bandit":
        return p["episodes"]
    if mode == "recall_mdp":
        sim = p["simulate"]
        return 0 if sim is None else len(sim["drifts"]) * sim["episodes"]
    if mode == "plan":
        return summary["expansions"]
    if mode == "flavell":
        return summary["cycles"]
    return -1  # acquire and retrieve records are not fixed by the document


def check_run(mgv, config, summary: dict) -> list[str]:
    """Problems found in one run's written outputs; empty when it is correct."""
    runner = mgv.runner
    problems = []
    summary_path = runner.summary_path_for(config.out)
    written = json.loads(Path(summary_path).read_text())
    if written != json.loads(json.dumps(summary)):
        problems.append("summary file differs from the returned summary")
    if summary["run_id"] != runner.run_id_for(config):
        problems.append("run_id differs from runner.run_id_for(config)")

    report, _ = mgv.report([config.out])
    (metrics,) = report["runs"]
    expected = _expected_records(config, summary)
    if expected >= 0 and metrics["records"] != expected:
        problems.append(f"{metrics['records']} trace records, expected {expected}")
    if not metrics["records"]:
        return problems  # an empty trace gives report nothing to recompute
    if metrics["run_id"] != summary["run_id"] or metrics["module"] != config.mode.value:
        problems.append("trace run_id or module differs from the summary")

    mode = config.mode.value
    extra = metrics["extra"]
    if mode in ("flavell", "acquire", "retrieve"):
        if not _close(metrics["resources_spent"], summary["resources_spent"]):
            problems.append("report resources_spent differs from the summary")
    elif mode == "bandit":
        if not _close(extra["cumulative_regret"], summary["cumulative_regret"]):
            problems.append("report cumulative_regret differs from the summary")
    elif mode == "recall_mdp":
        simulated = summary["simulated"] or {}
        by_drift = extra["by_drift"]
        if set(by_drift) != set(simulated):
            problems.append("report drifts differ from the summary")
        for drift, figures in simulated.items():
            got = by_drift.get(drift, {}).get("recall_rate")
            if not _close(got, figures["recall_rate"]):
                problems.append(f"report recall_rate for drift {drift} differs")
    elif mode == "plan":
        if extra["expansions"] != summary["expansions"]:
            problems.append("report expansions differ from the summary")
        net = summary["plan_value"] - summary["expansion_cost"] * summary["expansions"]
        if not _close(net, summary["net_reward"]):
            problems.append("net_reward != plan_value - cost * expansions")
    return problems
