"""Self-tests for the benchmark.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
import workloads

mgv = run.load_mgv()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_valid(name):
    docs = workloads.generate(name, 3)
    assert docs == workloads.generate(name, 3)
    assert docs != workloads.generate(name, 4)
    modes = set()
    for doc in docs:
        mgv.config.validate_config(doc)
        modes.add(doc["mode"])
    assert modes == set(run.MODES)


def _pass(docs, tracer=None):
    if tracer is None:
        _, times, summaries, configs = run.run_pass(mgv, docs)
    else:
        with tracer.installed():
            _, times, summaries, configs = run.run_pass(mgv, docs, tracer)
    assert None not in times
    return [checks.output_digest(d["out"], mgv.runner.summary_path_for(d["out"]))
            for d in docs], summaries, configs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_passes_repeat_counts_and_bytes(name, tmp_path):
    # Every mode appears among the first dozen documents of each workload.
    docs = [{**doc, "out": str(tmp_path / f"{i}.jsonl")}
            for i, doc in enumerate(workloads.generate(name, 5)[:12])]
    untraced, summaries, configs = _pass(docs)
    for cfg, summary in zip(configs, summaries):
        assert checks.check_run(mgv, cfg, summary) == []

    tracer = tracing.Tracer({m: getattr(mgv, m) for m, _, _ in tracing.WRAPPED})
    seen = []
    for _ in range(2):
        digests, _, _ = _pass(docs, tracer)
        assert digests == untraced  # tracing changes no output byte
        seen.append((dict(tracer.calls), tracer.counts["runner.trace_records"],
                     tracer.counts["runner.trace_bytes"]))
    assert seen[0] == seen[1]
    assert seen[0][0]["runner.run"] == len(docs)
    assert not tracer.errors
    for module, attr, _ in tracing.WRAPPED:  # originals are back in place
        assert not hasattr(getattr(getattr(mgv, module), attr), "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer({}, clock=iter([0.0, 1.0, 3.0, 10.0]).__next__)
    inner = tracer._wrap(lambda: None, "m.inner", "m")
    outer = tracer._wrap(lambda: inner(), "m.outer", "m")
    outer()
    assert tracer.self_s == {"m.inner": 2.0, "m.outer": 8.0}
    inner_span, outer_span = tracer.spans
    assert inner_span[1] == outer_span[0]  # the inner span's parent


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
