"""Closed-loop benchmark of ``mgv.runner.run()``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the workload's documents one after another, each run
starting when the previous one returns (a closed loop with one client).  A
run is ``config.validate_config`` plus ``runner.run``, trace and summary
files included.  The loop repeats whole passes over the documents until
``--seconds`` of measured time have passed.  Outside the timed region the
first pass is checked run by run (see ``checks.py``), and every later pass
must reproduce the first one's output bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: calls and self
time of each wrapped function (see ``tracer.py``), work counters, and the
tracing overhead.  Spans of the last traced pass are written to
``.perfbench-out/spans-<workload>.jsonl`` when the benchmark ends.

Every metric is printed on its own line with its unit, followed by the
environment (Python, numpy, OpenBLAS, CPU, steal ticks) and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# The bandit's SVD must not start BLAS threads on a small machine; this has
# to be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
MODES = ("flavell", "acquire", "retrieve", "bandit", "plan", "recall_mdp")
SETUP_PROBES = 6  # fresh processes that repeat the set-up, for setup_s
MIN_PASSES = 3  # timed passes at least; byte identity needs two

END_TO_END = {
    "runs_per_s": "runs/s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    **{f"mode_ms.{mode}": "ms" for mode in MODES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_TIMES = list(dict.fromkeys(f"{layer}.{attr}" for _, attr, layer in tracing.WRAPPED))
_LAYER_CALLS = [
    "config.validate_config", "recall.recall_transition", "planning.plan_value",
    "planning.myopic_voc", "bandit.sample_vocs", "bandit.posterior_update",
    "knowledge.consolidate", "knowledge.retrieve_probabilistic",
    "knowledge.update_knowledge",
]
_WORK_COUNTS = {
    "runner.trace_records": "count",
    "runner.trace_bytes": "bytes",
    "recall.simulated_episodes": "count",
    "planning.expansions": "count",
    "knowledge.consolidate.encoded": "count",
}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    **{f"{name}.self_s": "s" for name in _LAYER_TIMES},
    **_WORK_COUNTS,
    "planning.voc_evals_per_expansion": "ratio",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "tracing.overhead_ratio": "ratio",
}

# Self-time groups that show whether a workload stresses what it was built to.
SHARES = {
    "solver kernels": ["recall.recall_transition", "planning.plan_value",
                       "bandit.sample_vocs", "bandit.posterior_update"],
    "trace write + consolidate": ["runner._write_trace", "knowledge.consolidate"],
    "recall_transition": ["recall.recall_transition"],
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result: the program under test is
    missing, or no run of some mode succeeded."""


def load_mgv():
    """Import mgv from ``src/`` beside the benchmark, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mgv" / "__init__.py").is_file():
        raise BenchmarkError(f"no mgv package under {src}")
    sys.path.insert(0, str(src))
    mgv = importlib.import_module("mgv")
    if Path(mgv.__file__).resolve().parent != (src / "mgv").resolve():
        raise BenchmarkError(f"imported mgv from {mgv.__file__}, not from {src}")
    return mgv


def set_up(workload: str, seed: int, out_dir: Path):
    """Import, generate the documents, and warm up on one run per mode.

    Returns the module, the documents with their output paths, and the
    seconds the set-up took.
    """
    start = time.perf_counter()
    mgv = load_mgv()
    docs = [{**doc, "out": str(out_dir / f"{i:04d}-{doc['mode']}.jsonl")}
            for i, doc in enumerate(workloads.generate(workload, seed))]
    first_of_mode = {}
    for doc in docs:
        first_of_mode.setdefault(doc["mode"], doc)
    for doc in first_of_mode.values():
        mgv.runner.run(mgv.config.validate_config(doc))
    return mgv, docs, time.perf_counter() - start


def run_pass(mgv, docs, tracer=None):
    """One closed-loop pass over the documents.

    Returns (wall seconds, per-run seconds with None for a run that raised,
    summaries, configs).
    """
    config, runner = mgv.config, mgv.runner
    clock = time.perf_counter
    times, summaries, configs = [], [], []
    gc.collect()
    start = clock()
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.run_index = i
        t0 = clock()
        try:
            cfg = config.validate_config(doc)
            summary = runner.run(cfg)
        except Exception as exc:  # a failed run is counted, not fatal
            print(f"run {i} ({doc['mode']}) raised {exc!r}", file=sys.stderr)
            times.append(None)
            summaries.append(None)
            configs.append(None)
            continue
        times.append(clock() - t0)
        summaries.append(summary)
        configs.append(cfg)
    return clock() - start, times, summaries, configs


class Outcome:
    """Failure bookkeeping across passes against the first pass's bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: list[str | None] | None = None
        self.bad: set[int] = set()

    def record(self, mgv, docs, times, summaries, configs) -> str:
        digests = []
        for i, doc in enumerate(docs):
            if times[i] is None:
                digests.append(None)
                continue
            digests.append(checks.output_digest(
                doc["out"], mgv.runner.summary_path_for(doc["out"])))
        if self.reference is None:
            self.reference = digests
            for i, (cfg, summary) in enumerate(zip(configs, summaries)):
                if summary is None:
                    continue
                problems = checks.check_run(mgv, cfg, summary)
                if problems:
                    self.bad.add(i)
                    print(f"run {i} ({cfg.mode.value}): {'; '.join(problems)}",
                          file=sys.stderr)
        self.attempted += len(docs)
        for i, digest in enumerate(digests):
            if digest is None or digest != self.reference[i] or i in self.bad:
                self.failed += 1
        return checks.combined_digest([d or "-" for d in digests])


def _quartiles(values) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    values = list(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(docs, passes, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the number of documents behind each timing.

    On a shared VM the machine runs up to a third faster in bursts of a few
    seconds, at random.  A document's run time is therefore the upper
    quartile of its times over the passes, the speed outside those bursts;
    the median, mean or minimum over passes moved more from one process to
    the next.  Percentiles are then taken over documents.
    Throughput is likewise the lower quartile of the passes' runs per second.
    """
    per_doc = []
    for i, doc in enumerate(docs):
        times = [p_times[i] for _, p_times in passes if p_times[i] is not None]
        if times:
            per_doc.append((doc["mode"], _quartiles(times)[2] * 1e3))
    samples = [t for _, t in per_doc]
    by_mode = {mode: [t for m, t in per_doc if m == mode] for mode in MODES}
    missing = [mode for mode, times in by_mode.items() if not times]
    if missing:
        raise BenchmarkError(f"no run of mode {', '.join(missing)} succeeded")
    metrics = {
        "runs_per_s": _quartiles(sum(t is not None for t in times) / wall
                                 for wall, times in passes)[0],
        "run_ms.p50": statistics.median(samples),
        "run_ms.p90": statistics.quantiles(samples, n=10)[8],
        **{f"mode_ms.{mode}": statistics.median(by_mode[mode]) for mode in MODES},
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"run_ms.p50": len(samples), "run_ms.p90": len(samples),
              **{f"mode_ms.{mode}": len(by_mode[mode]) for mode in MODES}}
    return metrics, counts


def per_layer(snapshots, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the traced passes' snapshots.

    Counts come from the first traced pass (every traced pass makes the same
    calls), self times are medians over the traced passes, and errors are
    summed over them.
    """
    calls, _, counts, _ = snapshots[0]
    metrics = {}
    for name in _LAYER_CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in _LAYER_TIMES:
        metrics[f"{name}.self_s"] = statistics.median(
            snap[1].get(name, 0.0) for snap in snapshots)
    for name in _WORK_COUNTS:
        metrics[name] = counts.get(name, 0)
    expansions = metrics["planning.expansions"]
    metrics["planning.voc_evals_per_expansion"] = (
        metrics["planning.myopic_voc.calls"] / expansions if expansions else 0.0)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = sum(snap[3].get(layer, 0) for snap in snapshots)
    # The first pass creates the output files that later passes overwrite,
    # so it is left out of the untraced side.
    metrics["tracing.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls[1:]) - 1.0)
    return metrics


def _steal_ticks():
    """(steal, total) CPU ticks from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def environment(mgv, steal_before, steal_after) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "mgv": mgv.__version__,
        "steal_ticks_before": steal_before and steal_before[0],
        "steal_ticks_after": steal_after and steal_after[0],
    }
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        env["steal_share"] = round((steal_after[0] - steal_before[0])
                                   / (steal_after[1] - steal_before[1]), 4)
    return env


def probe_setup(workload: str, seed: int) -> float:
    """Seconds one fresh process takes to set up the workload."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("set-up probe timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, out_dir: Path) -> dict:
    steal_before = _steal_ticks()
    mgv, docs, setup_main = set_up(args.workload, args.seed, out_dir)
    outcome = Outcome()
    untraced, traced = [], []
    tracer = tracing.Tracer({m: getattr(mgv, m) for m, _, _ in tracing.WRAPPED})
    digests = set()
    peak_rss_mb = None
    snapshots = []  # per traced pass: calls, self time, work counts, errors
    measured = 0.0
    while (measured < args.seconds or len(untraced) < MIN_PASSES - args.trace
           or len(traced) < args.trace):
        if args.trace and len(traced) < len(untraced):
            with tracer.installed():
                wall, times, summaries, configs = run_pass(mgv, docs, tracer)
            snapshots.append((dict(tracer.calls), dict(tracer.self_s),
                              dict(tracer.counts), dict(tracer.errors)))
            traced.append((wall, times))
        else:
            wall, times, summaries, configs = run_pass(mgv, docs)
            untraced.append((wall, times))
            if peak_rss_mb is None:  # set-up and one pass; the checks come after
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured += wall
        digests.add(outcome.record(mgv, docs, times, summaries, configs))
    steal_after = _steal_ticks()

    consistent = len(digests) == 1
    if not consistent:
        print("output bytes differ between passes", file=sys.stderr)
    if any(snap[0] != snapshots[0][0] for snap in snapshots):
        print("traced passes made different numbers of calls", file=sys.stderr)
        consistent = False

    if args.trace:
        metrics = per_layer(snapshots, [w for w, _ in traced],
                            [w for w, _ in untraced])
        units = PER_LAYER
        counts = {}
        tracer.write_spans(OUT_ROOT / f"spans-{args.workload}.jsonl")
    else:
        setups = [setup_main] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
        metrics, counts = end_to_end(docs, untraced, statistics.median(setups),
                                     peak_rss_mb)
        units = END_TO_END

    for name, unit in units.items():
        n = counts.get(name)
        extra = ""
        if name == "run_ms.p90":
            extra = (f"  ({n} documents, {n - round(0.9 * n)} beyond it, "
                     f"each the upper quartile of {len(untraced)} passes)")
        elif n is not None:
            extra = f"  ({n} documents)"
        print(f"{name:40s} {metrics[name]:.6g} {unit}{extra}")
    failure_rate = outcome.failed / outcome.attempted
    print(f"{'failure_rate':40s} {failure_rate:.6g} ratio"
          f"  ({outcome.failed}/{outcome.attempted})")
    if args.trace:
        wall = statistics.median(w for w, _ in traced)
        for label, names in SHARES.items():
            share = sum(metrics[f"{n}.self_s"] for n in names) / wall
            print(f"share {label:34s} {share:.3f} of traced pass wall time")
    print(f"workload {args.workload} seed {args.seed} docs {len(docs)} "
          f"passes {len(untraced)}+{len(traced)} traced "
          f"digest {sorted(digests)[0]}")
    print("env " + json.dumps(environment(mgv, steal_before, steal_after),
                              sort_keys=True))
    return {
        "correct": consistent and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this process and print its duration")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT))
    try:
        if args.setup_only:
            _, _, seconds = set_up(args.workload, args.seed, out_dir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = measure(args, out_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
