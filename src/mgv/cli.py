"""Command-line entry point.

Subcommands cover each run mode plus trace reporting.  Config files are
either full run documents ({"mode", "seed", "params", "out"}) or bare
mode-specific parameter blocks; flags fill in or override the rest.  Module
errors exit nonzero with a one-line JSON error on stderr.  Log level comes
from the MGV_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, RunMode, read_document, validate_config
from .errors import MgvError, ValidationError
from .runner import report, run_repeated

log = logging.getLogger("mgv")


def _configure_logging() -> None:
    level_name = os.environ.get("MGV_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _config_from_args(args, mode: RunMode, config_path: str,
                      extra_params: dict | None = None) -> RunConfig:
    """Build a validated run config from a file plus command-line overrides.

    A file without a ``mode`` field is a bare params block for the
    subcommand's mode; flags fill in or override the document's fields.
    """
    doc = read_document(config_path)
    if not isinstance(doc, dict) or "mode" not in doc:
        doc = {"mode": mode.value, "params": doc}
    elif doc["mode"] != mode.value:
        raise ValidationError("config.mode",
                              f"file says {doc['mode']!r}, subcommand wants {mode.value!r}")
    params = doc.get("params", {})
    if extra_params and isinstance(params, dict):
        doc["params"] = {**params, **extra_params}
    for name in ("seed", "out"):
        if getattr(args, name) is not None:
            doc[name] = getattr(args, name)
    return validate_config(doc)


def _run_mode(args, mode: RunMode, config_path: str,
              extra_params: dict | None = None) -> int:
    config = _config_from_args(args, mode, config_path, extra_params)
    log.info("running %s (seed %d)", mode.value, config.seed)
    summaries = run_repeated(config, getattr(args, "repeat", 1),
                             emit_policy=getattr(args, "emit_policy", None),
                             emit_threshold=getattr(args, "emit_threshold", None))
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_flavell(args) -> int:
    return _run_mode(args, RunMode.FLAVELL, args.config)


def _cmd_acquire(args) -> int:
    return _run_mode(args, RunMode.ACQUIRE, args.config)


def _cmd_retrieve(args) -> int:
    return _run_mode(args, RunMode.RETRIEVE, args.config)


def _cmd_bandit(args) -> int:
    extra = {"episodes": args.episodes} if args.episodes is not None else None
    return _run_mode(args, RunMode.BANDIT, args.arms, extra)


def _cmd_plan(args) -> int:
    extra = ({"expansion_cost": args.expansion_cost}
             if args.expansion_cost is not None else None)
    return _run_mode(args, RunMode.PLAN, args.tree, extra)


def _cmd_solve_recall(args) -> int:
    return _run_mode(args, RunMode.RECALL_MDP, args.config)


def _cmd_report(args) -> int:
    metrics, table = report(args.traces)
    print(table)
    if args.out:
        Path(args.out).write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    else:
        print(json.dumps(metrics, sort_keys=True))
    return 0


def _add_common(parser, repeat: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (overrides the config file)")
    parser.add_argument("--out", default=None, help="trace output path (JSONL)")
    if repeat:
        parser.add_argument("--repeat", type=int, default=1,
                            help="fan out over N independent substreams")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgv",
        description="Deterministic monitor-generate-verify loops and "
                    "rational-metareasoning solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flavell", help="run the full monitor-generate-verify loop")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_flavell)

    p = sub.add_parser("acquire", help="run the study-scheduling loop")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_acquire)

    p = sub.add_parser("retrieve", help="run the memory-search loop")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("bandit", help="run value-of-computation strategy selection")
    p.add_argument("--arms", required=True, help="arm spec or full run config (JSON)")
    p.add_argument("--episodes", type=int, default=None,
                   help="episode count (overrides the file)")
    _add_common(p)
    p.set_defaults(func=_cmd_bandit)

    p = sub.add_parser("plan", help="run the myopic planning loop on a tree")
    p.add_argument("--tree", required=True, help="tree spec or full run config (JSON)")
    p.add_argument("--lambda", dest="expansion_cost", type=float, default=None,
                   help="per-expansion cost (overrides the file)")
    _add_common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("solve-recall", help="solve (and optionally simulate) "
                                            "the recall stopping problem")
    p.add_argument("--config", required=True)
    p.add_argument("--emit-policy", default=None,
                   help="write the solved policy table as JSON")
    p.add_argument("--emit-threshold", default=None,
                   help="write the per-step stopping threshold as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_recall)

    p = sub.add_parser("report", help="summarize one or more trace files")
    p.add_argument("traces", nargs="+", help="trace files (JSONL)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MgvError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
