"""Command-line entry point.

Subcommands cover each run mode plus trace reporting.  Config files are
either full run documents ({"mode", "seed", "params", "out"}) or bare
mode-specific parameter blocks; flags fill in or override the rest.  Module
and file errors exit 2 with a one-line JSON error on stderr.  Log level comes
from the MGV_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .config import RunConfig, RunMode, read_document, validate_config, write_text
from .errors import NONEMPTY, MgvError, ValidationError
from .runner import report, run_repeated

log = logging.getLogger("mgv")


def _configure_logging() -> None:
    level_name = os.environ.get("MGV_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _config_from_args(args) -> RunConfig:
    """Build a validated run config from a file plus command-line overrides.

    A file without a ``mode`` field is a bare params block for the
    subcommand's mode; flags fill in or override the document's fields.
    """
    mode = args.mode
    doc = read_document(args.input)
    if not isinstance(doc, dict) or "mode" not in doc:
        doc = {"mode": mode.value, "params": doc}
    elif doc["mode"] != mode.value:
        raise ValidationError("config.mode",
                              f"file says {doc['mode']!r}, subcommand wants {mode.value!r}")
    params = doc.get("params", {})
    extra = {name: getattr(args, name) for name in args.overrides
             if getattr(args, name) is not None}
    if extra and isinstance(params, dict):
        doc["params"] = {**params, **extra}
    for name in ("seed", "out"):
        if getattr(args, name) is not None:
            doc[name] = getattr(args, name)
    return validate_config(doc)


def _run_mode(args) -> int:
    config = _config_from_args(args)
    log.info("running %s (seed %d)", config.mode.value, config.seed)
    summaries = run_repeated(config, args.repeat,
                             emit_policy=getattr(args, "emit_policy", None),
                             emit_threshold=getattr(args, "emit_threshold", None))
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


def _cmd_report(args) -> int:
    if args.out is not None:
        NONEMPTY.check("out", args.out)
    metrics, table = report(args.traces)
    print(table)
    if args.out is not None:
        write_text(args.out, (json.dumps(metrics, sort_keys=True, indent=2,
                                         allow_nan=False) + "\n",))
    else:
        print(json.dumps(metrics, sort_keys=True, allow_nan=False))
    return 0


# One row per run subcommand: name, mode, help, the input file's flag and
# help, and the flags that override one params field: (flag, field, type, help).
_RUN_COMMANDS = (
    ("flavell", RunMode.FLAVELL, "run the full monitor-generate-verify loop",
     "--config", None, ()),
    ("acquire", RunMode.ACQUIRE, "run the study-scheduling loop", "--config", None, ()),
    ("retrieve", RunMode.RETRIEVE, "run the memory-search loop", "--config", None, ()),
    ("bandit", RunMode.BANDIT, "run value-of-computation strategy selection",
     "--arms", "arm spec or full run config (JSON)",
     (("--episodes", "episodes", int, "episode count (overrides the file)"),)),
    ("plan", RunMode.PLAN, "run the myopic planning loop on a tree",
     "--tree", "tree spec or full run config (JSON)",
     (("--lambda", "expansion_cost", float, "per-expansion cost (overrides the file)"),)),
    ("solve-recall", RunMode.RECALL_MDP,
     "solve (and optionally simulate) the recall stopping problem", "--config", None, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgv",
        description="Deterministic monitor-generate-verify loops and "
                    "rational-metareasoning solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, mode, help_text, flag, flag_help, overrides in _RUN_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(flag, dest="input", metavar=flag[2:].upper(), required=True,
                       help=flag_help)
        for option, field, kind, option_help in overrides:
            p.add_argument(option, dest=field, type=kind, default=None, help=option_help)
        if mode is RunMode.RECALL_MDP:
            p.add_argument("--emit-policy", default=None,
                           help="write the solved policy table as JSON")
            p.add_argument("--emit-threshold", default=None,
                           help="write the per-step stopping threshold as CSV")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (overrides the config file)")
        p.add_argument("--out", default=None, help="trace output path (JSONL)")
        p.add_argument("--repeat", type=int, default=1,
                       help="fan out over N independent substreams")
        p.set_defaults(func=_run_mode, mode=mode,
                       overrides=[field for _, field, _, _ in overrides])

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
    except (MgvError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
