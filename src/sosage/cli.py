"""Command-line entry point. A thin shell over the harness operations:
progress goes to stderr, machine output to stdout and files."""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from . import harness
from .checkpoint import load_checkpoint
from .config import load_config, with_seed
from .errors import SosageError, VerifyFailed
from .invariants import verify

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4  # a crash, never taken for an unsolved run's 1
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool killed by it


def _progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sosage")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--require-solve", action="store_true", help="exit 1 when the run does not solve"
    )

    p_resume = sub.add_parser("resume", help="continue a checkpointed run")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("--require-solve", action="store_true")

    p_inspect = sub.add_parser("inspect", help="summarize a checkpoint")
    p_inspect.add_argument("checkpoint")
    p_inspect.add_argument("--format", choices=("json", "text"), default="text")

    p_verify = sub.add_parser("verify", help="run the invariant suite on a checkpoint")
    p_verify.add_argument("checkpoint")

    p_sweep = sub.add_parser("sweep", help="run consecutive seeds and summarize")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", type=int, default=10)
    p_sweep.add_argument("--require-solve", action="store_true")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = with_seed(config, args.seed)
    return _report(harness.run(config, progress=_progress), args.require_solve)


def _report(report: harness.RunReport, require_solve: bool) -> int:
    """Print a run's artifact paths; an unsolved run under --require-solve exits 1."""
    print(report.metrics_path)
    print(report.checkpoint_path)
    return EXIT_UNSOLVED if require_solve and not report.solved else EXIT_OK


def _print_results(results, file=None) -> None:
    for r in results:
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{'pass' if r.passed else 'FAIL'}  {r.name}{detail}", file=file)


def _cmd_resume(args: argparse.Namespace) -> int:
    return _report(harness.resume(load_checkpoint(args.checkpoint), progress=_progress), args.require_solve)


def _cmd_inspect(args: argparse.Namespace) -> int:
    summary = harness.summarize_checkpoint(load_checkpoint(args.checkpoint))
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        sys.stdout.write(harness.format_summary_text(summary))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    report = verify(ckpt)
    _print_results(report.results)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    reports, summary_path = harness.sweep(config, args.seeds, progress=_progress)
    print(summary_path)
    if args.require_solve and not all(r.solved for r in reports):
        return EXIT_UNSOLVED
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "inspect": _cmd_inspect,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(e.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # stop quietly, with stdout on devnull so no flush can raise again
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except VerifyFailed as e:
        _print_results(e.failures, file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (SosageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
