"""Command-line entry point for the verification suites and rate studies."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import REGIME_NAMES, SUITE_NAMES, CheckResult, ExperimentConfig, parse_config_file, run_suite


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-n", type=int, default=None, help="grid size (default 256)")
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR", help="write CSV/JSON artifacts here")
    parser.add_argument("--config", type=Path, default=None, metavar="FILE", help="key = value config file")


def _add_study_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--regime", choices=sorted(REGIME_NAMES), default=None)
    parser.add_argument("--p", type=float, default=None, help="smoothness order for the hoelder regime")
    parser.add_argument("--r", type=float, default=None, help="functional exponent")
    parser.add_argument("--m", type=int, default=None, help="Lavrentiev iteration count")
    parser.add_argument("--alpha-c", dest="c_alpha", type=float, default=None, help="constant in the alpha rule")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oversmooth",
        description="Verification suites and convergence-rate studies for "
        "sup-norm Tikhonov regularization with oversmoothing penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [name for name in SUITE_NAMES if name != "rate-study"]:
        p = sub.add_parser(name, help=f"run the {name} verification suite")
        _add_common(p)
        p.add_argument("--m", type=int, default=None, help="Lavrentiev iteration count")
    study = sub.add_parser("rate-study", help="run one configured rate study")
    _add_common(study)
    _add_study_flags(study)
    suite = sub.add_parser("suite", help="run several suites (all when none named)")
    suite.add_argument("names", nargs="*", metavar="NAME", help=f"suite names: {', '.join(SUITE_NAMES)}")
    _add_common(suite)
    _add_study_flags(suite)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values overridden by the flags, validated together once."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.config is None:
        return ExperimentConfig(**flags)
    return parse_config_file(args.config, flags)


def _emit(results: list[CheckResult], out_dir: Path | None) -> int:
    all_pass = True
    for res in results:
        for line in res.lines:
            print(f"[{res.name}] {line}")
        print(f"[{res.name}] {'PASS' if res.passed else 'FAIL'}")
        all_pass = all_pass and res.passed
        if out_dir is not None:
            for fname, text in res.artifacts.items():
                (out_dir / fname).write_text(text)
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        if args.out is not None:  # a bad --out fails here, before any suite runs
            args.out.mkdir(parents=True, exist_ok=True)
        names = args.names if args.command == "suite" else [args.command]
        return _emit(run_suite(names, cfg), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ImportError) as exc:
        # An uncertified study, a QuadratureError (a RuntimeError) or an unusable scipy.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
