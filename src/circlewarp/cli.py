"""Command-line front end: run experiments from config files, emit plots.

Two entry points call ``main``: the ``circlewarp`` console script that
``[project.scripts]`` in pyproject.toml declares for an installed package,
and ``python -m circlewarp.cli``, which needs only the package importable
(for example ``PYTHONPATH=src`` in a checkout). Both exit with ``main``'s
return code.

Exit codes: 0 when every acceptance threshold of the invoked experiment
held, 1 when a threshold failed, 2 for configuration problems (bad config
file or value, unknown experiment or kind, malformed table). The default output
directory may be set through the CIRCLEWARP_OUT environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .derand import NumericalAlarm
from .experiments import EXPERIMENTS, load_config, run_experiment
from .plotting import emit_plot

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circlewarp",
        description="Run named experiments and render their tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config file")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument(
        "--output-dir", default=None, help="override the config's output directory"
    )

    sub.add_parser("list", help="list the available experiment names")

    p_plot = sub.add_parser("plot", help="render a CSV table to SVG")
    p_plot.add_argument("table", help="path to the CSV table")
    p_plot.add_argument(
        "--kind", choices=("line", "heatmap"), default="line", help="plot kind"
    )
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its code
        return int(exc.code or 0)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "plot":
        try:
            out = emit_plot(args.table, args.kind)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(out)
        return 0

    # run
    try:
        cfg = load_config(args.config)
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except NumericalAlarm as exc:
        print(f"numerical alarm in {cfg.experiment}: {exc}", file=sys.stderr)
        return 1
    print(report.to_json(), end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
