"""The ``repro lint`` command (also ``python -m repro.analysis``).

Kept free of numpy (and of every other heavy import) on purpose: the CI
lint gate runs this before installing the scientific stack, and it must
finish in seconds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO

from repro.analysis.config import load_config
from repro.analysis.engine import lint_paths
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import ALL_RULES

__all__ = ["build_lint_parser", "run_lint"]


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project static-analysis rules: determinism, lock "
        "discipline, and cost-ledger invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "tests"],
        help="files or directories to lint (default: src benchmarks tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE "
        "(for CI artifact upload / code-scanning annotations)",
    )
    parser.add_argument(
        "--witness-report",
        default=None,
        metavar="FILE",
        help="cross-check a runtime lock-witness dump (JSON, written by "
        "the REPRO_WITNESS pytest fixture) against the static "
        "acquisition-order graph of PATHS instead of linting",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def run_lint(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    """Run the linter; returns the process exit status (1 on findings)."""
    out = out if out is not None else sys.stdout
    args = build_lint_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}: {rule.rationale}", file=out)
        return 0

    if args.witness_report:
        from repro.analysis.witness import check_witness_report

        return check_witness_report(
            Path(args.witness_report), [Path(p) for p in args.paths], out=out
        )

    config = load_config(Path(args.paths[0]) if args.paths else Path.cwd())
    if args.select:
        select = tuple(code.strip() for code in args.select.split(",") if code.strip())
        config = replace(config, select=select)

    report = lint_paths(list(args.paths), config=config)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            render_sarif(report, handle)
    if args.format == "json":
        render_json(report, out)
    elif args.format == "sarif":
        render_sarif(report, out)
    else:
        render_text(report, out)
    return 0 if report.ok else 1
