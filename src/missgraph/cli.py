"""Command-line interface: ``analyze``, ``simulate`` and ``export``.

Exit codes: 0 ok, 2 config (a usage error included, stage ``usage``, and an
output file that cannot be written, stage ``write``), 3 parse, 4 numeric,
5 convergence.  Every failure prints one machine-parsable JSON line on stderr
with ``code``, ``kind``, ``stage`` and ``message`` fields.  The default
output directory can be set with the ``MISSGRAPH_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .dataset import read_json, write_csv, write_matrix_csv, write_outputs
from .errors import ConfigError, MissgraphError, stage
from .pipeline import AnalysisConfig, run_analysis
from .report import EXPORT_FORMATS, AnalysisReport, export_graph, read_dataclass
from .simulate import simulate_spec

ENV_OUTDIR = "MISSGRAPH_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError: one JSON line, like any failure."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="missgraph",
        description="Detect informative missing-data patterns in numeric tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full missingness analysis")
    analyze.add_argument("--input", type=Path, help="input CSV file")
    analyze.add_argument("--schema", type=Path, help="JSON file: variable -> category")
    analyze.add_argument("--config", type=Path, help="JSON config file (flags win)")
    analyze.add_argument("--alpha", type=float, help="significance threshold")
    analyze.add_argument(
        "--imputations", type=int, dest="n_imputations", help="ensemble size"
    )
    analyze.add_argument("--seed", type=int, help="master seed")
    analyze.add_argument(
        "--lambda-value", type=float, help="fixed penalty (default: permutation null)"
    )
    analyze.add_argument("--n-rotations", type=int)
    analyze.add_argument("--out", type=Path, help="output directory")
    analyze.add_argument(
        "--na-token",
        action="append",
        dest="na_tokens",
        metavar="TOKEN",
        help="missing-cell token, repeatable; replaces the default set",
    )
    analyze.add_argument(
        "--dump-members",
        action="store_true",
        default=None,
        help="also write every imputed member as CSV",
    )

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset")
    simulate.add_argument("--spec", type=Path, required=True, help="JSON spec file")
    simulate.add_argument("--out", type=Path, help="output directory")

    export = sub.add_parser("export", help="re-render a report's arc graph")
    export.add_argument("--report", type=Path, required=True, help="report.json path")
    export.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    export.add_argument("--out", type=Path, help="output file (default: stdout)")
    return parser


def _default_outdir(flag_value: Path | None) -> Path:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_OUTDIR)
    if env:
        return Path(env)
    raise ConfigError(
        f"no output directory: pass --out or set {ENV_OUTDIR}"
    )


def _analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    """Merge defaults, config file and flags (later wins).

    Every ``analyze`` flag stores into the ``AnalysisConfig`` field of the
    same name, which is also its config-file key.
    """
    merged = read_json(args.config, "config file") if args.config is not None else {}
    if not isinstance(merged, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    for f in fields(AnalysisConfig):
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    config = read_dataclass(AnalysisConfig, merged)
    config.out = _default_outdir(config.out)
    return config


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    result, written = run_analysis(config)
    report = result.report
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"report: {written[0]}")
    print(
        f"arcs: {len(report.arcs)}  mnar findings: {len(report.mnar_findings)}"
        f"  (alpha={config.alpha})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    outdir = _default_outdir(args.out)
    spec = read_json(args.spec, "spec file")
    with stage("simulate"):
        dataset, truth = simulate_spec(spec)
    for path in write_outputs(
        outdir,
        [
            ("dataset.csv", partial(write_csv, dataset)),
            ("truth.json", json.dumps(truth.to_dict(), indent=2) + "\n"),
            (
                "probabilities.csv",
                partial(write_matrix_csv, truth.probabilities, truth.names),
            ),
        ],
    ):
        print(f"wrote: {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    data = read_json(args.report, "report")
    try:
        report = read_dataclass(AnalysisReport, data, "report", defaults=False)
    except ConfigError as exc:
        raise ConfigError(f"report {args.report} is not a valid report: {exc}") from exc
    rendered = export_graph(report, args.format)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        write_outputs(args.out.parent, [(args.out.name, rendered)])
        print(f"wrote: {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "export": _cmd_export,
    }
    try:
        with stage("usage"):
            args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except MissgraphError as exc:
        line = json.dumps(
            {
                "code": exc.exit_code,
                "kind": exc.kind,
                "stage": exc.stage or args.command,
                "message": str(exc),
            }
        )
        print(line, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
