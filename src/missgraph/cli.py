"""Command-line interface: ``analyze``, ``simulate`` and ``export``.

Exit codes: 0 ok, 2 config, 3 parse, 4 numeric, 5 convergence.  Every failure
prints one machine-parsable JSON line on stderr with ``code``, ``kind``,
``stage`` and ``message`` fields.  The default output directory can be set
with the ``MISSGRAPH_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .dataset import write_csv, write_matrix_csv
from .errors import (
    ConfigError,
    MissgraphError,
    error_kind,
    exit_code_for,
    stage,
)
from .pipeline import AnalysisConfig, run_analysis
from .report import EXPORT_FORMATS, AnalysisReport, export_graph
from .simulate import simulate_spec

ENV_OUTDIR = "MISSGRAPH_OUTDIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    """Merge defaults, config file and flags (later wins).

    Every ``analyze`` flag stores into the ``AnalysisConfig`` field of the
    same name, which is also its config-file key.
    """
    merged = _read_json(args.config, "config file") if args.config is not None else {}
    if not isinstance(merged, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    for f in fields(AnalysisConfig):
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    config = AnalysisConfig.from_dict(merged)
    config.out = _default_outdir(config.out)
    return config


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    result, written = run_analysis(config)
    for warning in result.report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"report: {written[0]}")
    print(
        f"arcs: {len(result.arcs)}  mnar findings: {len(result.findings)}"
        f"  (alpha={config.alpha})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    outdir = _default_outdir(args.out)
    spec = _read_json(args.spec, "spec file")
    with stage("simulate"):
        dataset, truth = simulate_spec(spec)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        data_path = outdir / "dataset.csv"
        write_csv(dataset, data_path)
        written.append(data_path)
        truth_path = outdir / "truth.json"
        truth_path.write_text(
            json.dumps(truth.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        written.append(truth_path)
        probs_path = outdir / "probabilities.csv"
        write_matrix_csv(truth.probabilities, truth.names, probs_path)
        written.append(probs_path)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    for path in written:
        print(f"wrote: {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    try:
        report = AnalysisReport.from_json(args.report.read_text(encoding="utf-8"))
        # Rendering reads every arc and variable field the file may lack.
        rendered = export_graph(report, args.format)
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"report {args.report} is not a valid report: {exc}") from exc
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        args.out.write_text(rendered, encoding="utf-8")
        print(f"wrote: {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except MissgraphError as exc:
        line = json.dumps(
            {
                "code": exit_code_for(exc),
                "kind": error_kind(exc),
                "stage": exc.stage or args.command,
                "message": str(exc),
            }
        )
        print(line, file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
