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

import numpy as np

from .dataset import Category, write_csv, write_matrix_csv
from .errors import (
    ConfigError,
    MissgraphError,
    error_kind,
    exit_code_for,
    stage,
)
from .pipeline import AnalysisConfig, run_analysis
from .report import EXPORT_FORMATS, AnalysisReport, export_graph
from .simulate import MechanismSpec, ar1_precision, simulate_dataset

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
    analyze.add_argument("--lambda-method", choices=("ric", "fixed"))
    analyze.add_argument("--lambda-value", type=float)
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


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def _analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    """Merge defaults, config file and flags (later wins).

    Every ``analyze`` flag stores into the ``AnalysisConfig`` field of the
    same name, which is also its config-file key.
    """
    merged = _load_config_file(args.config) if args.config is not None else {}
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


def _precision_from_spec(spec: dict) -> np.ndarray:
    prec = spec.get("precision")
    if prec is None:
        raise ConfigError("simulate spec: missing 'precision'")
    if isinstance(prec, list):
        return np.asarray(prec, dtype=float)
    if isinstance(prec, dict):
        kind = prec.get("type")
        if kind == "identity":
            return np.eye(int(prec["p"]))
        if kind == "ar1":
            return ar1_precision(int(prec["p"]), float(prec["rho"]))
        raise ConfigError(
            f"simulate spec: unknown precision type {kind!r} (identity|ar1)"
        )
    raise ConfigError("simulate spec: 'precision' must be a matrix or a template")


def _cmd_simulate(args: argparse.Namespace) -> int:
    outdir = _default_outdir(args.out)
    try:
        raw = json.loads(args.spec.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file {args.spec} is not valid JSON: {exc}") from exc
    missing = [key for key in ("n", "names", "precision", "mechanisms") if key not in raw]
    if missing:
        raise ConfigError(f"simulate spec: missing field(s): {', '.join(missing)}")
    precision = _precision_from_spec(raw)
    names = [str(n) for n in raw["names"]]
    try:
        categories = {
            name: Category(cat) for name, cat in raw.get("categories", {}).items()
        }
    except ValueError as exc:
        raise ConfigError(f"simulate spec: bad category: {exc}") from exc
    try:
        specs = [MechanismSpec.from_dict(m) for m in raw["mechanisms"]]
    except (KeyError, ValueError, MissgraphError) as exc:
        raise ConfigError(f"simulate spec: bad mechanism entry: {exc}") from exc
    with stage("simulate"):
        dataset, truth = simulate_dataset(
            precision,
            n=int(raw["n"]),
            names=names,
            specs=specs,
            seed=int(raw.get("seed", 0)),
            categories=categories,
        )
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
        write_matrix_csv(truth.probabilities, names, probs_path)
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
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"report {args.report} is not a valid report: {exc}") from exc
    rendered = export_graph(report, args.format)
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
