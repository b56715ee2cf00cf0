"""End-to-end analysis: parse, augment, impute, transform, fit, pool, report.

Stage order is fixed: completeness indicators are derived from the mask,
missing cells are hot-deck imputed into K complete members, each member is
rank-Gaussianized, fitted by the graphical lasso at one regularization level
shared by all members, and de-biased, and the resulting partial correlations
are Fisher-pooled across members before arcs are extracted.  The level is
``lambda_value`` when given; otherwise the permutation criterion sets it once
per analysis, on member 1.  That null keeps only the column marginals, which
the members share up to the ranks of their filled cells, so the K per-member
nulls would estimate one quantity.

Seeding: member k (1-based) imputes with ``split_seed(seed, k)``; the
permutation null runs with ``split_seed(split_seed(seed, 1), RIC_STREAM)``,
so the whole run is a pure function of (config, seed).
"""

from __future__ import annotations

import enum
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .augment import make_completeness_indicators
from .dataset import (
    DEFAULT_NA_TOKENS,
    Dataset,
    load_schema,
    missing_profile,
    write_matrix_csv,
    write_outputs,
)
from .errors import ConfigError, ContractError, stage
from .ggm import fit_precision, select_lambda_ric
from .impute import hot_deck_impute, split_seed
from .npn import nonparanormal_transform
from .pooling import (
    MissingnessArc,
    MnarFinding,
    PooledEdgeTable,
    detect_mnar,
    edge_p_values,
    extract_missingness_arcs,
    pool_partial_correlations,
    require_fisher_dof,
)
from .report import AnalysisReport, render_arcs_csv, render_dot

#: Stream index separating the RIC permutation RNG from the imputation RNG.
RIC_STREAM = 7919

NO_INDICATOR_WARNING = "no completeness indicators generated"


@dataclass
class AnalysisConfig:
    """Knobs of one analysis run; flags > config file > these defaults."""

    input: Path | None = None
    schema: Path | None = None
    alpha: float = 0.01
    n_imputations: int = 25
    seed: int = 0
    lambda_value: float | None = None  # None: permutation null on member 1
    n_rotations: int = 20
    out: Path | None = None
    na_tokens: frozenset[str] = DEFAULT_NA_TOKENS
    dump_members: bool = False

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be inside (0, 1), got {self.alpha}")
        if self.n_imputations < 1:
            raise ConfigError(
                f"n_imputations must be >= 1, got {self.n_imputations}"
            )
        if self.lambda_value is not None and self.lambda_value < 0:
            raise ConfigError(
                f"lambda_value must be >= 0, got {self.lambda_value}"
            )
        if self.n_rotations < 1:
            raise ConfigError(f"n_rotations must be >= 1, got {self.n_rotations}")

    @classmethod
    def from_dict(cls, values: dict) -> AnalysisConfig:
        """Build a config from a mapping keyed by field name (see read_dataclass)."""
        return read_dataclass(cls, values)

    def to_dict(self) -> dict:
        """JSON form of every field but ``out``, so that reports written to
        different directories stay byte-identical."""
        result = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, frozenset):
                value = sorted(value)
            result[f.name] = value
        del result["out"]
        return result


# Field type -> (test of a JSON value, its name in error messages).
_JSON_TYPES = {
    Path: (lambda v: isinstance(v, (str, Path)), "a path string"),
    float: (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "a number",
    ),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    frozenset: (
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        "a list of strings",
    ),
    list: (lambda v: isinstance(v, list), "a list"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def _json_type(kind):
    """``_JSON_TYPES`` entry of a field type; a dataclass is read from an
    object, an enum from one of its values."""
    if is_dataclass(kind):
        return _JSON_TYPES[dict]
    if issubclass(kind, enum.Enum):
        values = [member.value for member in kind]
        return (lambda v: v in values, "one of " + ", ".join(values))
    return _JSON_TYPES[kind]


def read_dataclass(cls, values, what: str = "config"):
    """Build dataclass ``cls`` from a parsed JSON object keyed by field name.

    Each value must have its field's JSON type (``null`` only where the type
    allows None); a non-object, an unknown or missing key or a wrong type is
    a ConfigError whose message names ``what``.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in values
        and f.default is MISSING
        and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"missing {what} keys: {', '.join(missing)}")
    return cls(**{k: _coerce(k, hints[k], v, what) for k, v in values.items()})


def _coerce(name: str, hint, value, what: str):
    """Check ``value`` against the JSON type of field ``name`` and convert it."""
    union = typing.get_origin(hint) is types.UnionType
    options = typing.get_args(hint) if union else (hint,)
    if value is None and type(None) in options:
        return None
    options = [o for o in options if o is not type(None)]
    kinds = [typing.get_origin(o) or o for o in options]
    for option, kind in zip(options, kinds):
        if _json_type(kind)[0](value):
            break
    else:
        described = " or ".join(_json_type(k)[1] for k in kinds)
        raise ConfigError(f"{what} key {name!r} must be {described}, got {value!r}")
    args = typing.get_args(option)
    if is_dataclass(kind):
        return read_dataclass(kind, value, name)
    if kind is list:
        return [_coerce(f"{name}[{i}]", args[0], v, what) for i, v in enumerate(value)]
    if kind is dict:
        return {k: _coerce(f"{name}.{k}", args[1], v, what) for k, v in value.items()}
    return kind(value)


@dataclass
class AnalysisResult:
    """In-memory companion of the JSON report, for library callers."""

    report: AnalysisReport
    table: PooledEdgeTable
    arcs: list[MissingnessArc]
    findings: list[MnarFinding]
    lambdas: list[float]
    members: list[np.ndarray] = field(default_factory=list)


def analyze_dataset(dataset: Dataset, config: AnalysisConfig) -> AnalysisResult:
    """Run the full pipeline on an in-memory dataset."""
    config.validate()
    started = time.perf_counter()
    with stage("augment"):
        augmented = make_completeness_indicators(dataset)
        require_fisher_dof(dataset.n_rows, len(augmented.metas))
    warnings_list: list[str] = []
    if not augmented.indicator_metas:
        warnings_list.append(NO_INDICATOR_WARNING)
    metas = augmented.metas
    if len(metas) < 2:
        raise ContractError("analysis needs at least 2 variables")
    names = augmented.names

    def transform(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
        return nonparanormal_transform(
            matrix[:, columns], [names[j] for j in columns]
        ).values

    # The rank transform works column by column, and only the hot-deck-filled
    # columns differ between members: the indicators and the fully observed
    # columns are transformed once, into the matrix every member reuses.
    imputed = np.flatnonzero(~augmented.base.mask.all(axis=0))
    shared = np.setdiff1d(np.arange(len(names)), imputed)
    with stage("transform"):
        transformed = np.empty((augmented.n_rows, len(names)))
        transformed[:, shared] = transform(
            np.hstack([augmented.base.values, augmented.indicator_values]), shared
        )
    fits = []
    lambdas = []
    # None: set by member 1's permutation null, then used for every member.
    lam = None if config.lambda_value is None else float(config.lambda_value)
    members: list[np.ndarray] = []
    for k in range(1, config.n_imputations + 1):
        member_seed = split_seed(config.seed, k)
        with stage("impute"):
            member = hot_deck_impute(augmented, member_seed)
        if config.dump_members:
            members.append(member)
        with stage("transform"):
            transformed[:, imputed] = transform(member, imputed)
        if lam is None:
            with stage("select_lambda"):
                lam = select_lambda_ric(
                    transformed,
                    n_rotations=config.n_rotations,
                    seed=split_seed(member_seed, RIC_STREAM),
                )
        lambdas.append(lam)
        with stage("fit"):
            fits.append(fit_precision(transformed, lam))
    with stage("pool"):
        table = pool_partial_correlations(fits, metas)
        table = edge_p_values(table)
    with stage("inference"):
        arcs = extract_missingness_arcs(table, config.alpha)
        findings = detect_mnar(arcs, table, config.alpha)
    elapsed = time.perf_counter() - started
    report = _build_report(
        dataset, config, table, arcs, findings, lambdas,
        list(augmented.excluded_constant), warnings_list, elapsed,
    )
    return AnalysisResult(
        report=report,
        table=table,
        arcs=arcs,
        findings=findings,
        lambdas=lambdas,
        members=members,
    )


def _build_report(
    dataset: Dataset,
    config: AnalysisConfig,
    table: PooledEdgeTable,
    arcs: list[MissingnessArc],
    findings: list[MnarFinding],
    lambdas: list[float],
    excluded: list[str],
    warnings_list: list[str],
    elapsed: float,
) -> AnalysisReport:
    variables = [
        {
            "name": m.name,
            "category": m.category.value,
            "kind": m.kind.value,
            "parent": m.parent,
        }
        for m in table.metas
    ]
    profile = [
        {
            "name": row.name,
            "category": row.category.value,
            "missing_proportion": row.missing_proportion,
        }
        for row in missing_profile(dataset)
    ]
    edges = []
    for i, j, meta_i, meta_j in table.pairs():
        edges.append(
            {
                "var_a": meta_i.name,
                "var_b": meta_j.name,
                "pooled_rho": float(table.pooled_rho[i, j]),
                "p_value": float(table.p_value[i, j]),
                "support_count": int(table.support_count[i, j]),
            }
        )
    arc_dicts = [
        {
            "obs_var": a.observation_var,
            "comp_var": a.completeness_var,
            "rho": a.pooled_rho,
            "p": a.p_value,
            "sign": a.sign,
            "counterpart_rho": a.counterpart_rho,
            "counterpart_p": a.counterpart_p,
        }
        for a in arcs
    ]
    finding_dicts = [
        {
            "variable": f.variable,
            "self_arc_rho": f.self_arc_rho,
            "self_arc_p": f.self_arc_p,
            "witnesses": list(f.witnesses),
        }
        for f in findings
    ]
    meta = {
        "package": "missgraph",
        "version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": config.seed,
        "n_rows": dataset.n_rows,
        "config": config.to_dict(),
        "runtime": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
        },
    }
    return AnalysisReport(
        meta=meta,
        variables=variables,
        missing_profile=profile,
        excluded_constant=excluded,
        warnings=warnings_list,
        lambdas=lambdas,
        edges=edges,
        arcs=arc_dicts,
        mnar_findings=finding_dicts,
    )


def run_analysis(config: AnalysisConfig) -> tuple[AnalysisResult, list[Path]]:
    """File-level analyze: parse the input CSV, run, write the output files.

    Writes ``report.json``, ``arcs.csv`` and ``graph.dot`` into ``config.out``
    (plus ``member_###.csv`` when member dumping is on) and returns their
    paths, ``report.json`` first.  The output directory is created before
    the first fit, so an unwritable one fails early; the files are written
    only after the whole computation succeeded, and a failed write removes
    every output file it opened, the partly written one included (see
    ``write_outputs``).  A failed analysis can leave the empty directory.
    """
    # Looked up in ``missgraph.dataset`` at call time, not bound at import,
    # so that a wrapper installed on ``missgraph.dataset.parse_csv`` (as the
    # benchmark's tracer does) is the function called here.
    from .dataset import parse_csv

    config.validate()
    if config.input is None:
        raise ConfigError("analyze needs an input file")
    if config.out is None:
        raise ConfigError("analyze needs an output directory")
    with stage("parse"):
        schema = load_schema(config.schema) if config.schema else None
        dataset = parse_csv(config.input, na_tokens=config.na_tokens, schema=schema)
    out = Path(config.out)
    write_outputs(out, [])
    result = analyze_dataset(dataset, config)
    report = result.report
    names = result.table.names
    return result, write_outputs(
        out,
        [
            ("report.json", report.to_json()),
            ("arcs.csv", render_arcs_csv(report)),
            ("graph.dot", render_dot(report)),
        ]
        + [
            (f"member_{k:03d}.csv", partial(write_matrix_csv, member, names))
            for k, member in enumerate(result.members, start=1)
        ],
    )
