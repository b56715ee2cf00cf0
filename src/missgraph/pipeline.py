"""End-to-end analysis: parse, augment, impute, transform, fit, pool, report.

Stage order is fixed: completeness indicators are derived from the mask,
missing cells are hot-deck imputed into K complete members, each member is
rank-Gaussianized, fitted by the graphical lasso at one regularization level
shared by all members, and de-biased, and the resulting partial correlations
are Fisher-pooled across members before arcs are extracted.  The level is
``lambda_value`` when given; otherwise the permutation criterion sets it once
per analysis, on member 1.  That null keeps only the column marginals, which
the members share up to the ranks of their filled cells, so the K per-member
nulls would estimate one quantity.  For the same reason the members'
correlations differ only slightly, so the graphical lasso of members 2..K
starts from member 1's sparse precision (never from the member just before),
and each member's estimate agrees with a cold solve to the solver's
tolerance.

Seeding: member k (1-based) imputes with ``split_seed(seed, k)``; the
permutation null runs with ``split_seed(split_seed(seed, 1), RIC_STREAM)``,
so the whole run is a pure function of (config, seed).

A JSON config becomes an ``AnalysisConfig`` through ``report.read_dataclass``,
and ``report.json_record`` writes every record of the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from .errors import (
    ConfigError,
    ContractError,
    DegenerateColumnError,
    UnimputableColumnError,
    stage,
)
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
from .report import ARC_FIELDS, AnalysisReport, json_record, render_arcs_csv, render_dot

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
        if self.lambda_value is not None and not 0 <= self.lambda_value < np.inf:
            raise ConfigError(
                f"lambda_value must be a finite number >= 0,"
                f" got {self.lambda_value}"
            )
        if self.n_rotations < 1:
            raise ConfigError(f"n_rotations must be >= 1, got {self.n_rotations}")

    def to_dict(self) -> dict:
        """JSON form of every field but ``out``, so that reports written to
        different directories stay byte-identical."""
        record = json_record(self)
        del record["out"]
        return record


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
    # Hot-deck draws come only from a column's observed cells, so checking
    # those once, before member 1, covers every member.
    pools = [augmented.base.values[augmented.base.mask[:, j], j] for j in imputed]
    with stage("impute"):
        for j, pool in zip(imputed, pools):
            if pool.size == 0:
                raise UnimputableColumnError(names[j])
    with stage("transform"):
        for j, pool in zip(imputed, pools):
            if pool.min() == pool.max():
                raise DegenerateColumnError(names[j], "cannot be rank-transformed")
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
            start = fits[0].theta if fits else None
            fits.append(fit_precision(transformed, lam, start=start))
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
        variables=[json_record(m) for m in table.metas],
        missing_profile=[json_record(row) for row in missing_profile(dataset)],
        excluded_constant=excluded,
        warnings=warnings_list,
        lambdas=lambdas,
        edges=edges,
        arcs=[dict(zip(ARC_FIELDS, json_record(a).values())) for a in arcs],
        mnar_findings=[json_record(f) for f in findings],
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
