"""End-to-end analysis: parse, augment, impute, transform, fit, pool, report.

Stage order is fixed: completeness indicators are derived from the mask,
missing cells are hot-deck imputed into K complete members, each member is
rank-Gaussianized, fitted by the graphical lasso at one regularization level
shared by all members, and de-biased, and the resulting partial correlations
are Fisher-pooled across members (``Ensemble``) before arcs are extracted.

The level is ``lambda_value`` when given; otherwise the permutation
criterion sets it once per analysis, on member 1.  That null keeps only the
column marginals, which the members share up to the ranks of their filled
cells, so the K per-member nulls would estimate one quantity.  For the same
reason the members' correlations differ only slightly, so the graphical
lasso of members 2..K starts from member 1's sparse precision (never from
the member just before), inverted once, and each member's estimate agrees
with a cold solve to the solver's tolerance.

Seeding: member k (1-based) imputes with ``split_seed(seed, k)``; the
permutation null runs with ``split_seed(split_seed(seed, 1), RIC_STREAM)``,
so the whole run is a pure function of (config, seed).

A JSON config becomes an ``AnalysisConfig`` through ``report.read_dataclass``.
The report holds the records computed here (variables, profile rows, pooled
edges, arcs, findings), and ``report.json_record`` writes each of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .augment import AugmentedDataset, make_completeness_indicators
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
    UnimputableColumnError,
    stage,
)
from .ggm import PrecisionFit, WarmStart, fit_precision, select_lambda_ric
from .impute import SEED_LIMIT, hot_deck_draws, hot_deck_impute, split_seed
from .npn import FillRanks, nonparanormal_transform
from .pooling import (
    PooledEdgeTable,
    detect_mnar,
    edge_p_values,
    extract_missingness_arcs,
    pool_partial_correlations,
    require_fisher_dof,
)
from .report import AnalysisReport, json_record, render_arcs_csv, render_dot

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
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be inside [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        """JSON form of every field but ``out``, so that reports written to
        different directories stay byte-identical."""
        record = json_record(self)
        del record["out"]
        return record


@dataclass(frozen=True)
class Ensemble:
    """The hot-deck members of one analysis and what they all share.

    Member k (1-based) is its hot-deck draws from ``split_seed(seed, k)``,
    positions in each column's observed cells.  Only the filled columns
    differ between members: :meth:`of` rank-transforms the others once, into
    the column-major ``matrix``, and :meth:`ranked` ranks member k's draws
    into its imputed columns (``ranks``, whose labelling sort runs once, in
    :meth:`of`).  No filled member is kept: :meth:`filled` draws member k
    again, so ``--dump-members`` holds at most one at a time.
    """

    augmented: AugmentedDataset
    seed: int
    ranks: FillRanks
    matrix: np.ndarray  # (n, p), column-major; the last member ranked

    @classmethod
    def of(cls, augmented: AugmentedDataset, seed: int) -> Ensemble:
        names, imputed = augmented.names, augmented.imputed
        shared = np.setdiff1d(np.arange(len(names)), imputed)
        with stage("transform"):
            matrix = np.empty((augmented.n_rows, len(names)), order="F")
            matrix[:, shared] = nonparanormal_transform(
                augmented.values[:, shared], [names[j] for j in shared]
            )
        # Hot-deck draws come only from a column's observed cells, so checking
        # those once, before member 1, covers every member.  It comes before
        # FillRanks.of, which would call a column with no observed cell constant.
        with stage("impute"):
            for j, size in zip(imputed, augmented.pool_sizes):
                if size == 0:
                    raise UnimputableColumnError(names[j])
        with stage("transform"):
            ranks = FillRanks.of(
                augmented.values[:, imputed], [names[j] for j in imputed]
            )
        return cls(augmented, seed, ranks, matrix)

    def draws(self, k: int) -> list[np.ndarray]:
        return hot_deck_draws(self.augmented, split_seed(self.seed, k))

    def ranked(self, k: int) -> np.ndarray:
        """``matrix``, holding member k's ranks."""
        with stage("impute"):
            draws = self.draws(k)
        with stage("transform"):
            self.ranks.transform(draws, self.matrix, self.augmented.imputed)
        return self.matrix

    def fit(self, k: int, lam: float, start: WarmStart | None = None) -> PrecisionFit:
        with stage("fit"):
            return fit_precision(self.ranked(k), lam, start=start)

    def filled(self, k: int) -> np.ndarray:
        """Member k's complete matrix over the augmented variable set."""
        return hot_deck_impute(self.augmented, self.draws(k))


@dataclass
class AnalysisResult:
    """In-memory companion of the JSON report, for library callers."""

    report: AnalysisReport
    table: PooledEdgeTable
    ensemble: Ensemble


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
    ensemble = Ensemble.of(augmented, config.seed)
    member_1 = ensemble.ranked(1)
    lam = None if config.lambda_value is None else float(config.lambda_value)
    if lam is None:  # the permutation null on member 1
        with stage("select_lambda"):
            lam = select_lambda_ric(
                member_1,
                n_rotations=config.n_rotations,
                seed=split_seed(split_seed(config.seed, 1), RIC_STREAM),
            )
    with stage("fit"):
        fits = [fit_precision(member_1, lam)]
        start = WarmStart.of(fits[0].theta)  # for members 2..K
    fits += [ensemble.fit(k, lam, start) for k in range(2, config.n_imputations + 1)]
    with stage("pool"):
        table = pool_partial_correlations(fits, metas)
        table = edge_p_values(table)
    with stage("inference"):
        arcs = extract_missingness_arcs(table, config.alpha)
        findings = detect_mnar(arcs, table, config.alpha)
    report = AnalysisReport(
        meta=_meta(dataset, config, time.perf_counter() - started),
        variables=list(metas),
        missing_profile=missing_profile(dataset),
        excluded_constant=list(augmented.excluded_constant),
        warnings=warnings_list,
        lambdas=[lam] * config.n_imputations,
        edges=table.edges(),
        arcs=arcs,
        mnar_findings=findings,
    )
    return AnalysisResult(report=report, table=table, ensemble=ensemble)


def _meta(dataset: Dataset, config: AnalysisConfig, elapsed: float) -> dict:
    return {
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

    def write_member(k: int, path: Path) -> None:  # one filled member at a time
        write_matrix_csv(result.ensemble.filled(k), result.table.names, path)
    return result, write_outputs(
        out,
        [
            ("report.json", report.to_json()),
            ("arcs.csv", render_arcs_csv(report)),
            ("graph.dot", render_dot(report)),
        ]
        + [
            (f"member_{k:03d}.csv", partial(write_member, k))
            for k in range(1, config.n_imputations + 1)
            if config.dump_members
        ],
    )
