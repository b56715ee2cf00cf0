"""Pool per-member partial correlations and extract missingness arcs.

Pooling is done in Fisher z-space: every member's partial correlation is
mapped through atanh, the mean over members is taken, and the result is
mapped back through tanh.  The atanh values are summed fit by fit into one
p x p accumulator, in member order, as ``np.mean`` adds a stack of them, so no
K x p x p stack is built.  Significance uses the variance-stabilized z
statistic ``atanh(rho) * sqrt(n - (p_vars - 2) - 3)``, where ``p_vars - 2``
counts the variables conditioned on.  Pairs linking an observation variable
to a completeness indicator with p below the alpha threshold become arcs; an
arc from a variable to its own indicator is the signature examined for
missing-not-at-random evidence, which requires at least one third variable
correlated with both endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .dataset import VariableMeta, VarKind
from .errors import ContractError
from .ggm import PrecisionFit


@dataclass(frozen=True)
class PooledEdge:
    """One pair of the pooled table, as the report lists it."""

    var_a: str
    var_b: str
    pooled_rho: float
    p_value: float
    support_count: int


@dataclass(frozen=True)
class PooledEdgeTable:
    """Pooled partial correlations for every unordered variable pair.

    ``pooled_rho`` is the Fisher-z mean of the member partial correlations;
    ``support_count`` counts members whose sparse precision kept the pair;
    ``p_value`` is filled in by :func:`edge_p_values`.
    """

    metas: tuple[VariableMeta, ...]
    pooled_rho: np.ndarray
    support_count: np.ndarray
    n: int
    p_value: np.ndarray | None = None

    def __post_init__(self):
        if len(self.metas) != self.pooled_rho.shape[0]:
            raise ContractError("one VariableMeta per pooled variable required")

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.metas]

    @property
    def p_vars(self) -> int:
        return self.pooled_rho.shape[0]

    def edges(self) -> list[PooledEdge]:
        """Every pair (i, j) with i < j, row by row."""
        if self.p_value is None:
            raise ContractError("run edge_p_values before listing edges")
        i, j = np.triu_indices(self.p_vars, k=1)
        names = np.array(self.names, dtype=object)
        columns = (names[i], names[j], self.pooled_rho[i, j], self.p_value[i, j],
                   self.support_count[i, j])
        return list(map(PooledEdge, *(column.tolist() for column in columns)))


@dataclass(frozen=True)
class MissingnessArc:
    """A significant observation <-> completeness conditional dependency.

    Its fields are the keys of a report arc, in the same order.
    ``counterpart_rho``/``counterpart_p`` describe the pair (observation
    variable, parent of the completeness variable); they are None when the
    arc links a variable to its own indicator, where the counterpart pair
    would be degenerate.
    """

    obs_var: str
    comp_var: str
    rho: float
    p: float
    sign: str  # "positive" | "negative"
    counterpart_rho: float | None
    counterpart_p: float | None

    @property
    def is_self_arc(self) -> bool:
        return self.counterpart_rho is None


@dataclass(frozen=True)
class MnarFinding:
    """Evidence that a variable's absence risk depends on its own value."""

    variable: str
    self_arc_rho: float
    self_arc_p: float
    witnesses: tuple[str, ...]


def fisher_pool(rhos: np.ndarray) -> np.ndarray:
    """tanh of the mean of atanh over axis 0 (the members), entry by entry.

    Entries at exactly +-1 (e.g. the unit diagonal) pool to +-1.
    """
    with np.errstate(divide="ignore"):
        return np.tanh(np.mean(np.arctanh(rhos), axis=0))


def pool_partial_correlations(
    fits: list[PrecisionFit], metas: tuple[VariableMeta, ...] | None = None
) -> PooledEdgeTable:
    """Pool the partial correlations of an ensemble of fits.

    All fits must share the variable set and sample count; every off-diagonal
    entry must be strictly inside (-1, 1) so the z-transform stays finite.
    When ``metas`` is omitted, placeholder observation variables named
    ``var0..var{p-1}`` are attached.
    """
    if not fits:
        raise ContractError("need at least one fit to pool")
    p = fits[0].p
    n = fits[0].n
    for f in fits[1:]:
        if f.p != p or f.n != n:
            raise ContractError("all fits must share variable set and n")
    # In member order, so that the result is fisher_pool's bit for bit.
    z_sum = np.zeros((p, p))
    support_count = np.zeros((p, p), dtype=int)
    off = ~np.eye(p, dtype=bool)
    for f in fits:
        if np.any(np.abs(f.partial_corr[off]) >= 1.0):
            raise ContractError("member partial correlations must satisfy |rho| < 1")
        with np.errstate(divide="ignore"):  # the unit diagonal
            z_sum += np.arctanh(f.partial_corr)
        support_count += f.support
    pooled = np.tanh(z_sum / len(fits))
    np.fill_diagonal(pooled, 1.0)
    if metas is None:
        metas = tuple(VariableMeta(name=f"var{i}") for i in range(p))
    return PooledEdgeTable(
        metas=tuple(metas),
        pooled_rho=pooled,
        support_count=support_count,
        n=n,
    )


def require_fisher_dof(n: int, p_vars: int) -> None:
    """Raise ContractError unless ``n > p_vars + 3``, so the Fisher z
    statistic of :func:`edge_p_values` has positive degrees of freedom."""
    if n <= p_vars + 3:
        raise ContractError(
            f"need n > p_vars + 3 for Fisher significance (n={n}, p_vars={p_vars})"
        )


def edge_p_values(table: PooledEdgeTable) -> PooledEdgeTable:
    """Attach two-sided p-values to every pair of the pooled table.

    The z statistic treats all remaining p_vars - 2 variables as conditioned
    on, so the effective degrees of freedom are n - (p_vars - 2) - 3.
    """
    p_vars = table.p_vars
    require_fisher_dof(table.n, p_vars)
    dof = table.n - (p_vars - 2) - 3
    z = np.arctanh(table.pooled_rho, where=~np.eye(p_vars, dtype=bool),
                   out=np.zeros((p_vars, p_vars))) * math.sqrt(dof)
    p = 2.0 * special.ndtr(-np.abs(z))
    np.fill_diagonal(p, 1.0)
    return replace(table, p_value=p)


def extract_missingness_arcs(
    table: PooledEdgeTable, alpha: float
) -> list[MissingnessArc]:
    """All significant observation <-> completeness pairs, p ascending.

    For each arc the counterpart pair (observation variable, parent of the
    completeness variable) is read off the same table, so the arc can be
    compared against the corresponding value association.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be inside (0, 1), got {alpha}")
    if table.p_value is None:
        raise ContractError("run edge_p_values before extracting arcs")
    is_indicator = np.array([m.kind is VarKind.COMPLETENESS for m in table.metas])
    observations = np.flatnonzero(~is_indicator)
    indicators = np.flatnonzero(is_indicator)
    rows, cols = np.nonzero(table.p_value[np.ix_(observations, indicators)] < alpha)
    row_of = {name: i for i, name in enumerate(table.names)}
    arcs = []
    for oi, ci in zip(observations[rows], indicators[cols]):
        obs, comp = table.metas[oi], table.metas[ci]
        p = float(table.p_value[oi, ci])
        rho = float(table.pooled_rho[oi, ci])
        if obs.name == comp.parent:
            counterpart_rho = counterpart_p = None
        else:
            pi = row_of[comp.parent]
            counterpart_rho = float(table.pooled_rho[oi, pi])
            counterpart_p = float(table.p_value[oi, pi])
        arcs.append(
            MissingnessArc(
                obs_var=obs.name,
                comp_var=comp.name,
                rho=rho,
                p=p,
                sign="positive" if rho > 0 else "negative",
                counterpart_rho=counterpart_rho,
                counterpart_p=counterpart_p,
            )
        )
    arcs.sort(key=lambda a: (a.p, a.obs_var, a.comp_var))
    return arcs


def detect_mnar(
    arcs: list[MissingnessArc], table: PooledEdgeTable, alpha: float
) -> list[MnarFinding]:
    """Turn significant self-arcs into findings with their witness variables.

    A hot-deck-imputed column is marginally uncorrelated with its own
    indicator, so a surviving conditional dependency between the two needs a
    third variable correlated with both; those third variables are collected
    as witnesses.
    """
    if table.p_value is None:
        raise ContractError("run edge_p_values before MNAR detection")
    names = table.names
    row_of = {name: i for i, name in enumerate(names)}
    linked = table.p_value < alpha
    findings = []
    for arc in arcs:
        if not arc.is_self_arc:
            continue
        a, c = row_of[arc.obs_var], row_of[arc.comp_var]
        witnesses = linked[a] & linked[c]
        witnesses[[a, c]] = False
        findings.append(
            MnarFinding(
                variable=arc.obs_var,
                self_arc_rho=arc.rho,
                self_arc_p=arc.p,
                witnesses=tuple(names[k] for k in np.flatnonzero(witnesses)),
            )
        )
    return findings
