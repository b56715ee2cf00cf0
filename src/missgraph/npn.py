"""Rank-based Gaussianization of each column (Gaussian copula marginals).

Each column is mapped through its empirical CDF (mid-ranks for ties, scaled
by ``1/(n+1)``), Winsorized into ``[delta_n, 1 - delta_n]`` with

    delta_n = 1 / (4 * n**0.25 * sqrt(pi * log(n)))

and pushed through the standard-normal quantile function, then centred and
scaled to unit sample standard deviation.  The map is monotone per column, so
any strictly increasing pre-transformation of a column leaves the output
bit-identical.

A mid-rank is always one of the half-integers 1, 1.5, ..., n, so every column
of n rows draws its normal scores from the same 2n - 1 values.  Those are
computed once per n (:func:`normal_scores`); a column then costs one sort,
which gives twice each cell's mid-rank as the integer
``count[dense] + count[dense - 1] + 1`` (the rule of
``scipy.stats.rankdata(method="average")``, with ``count`` the start of each
run of equal values and ``dense`` the run number), and one table lookup.  The
table is ``special.ndtri``, the function ``stats.norm.ppf`` evaluates, of the
Winsorized ``rankdata / (n + 1)``, so the result equals the rank-then-ppf
route bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ContractError, DegenerateColumnError


def winsorization_bound(n: int) -> float:
    """Truncation level keeping quantile arguments strictly inside (0, 1)."""
    return 1.0 / (4.0 * n**0.25 * math.sqrt(math.pi * math.log(n)))


@lru_cache(maxsize=16)
def normal_scores(n: int) -> np.ndarray:
    """Read-only normal score of each mid-rank ``r = 1, 1.5, ..., n`` of an
    n-row column: entry ``2r - 2`` is ``ndtri(clip(r / (n + 1), d, 1 - d))``
    with ``d = winsorization_bound(n)``."""
    delta = winsorization_bound(n)
    ranks = np.arange(2, 2 * n + 1) * 0.5
    table = special.ndtri(np.clip(ranks / (n + 1.0), delta, 1.0 - delta))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TransformedMatrix:
    """Gaussianized matrix: every column centred with unit sample sd."""

    values: np.ndarray


def nonparanormal_transform(
    matrix: np.ndarray, names: list[str] | None = None
) -> TransformedMatrix:
    """Gaussianize every column of a complete matrix.

    Parameters
    ----------
    matrix : complete (no NaN) float array, shape (n, p), n >= 8.
    names : optional column names used in error messages.

    Raises
    ------
    ContractError for incomplete input or n < 8;
    DegenerateColumnError for a constant column.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ContractError("expected a 2-D matrix")
    n, p = m.shape
    if n < 8:
        raise ContractError(f"need at least 8 rows to transform, got {n}")
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix must be complete (impute first)")
    scores = normal_scores(n)
    values = np.empty_like(m)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    g = np.empty(n)
    for j in range(p):
        order = np.argsort(m[:, j])
        ordered = m[order, j]
        if ordered[0] == ordered[-1]:
            name = names[j] if names else f"#{j}"
            raise DegenerateColumnError(name, "cannot be rank-transformed")
        np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
        count = np.append(np.flatnonzero(new_run), n)
        dense = np.cumsum(new_run)
        # Twice the mid-rank is count[dense] + count[dense - 1] + 1; its
        # table entry sits 2 lower.
        g[order] = scores[count[dense] + count[dense - 1] - 1]
        centred = g - g.mean()
        values[:, j] = centred / centred.std(ddof=1)
    return TransformedMatrix(values=values)
