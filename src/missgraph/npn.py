"""Rank-based Gaussianization of each column (Gaussian copula marginals).

Each column is mapped through its empirical CDF (mid-ranks for ties, scaled
by ``1/(n+1)``), Winsorized into ``[delta_n, 1 - delta_n]`` with

    delta_n = 1 / (4 * n**0.25 * sqrt(pi * log(n)))

and pushed through the standard-normal quantile function, then centred and
scaled to unit sample standard deviation.  The map is monotone per column, so
any strictly increasing pre-transformation of a column leaves the output
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ContractError, DegenerateColumnError


def winsorization_bound(n: int) -> float:
    """Truncation level keeping quantile arguments strictly inside (0, 1)."""
    return 1.0 / (4.0 * n**0.25 * math.sqrt(math.pi * math.log(n)))


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
    delta = winsorization_bound(n)
    values = np.empty_like(m)
    for j in range(p):
        col = m[:, j]
        if col.min() == col.max():
            name = names[j] if names else f"#{j}"
            raise DegenerateColumnError(name, "cannot be rank-transformed")
        r = stats.rankdata(col, method="average")
        u = np.clip(r / (n + 1.0), delta, 1.0 - delta)
        g = stats.norm.ppf(u)
        g = g - g.mean()
        sd = g.std(ddof=1)
        values[:, j] = g / sd
    return TransformedMatrix(values=values)

