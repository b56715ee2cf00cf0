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
computed once per n (:func:`normal_scores`).  Each block of columns is then
one 2-D problem on its transpose, where each column is a contiguous row: one
row-wise sort gives the runs of equal values, and a run of ``size`` cells
that starts at sorted position ``first`` holds twice the mid-rank
``2 * first + size + 1`` (the rule of
``scipy.stats.rankdata(method="average")``).  One table lookup per run and
one scatter give the scores, and the row-wise mean and standard deviation
reduce each column exactly as a 1-D column would.  The table is
``special.ndtri``, the function ``stats.norm.ppf`` evaluates, of the
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

#: Columns are transformed in blocks of at most this many cells, so that each
#: temporary array stays within 128 KiB.  Larger arrays are typically fresh
#: memory mappings whose pages fault on first touch: one 2000 x 25 block took
#: about 1,000 minor page faults per call, and the columns one at a time none.
_BLOCK_CELLS = 1 << 14


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
    values = np.empty((n, p))
    width = max(1, _BLOCK_CELLS // n)
    for lo in range(0, p, width):
        block = np.ascontiguousarray(m[:, lo:lo + width].T)
        values[:, lo:lo + width] = _gaussianize_rows(block, names, lo).T
    return TransformedMatrix(values=values)


def _gaussianize_rows(
    mt: np.ndarray, names: list[str] | None, offset: int
) -> np.ndarray:
    """The transform of each row of ``mt``: a C-contiguous ``(p, n)`` block of
    transposed columns, the first of which is column ``offset``."""
    p, n = mt.shape
    at = np.argsort(mt, axis=1)  # then made the flat index of each sorted cell
    at += np.arange(0, p * n, n)[:, None]
    ordered = mt.take(at)
    constant = np.flatnonzero(ordered[:, 0] == ordered[:, -1])
    if constant.size:
        j = offset + constant[0]
        name = names[j] if names else f"#{j}"
        raise DegenerateColumnError(name, "cannot be rank-transformed")
    # Every row starts a run, so no run of the flattened rows crosses a row.
    new_run = np.empty((p, n), dtype=bool)
    new_run[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_run[:, 1:])
    first = np.flatnonzero(new_run)
    size = np.diff(first, append=p * n)
    first %= n
    # Twice the mid-rank is 2*first + size + 1; its table entry sits 2 lower.
    g = np.empty((p, n))
    g.put(at, np.repeat(normal_scores(n)[2 * first + size - 1], size))
    centred = g - g.mean(axis=1, keepdims=True)
    return centred / centred.std(axis=1, ddof=1, keepdims=True)
