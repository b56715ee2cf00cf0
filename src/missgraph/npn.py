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
computed once per n (:func:`normal_scores`).  The table is ``special.ndtri``,
the function ``stats.norm.ppf`` evaluates, of the Winsorized
``rankdata / (n + 1)``, so the result equals the rank-then-ppf route bit for
bit.

Every transform reads its mid-ranks off counts (:class:`FillRanks`).  One
labelling sort per analysis, of each column once, gives each distinct observed
value of each column an id, ascending within the column: each block of columns
is one 2-D problem on its transpose, where each column is a contiguous row,
and one row-wise sort starts a new id wherever the sorted value changes.
Holes are set to ``+inf`` first, so they sort after every (finite) observed
cell and take no id.  Every hole of a hot-deck member holds a copy of an
observed cell, so the run of a value is as long as its count, its observed
cells plus its draws, and starts at ``first``, the counts of the column's
smaller values summed.  That run holds twice the mid-rank
``2 * first + count + 1`` (the rule of
``scipy.stats.rankdata(method="average")``).  One table lookup per value and
one gather give the scores, and the row-wise mean and standard deviation
reduce each column exactly as a 1-D column would.  A complete column is the
case with no holes and no draws (:func:`nonparanormal_transform`), whose
result, a :class:`TransformedMatrix`, is array-like: numpy reads its values.
A complete matrix is labelled and transformed one block of columns at a time,
so that beside its input and output it needs only the 128 KiB blocks of
``_BLOCK_CELLS``, whatever its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ContractError, DegenerateColumnError

#: Columns are transformed in blocks of at most this many cells, so that each
#: temporary array of the labelling sort and of the scores stays within 128
#: KiB; a complete matrix builds its id tables one block at a time too.
#: Larger arrays are typically fresh memory mappings whose pages fault on
#: first touch: one 2000 x 25 block took about 1,000 minor page faults per
#: call, and the columns one at a time none.
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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # ``values`` itself; a copy only for numpy 2's copy=True.
        return (np.array if copy else np.asarray)(self.values, dtype=dtype)


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
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix must be complete (impute first)")
    _require_rows(n)
    labels = names or [f"#{t}" for t in range(p)]
    values = np.empty((n, p))
    # Exact block by block: a column's scores depend on its own ranks only.
    width = _columns_per_block(n)
    for lo in range(0, p, width):
        hi = min(lo + width, p)
        no_draws = [np.empty(0, dtype=np.intp)] * (hi - lo)
        ranks = FillRanks.of(m[:, lo:hi], labels[lo:hi])
        ranks.transform(no_draws, values, np.arange(lo, hi))
    return TransformedMatrix(values=values)


def _require_rows(n: int) -> None:
    if n < 8:
        raise ContractError(f"need at least 8 rows to transform, got {n}")


def _columns_per_block(n: int) -> int:
    return max(1, _BLOCK_CELLS // n)


@dataclass(frozen=True)
class FillRanks:
    """Rank transform of columns whose holes hold copies of observed cells.

    :meth:`of` gives each distinct observed value (a pool value) of each
    column an id, ascending within a column, by one sort per analysis.  A
    member's run of a value is as long as its count, the observed cells plus
    the draws, and starts at ``first``, the counts of the column's smaller
    values summed; :meth:`transform` then applies the mid-rank rule without
    a sort.
    """

    cell_ids: np.ndarray  # (q, n): each cell's id; transform fills a copy's holes
    hole_cells: np.ndarray  # flat position in cell_ids of each hole
    pool_ids: np.ndarray  # the id of each observed cell, column by column
    pool_starts: np.ndarray  # per hole: where its column's pool_ids start
    observed: np.ndarray  # per id: the number of observed cells
    column_starts: np.ndarray  # per id: t * n, for its column t

    @classmethod
    def of(cls, columns: np.ndarray, names: list[str] | None = None) -> FillRanks:
        """The tables of the ``(n, q)`` float block ``columns``: NaN in its
        holes, finite in its observed cells, column t's pool being its
        observed cells in row order.

        Raises
        ------
        ContractError for n < 8;
        DegenerateColumnError for the first column with fewer than two
        distinct observed values.
        """
        n, q = columns.shape
        _require_rows(n)
        in_hole = np.empty((q, n), dtype=bool)
        cell_ids = np.empty((q, n), dtype=np.intp)
        sizes = np.empty(q, dtype=np.intp)  # distinct observed values
        next_id = 0
        width = _columns_per_block(n)
        for lo in range(0, q, width):
            hi = min(lo + width, q)
            block = columns[:, lo:hi].T.copy()  # C-contiguous, holes overwritten
            holes = in_hole[lo:hi]
            np.isnan(block, out=holes)
            block[holes] = np.inf
            # The sort order, then made the flat index of each sorted cell.
            at = np.argsort(block, axis=1)
            at += np.arange(0, block.size, n)[:, None]
            ordered = block.take(at)
            # Every row starts a run, so no run of the flattened rows crosses
            # a row; the holes sort last and start none.
            new = np.empty(block.shape, dtype=bool)
            new[:, 0] = True
            np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
            new &= ordered < np.inf
            new.sum(axis=1, out=sizes[lo:hi])
            degenerate = np.flatnonzero(sizes[lo:hi] < 2)
            if degenerate.size:
                t = lo + degenerate[0]
                name = names[t] if names else f"#{t}"
                raise DegenerateColumnError(name, "cannot be rank-transformed")
            # The ids of earlier columns come first.
            ids = np.cumsum(new)
            ids += next_id - 1
            next_id = ids[-1] + 1
            cell_ids[lo:hi].put(at, ids)
        # Row-major order lists the cells column by column, in row order.
        pool_ids = cell_ids[~in_hole]
        hole_counts = in_hole.sum(axis=1)
        pool_starts = np.arange(q) * n - (np.cumsum(hole_counts) - hole_counts)
        ranks = cls(
            cell_ids=cell_ids,
            hole_cells=np.flatnonzero(in_hole),
            pool_ids=pool_ids,
            pool_starts=np.repeat(pool_starts, hole_counts),
            observed=np.bincount(pool_ids, minlength=next_id),
            column_starts=np.repeat(np.arange(q) * n, sizes),
        )
        for array in vars(ranks).values():
            array.setflags(write=False)  # shared by every member
        return ranks

    def transform(
        self, draws: list[np.ndarray], out: np.ndarray, columns: np.ndarray
    ) -> None:
        """Write the transform of one member into ``out[:, columns]``.

        ``draws[t]`` lists, for each hole of column t in row order, the
        position of the cell it copies among the column's observed cells in
        row order (:func:`impute.hot_deck_draws`).
        """
        q, n = self.cell_ids.shape
        if not q:
            return
        fills = self.pool_ids[np.concatenate(draws) + self.pool_starts]
        ids = self.cell_ids.copy()
        ids.put(self.hole_cells, fills)
        counts = self.observed + np.bincount(fills, minlength=self.observed.size)
        first = np.cumsum(counts) - counts - self.column_starts
        # Twice the mid-rank is 2*first + count + 1; its table entry sits 2 lower.
        scores = normal_scores(n)[2 * first + counts - 1]
        width = _columns_per_block(n)
        for lo in range(0, q, width):
            hi = min(lo + width, q)
            g = scores.take(ids[lo:hi])
            centred = g - g.mean(axis=1, keepdims=True)
            out[:, columns[lo:hi]] = (
                centred / centred.std(axis=1, ddof=1, keepdims=True)
            ).T
