"""Hot-deck imputation: fill each missing cell with a uniform draw (with
replacement) from the observed entries of the same column.

Mechanism-blind draws are essential here: an imputed column is marginally
uncorrelated with its own completeness indicator, so any surviving partial
correlation between the two must be carried by third variables.  Model-based
imputation would destroy that null and is deliberately out of scope.

Seeding
-------
Member ``k`` (1-based) of an ensemble uses ``split_seed(master_seed, k)``
where ``split_seed(s, k) = (s XOR (k * 0x9E3779B97F4A7C15)) mod 2**64``.
The constant is the 64-bit golden-ratio multiplier; the rule is fixed so runs
reproduce bit-identically across platforms.
"""

from __future__ import annotations

import numpy as np

from .augment import AugmentedDataset
from .errors import UnimputableColumnError

SEED_SPLIT_CONSTANT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def split_seed(master_seed: int, k: int) -> int:
    """Derive the k-th child seed from a master seed (documented XOR rule)."""
    return (int(master_seed) ^ ((k * SEED_SPLIT_CONSTANT) & _MASK64)) & _MASK64


def hot_deck_draws(augmented: AugmentedDataset, seed: int) -> list[np.ndarray]:
    """Seeded hot-deck draws: for each imputed column, in column order, the
    position in ``augmented.pools`` of the cell copied into each hole.

    One ``rng.choice(pool.size, size=holes)`` per column, from one generator
    seeded with ``seed``.  It draws the same positions that
    ``rng.choice(pool, size=holes)`` draws values from.

    Raises
    ------
    UnimputableColumnError if a column has missing cells but nothing observed.
    """
    rng = np.random.default_rng(int(seed) & _MASK64)
    draws = []
    for j, rows, pool in zip(augmented.imputed, augmented.holes, augmented.pools):
        if pool.size == 0:
            raise UnimputableColumnError(augmented.base.metas[j].name)
        draws.append(rng.choice(pool.size, size=rows.size))
    return draws


def hot_deck_impute(
    augmented: AugmentedDataset, seed: int, draws: list[np.ndarray] | None = None
) -> np.ndarray:
    """Return one complete matrix over the augmented variable set.

    A copy of ``augmented.values`` whose missing cells, the rows
    ``augmented.holes`` lists, hold the pool cells that ``draws`` picks;
    ``draws`` defaults to ``hot_deck_draws(augmented, seed)``.
    Observed cells and the indicator columns pass through unchanged.

    Raises
    ------
    UnimputableColumnError if a column has missing cells but nothing observed.
    """
    if draws is None:
        draws = hot_deck_draws(augmented, seed)
    filled = augmented.values.copy()
    for j, rows, pool, idx in zip(
        augmented.imputed, augmented.holes, augmented.pools, draws
    ):
        filled[rows, j] = pool[idx]
    return filled
