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
from .errors import ContractError, UnimputableColumnError

SEED_SPLIT_CONSTANT = 0x9E3779B97F4A7C15
#: Master seeds lie in [0, SEED_LIMIT): split_seed reads its seed modulo
#: 2**64, so one outside would alias the seed inside with the same low bits.
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1


def split_seed(master_seed: int, k: int) -> int:
    """Derive the k-th child seed from a master seed (documented XOR rule)."""
    return (int(master_seed) ^ ((k * SEED_SPLIT_CONSTANT) & _MASK64)) & _MASK64


def hot_deck_draws(augmented: AugmentedDataset, seed: int) -> list[np.ndarray]:
    """Seeded hot-deck draws: for each imputed column, in column order, the
    position, among its observed cells in row order, of each hole's cell.

    One ``rng.integers(0, size, size=n_rows - size)`` per column, ``size`` in
    ``augmented.pool_sizes``, from one generator seeded with ``seed``: the
    call ``rng.choice(size, ...)`` makes, so it draws the same positions.

    Raises
    ------
    ContractError if ``seed`` lies outside [0, 2**64), the range of
    :func:`split_seed`;
    UnimputableColumnError if a column has missing cells but nothing observed.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must be inside [0, 2**64), got {seed}")
    rng = np.random.default_rng(seed)
    draws = []
    for j, size in zip(augmented.imputed, augmented.pool_sizes):
        if size == 0:
            raise UnimputableColumnError(augmented.base.metas[j].name)
        draws.append(rng.integers(0, size, size=augmented.n_rows - size))
    return draws


def hot_deck_impute(augmented: AugmentedDataset, draws: list[np.ndarray]) -> np.ndarray:
    """Return the complete matrix over the augmented variable set that
    ``draws`` (from :func:`hot_deck_draws`) describes.

    A copy of ``augmented.values`` whose missing cells hold the observed
    cells that ``draws`` picks, in row order.  Observed cells and the
    indicator columns pass through unchanged.
    """
    filled = augmented.values.copy()
    for j, idx in zip(augmented.imputed, draws):
        m = augmented.base.mask[:, j]
        filled[~m, j] = filled[m, j][idx]
    return filled
