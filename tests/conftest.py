import tracemalloc

import numpy as np
import pytest

from missgraph import Category, Dataset, VariableMeta


def make_dataset(columns: dict[str, list], categories: dict[str, Category] | None = None) -> Dataset:
    """Build a Dataset from name -> list of floats (None marks missing)."""
    categories = categories or {}
    names = list(columns)
    n = len(next(iter(columns.values())))
    values = np.empty((n, len(names)))
    mask = np.ones((n, len(names)), dtype=bool)
    for j, name in enumerate(names):
        for i, cell in enumerate(columns[name]):
            if cell is None:
                values[i, j] = np.nan
                mask[i, j] = False
            else:
                values[i, j] = float(cell)
    metas = tuple(
        VariableMeta(name=name, category=categories.get(name, Category.OTHER))
        for name in names
    )
    return Dataset(metas=metas, values=values, mask=mask)


def residual_partial_corr(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """Independent oracle: correlate the residuals of x~Z and y~Z."""
    z = np.column_stack([np.ones(len(x)), np.atleast_2d(z.T).T])
    rx = x - z @ np.linalg.lstsq(z, x, rcond=None)[0]
    ry = y - z @ np.linalg.lstsq(z, y, rcond=None)[0]
    return float(np.corrcoef(rx, ry)[0, 1])


def traced_peak(call):
    """``call()`` and the peak of the memory traced during it above the level
    at its start, in bytes; tracemalloc sees numpy's array buffers too."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
