"""Completeness indicators and the column layout of the augmented table.

An indicator is 1 where the parent cell is observed and 0 where it is missing.
Fully observed and fully missing columns would yield constant indicators,
which carry no correlation information, so they get none: their names are
recorded in ``excluded_constant``.  A fully observed column stays in the
analysis; a fully missing one cannot be imputed, and ``analyze_dataset``
rejects it with ``UnimputableColumnError`` before the first member.

:func:`make_completeness_indicators` decides each column's role once, and
every later stage reads that layout: the augmented matrix, the base columns
that hot-deck imputation fills and how many observed cells each draws from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, VariableMeta, VarKind
from .errors import SchemaError

#: Suffix appended to a variable's name to form its indicator's name.
INDICATOR_SUFFIX = "__observed"


def indicator_name(parent: str) -> str:
    return parent + INDICATOR_SUFFIX


@dataclass(frozen=True)
class AugmentedDataset:
    """A Dataset plus the completeness indicators derived from its mask.

    ``values``, ``imputed`` and ``pool_sizes`` are read-only arrays, shared
    by every member; a member's fill is its draws (``impute.hot_deck_draws``).
    """

    base: Dataset
    indicator_metas: tuple[VariableMeta, ...]
    values: np.ndarray  # base columns, then indicators; NaN = missing
    imputed: np.ndarray  # base columns with a missing cell, ascending
    pool_sizes: np.ndarray  # each imputed column's number of observed cells
    excluded_constant: tuple[str, ...]

    @property
    def indicator_values(self) -> np.ndarray:
        """The indicator columns of ``values`` (a view), of {0.0, 1.0}."""
        return self.values[:, self.base.n_cols:]

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    @property
    def metas(self) -> tuple[VariableMeta, ...]:
        """Observation metas followed by indicator metas, in column order."""
        return self.base.metas + self.indicator_metas

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.metas]


def make_completeness_indicators(dataset: Dataset) -> AugmentedDataset:
    """Build the indicator columns for every mixed-status variable.

    A variable contributes an indicator exactly when it has at least one
    missing and at least one observed entry; the indicator equals 1 where the
    mask is True.  Indicators are a pure function of the mask, never of the
    values.  An indicator named like a data column is a ``SchemaError``.
    """
    n_observed = dataset.mask.sum(axis=0)
    imputed = np.flatnonzero(n_observed < dataset.n_rows)
    partial = (n_observed > 0) & (n_observed < dataset.n_rows)
    metas: list[VariableMeta] = []
    excluded: list[str] = []
    for meta, has_indicator in zip(dataset.metas, partial):
        if has_indicator:
            name = indicator_name(meta.name)
            if name in dataset.names:
                raise SchemaError(
                    f"column {name!r} clashes with the indicator of {meta.name!r}"
                )
            metas.append(
                VariableMeta(
                    name=name,
                    category=meta.category,
                    kind=VarKind.COMPLETENESS,
                    parent=meta.name,
                )
            )
        else:
            excluded.append(meta.name)
    values = np.hstack([dataset.values, dataset.mask[:, partial].astype(float)])
    pool_sizes = n_observed[imputed]
    for array in (values, imputed, pool_sizes):
        array.setflags(write=False)  # shared by every member
    return AugmentedDataset(
        base=dataset,
        indicator_metas=tuple(metas),
        values=values,
        imputed=imputed,
        pool_sizes=pool_sizes,
        excluded_constant=tuple(excluded),
    )
