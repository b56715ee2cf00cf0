"""Completeness indicators: one binary column per partially observed variable.

An indicator is 1 where the parent cell is observed and 0 where it is missing.
Fully observed and fully missing columns would yield constant indicators,
which carry no correlation information, so they get none: their names are
recorded in ``excluded_constant``.  A fully observed column stays in the
analysis; a fully missing one cannot be imputed, and ``analyze_dataset``
rejects it with ``UnimputableColumnError`` before the first member.
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
    """A Dataset plus the completeness indicators derived from its mask."""

    base: Dataset
    indicator_metas: tuple[VariableMeta, ...]
    indicator_values: np.ndarray  # (n_rows, n_indicators) of {0.0, 1.0}
    excluded_constant: tuple[str, ...]

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

    @property
    def n_cols(self) -> int:
        return self.base.n_cols + len(self.indicator_metas)

    def to_dataset(self) -> Dataset:
        """Concatenate base columns (mask intact) with the indicator columns."""
        values = np.hstack([self.base.values, self.indicator_values])
        mask = np.hstack(
            [self.base.mask, np.ones_like(self.indicator_values, dtype=bool)]
        )
        return Dataset(metas=self.metas, values=values, mask=mask)


def make_completeness_indicators(dataset: Dataset) -> AugmentedDataset:
    """Build the indicator columns for every mixed-status variable.

    A variable contributes an indicator exactly when it has at least one
    missing and at least one observed entry; the indicator equals 1 where the
    mask is True.  Indicators are a pure function of the mask, never of the
    values.  An indicator named like a data column is a ``SchemaError``.
    """
    metas: list[VariableMeta] = []
    columns: list[np.ndarray] = []
    excluded: list[str] = []
    for j, meta in enumerate(dataset.metas):
        observed = dataset.mask[:, j]
        n_obs = int(observed.sum())
        if 0 < n_obs < dataset.n_rows:
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
            columns.append(observed.astype(float))
        else:
            excluded.append(meta.name)
    values = (
        np.column_stack(columns) if columns else np.empty((dataset.n_rows, 0))
    )
    return AugmentedDataset(
        base=dataset,
        indicator_metas=tuple(metas),
        indicator_values=values,
        excluded_constant=tuple(excluded),
    )
