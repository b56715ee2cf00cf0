"""Input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
arrays, the same CSV bytes and the same ground truth.  The shapes (names,
rates, mechanisms) are fixed per workload; only the drawn values and masks
depend on the seed.

``WORKLOADS`` maps a workload name to its full-size parameters.  The
self-test calls the same generators with a tiny ``n`` and ``k``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from missgraph.dataset import Category, Dataset, write_csv
from missgraph.impute import split_seed
from missgraph.simulate import (
    GroundTruth,
    MechanismSpec,
    ar1_precision,
    simulate_dataset,
)


@dataclass(frozen=True)
class Shape:
    """Size parameters of one workload."""

    n: int
    k: int  # ensemble size (n_imputations)
    n_rotations: int = 20
    via_cli: bool = True  # False: in-memory analyze_dataset


WORKLOADS = {
    # Acceptance criteria 4-6 shape: lambda selection dominates at p=5.
    "acceptance": Shape(n=5000, k=25, via_cli=False),
    # The 23-variable clinical profile of acceptance criterion 9.
    "clinical": Shape(n=1000, k=25),
    # 80-variable AR(1) chain: one giant screening block, large report.
    "wide": Shape(n=2000, k=10),
}


# --------------------------------------------------------------------------
# acceptance: a, w, z with corr(a, w) = 0.6, MNAR on a, MAR on w driven by z


def acceptance_replicate(seed: int, n: int) -> tuple[Dataset, GroundTruth]:
    cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
    precision = np.linalg.inv(cov)
    precision = (precision + precision.T) / 2.0
    specs = [
        MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5),
        # MAR on w, its probability read off z (the fourth field)
        MechanismSpec("MAR", "w", 0.2, "z", 1.5),
    ]
    return simulate_dataset(precision, n, ("a", "w", "z"), specs, seed=seed)


# --------------------------------------------------------------------------
# clinical: names, categories and missing proportions of criterion 9

CLINICAL_PROFILE = (
    ("heart_rate", Category.VITAL_PHYSIOLOGY, 0.016),
    ("systolic_bp", Category.VITAL_PHYSIOLOGY, 0.024),
    ("diastolic_bp", Category.VITAL_PHYSIOLOGY, 0.035),
    ("temperature", Category.VITAL_PHYSIOLOGY, 0.095),
    ("resp_rate", Category.VITAL_PHYSIOLOGY, 0.027),
    ("fio2", Category.VITAL_PHYSIOLOGY, 0.036),
    ("pf_ratio", Category.VITAL_PHYSIOLOGY, 0.624),
    ("urine_vol_1h", Category.VITAL_PHYSIOLOGY, 0.428),
    ("sf_ratio", Category.VITAL_PHYSIOLOGY, 0.057),
    ("avpu", Category.VITAL_PHYSIOLOGY, 0.093),
    ("ph", Category.BLOOD_TESTS, 0.59),
    ("sodium", Category.BLOOD_TESTS, 0.137),
    ("wcc", Category.BLOOD_TESTS, 0.149),
    ("urea", Category.BLOOD_TESTS, 0.159),
    ("creatinine", Category.BLOOD_TESTS, 0.137),
    ("platelets", Category.BLOOD_TESTS, 0.154),
    ("bilirubin", Category.BLOOD_TESTS, 0.39),
    ("lactate", Category.BLOOD_TESTS, 0.727),
    ("age", Category.DEMOGRAPHICS, 0.0),
    ("male", Category.DEMOGRAPHICS, 0.0),
    ("died_7d", Category.MORTALITY, 0.0),
    ("died_28d", Category.MORTALITY, 0.0),
    ("died_90d", Category.MORTALITY, 0.0),
)
CLINICAL_WITHIN_CATEGORY_CORR = 0.4
CLINICAL_BINARY = {"male": 0.5, "died_7d": 0.1, "died_28d": 0.2, "died_90d": 0.3}
CLINICAL_AVPU_LEVELS = (0.80, 0.90, 0.96)  # cumulative shares of levels 0..2
CLINICAL_SLOPE = 1.5


def _clinical_precision() -> np.ndarray:
    cats = [cat for _, cat, _ in CLINICAL_PROFILE]
    same = np.array([[a is b for b in cats] for a in cats])
    cov = np.where(same, CLINICAL_WITHIN_CATEGORY_CORR, 0.0)
    np.fill_diagonal(cov, 1.0)
    precision = np.linalg.inv(cov)
    return (precision + precision.T) / 2.0


def clinical_dataset(seed: int, n: int) -> tuple[Dataset, GroundTruth]:
    """Equicorrelated-within-category latent table with the criterion-9 holes.

    lactate is MNAR and pf_ratio is MAR on fio2, both at their profile
    rates; every other partially observed column is MCAR with exactly
    ``round(proportion * n)`` missing cells.  ``male`` and ``died_*`` are
    0/1 and ``avpu`` has four levels, so rank ties occur.
    """
    names = tuple(name for name, _, _ in CLINICAL_PROFILE)
    rates = {name: rate for name, _, rate in CLINICAL_PROFILE}
    categories = {name: cat for name, cat, _ in CLINICAL_PROFILE}
    specs = [
        MechanismSpec(
            kind="MNAR", target="lactate", rate=rates["lactate"], slope=CLINICAL_SLOPE
        ),
        # MAR on pf_ratio, its probability read off fio2 (the fourth field)
        MechanismSpec("MAR", "pf_ratio", rates["pf_ratio"], "fio2", CLINICAL_SLOPE),
    ]
    informative, truth = simulate_dataset(
        _clinical_precision(), n, names, specs, seed=seed, categories=categories
    )
    values = truth.latent.copy()
    for name, share_zero in CLINICAL_BINARY.items():
        j = names.index(name)
        values[:, j] = (values[:, j] > np.quantile(values[:, j], share_zero)) * 1.0
    j = names.index("avpu")
    cuts = np.quantile(values[:, j], CLINICAL_AVPU_LEVELS)
    values[:, j] = np.searchsorted(cuts, values[:, j]).astype(float)

    mask = informative.mask.copy()
    rng = np.random.default_rng(split_seed(seed, 1000))
    mechanism_targets = {spec.target for spec in specs}
    for j, name in enumerate(names):
        if name in mechanism_targets:
            continue
        k = round(rates[name] * n)
        mask[rng.choice(n, size=k, replace=False), j] = False
    values[~mask] = np.nan
    dataset = Dataset(metas=informative.metas, values=values, mask=mask)
    return dataset, truth


# --------------------------------------------------------------------------
# wide: 80-variable AR(1) chain, 20 MCAR and 5 MNAR columns

WIDE_P = 80
WIDE_RHO = 0.4
WIDE_TARGETS = tuple(range(0, 75, 3))  # 25 columns spread along the chain
WIDE_MNAR = WIDE_TARGETS[2::5]  # 5 of them


def wide_dataset(seed: int, n: int) -> tuple[Dataset, GroundTruth]:
    names = tuple(f"v{j:02d}" for j in range(WIDE_P))
    specs = [
        MechanismSpec(kind="MNAR", target=names[j], rate=0.2, slope=1.5)
        if j in WIDE_MNAR
        else MechanismSpec(kind="MCAR", target=names[j], rate=0.2)
        for j in WIDE_TARGETS
    ]
    return simulate_dataset(
        ar1_precision(WIDE_P, WIDE_RHO), n, names, specs, seed=seed
    )


GENERATORS = {
    "acceptance": acceptance_replicate,
    "clinical": clinical_dataset,
    "wide": wide_dataset,
}


def replicate_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th (0-based) replicate of a benchmark seed."""
    return split_seed(seed, index + 1)


def write_inputs(dataset: Dataset, directory: Path) -> tuple[Path, Path]:
    """Write ``input.csv`` and ``schema.json`` for a CLI analysis."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "input.csv"
    schema_path = directory / "schema.json"
    write_csv(dataset, csv_path)
    schema = {m.name: m.category.value for m in dataset.metas}
    schema_path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    return csv_path, schema_path
