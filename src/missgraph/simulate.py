"""Synthetic Gaussian data with controlled missingness mechanisms.

Mechanisms use a logistic link so every cell has an analytic missingness
probability:

    MCAR   P(missing_i) = rate
    MAR    P(missing_i) = expit(logit(rate) + slope * driver_i)
    MNAR   P(missing_i) = expit(logit(rate) + slope * target_i)

MAR reads the probability off another (fully observed) variable; MNAR reads
it off the target's own latent value.  The latent values and per-cell
probabilities are retained in :class:`GroundTruth` so detection results can
be scored against what actually generated the data.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, logit

from .augment import indicator_name
from .dataset import Category, Dataset, VariableMeta, VarKind
from .errors import ConfigError, ContractError, MissgraphError
from .ggm import positive_definite
from .impute import SEED_LIMIT, split_seed
from .pipeline import AnalysisConfig, analyze_dataset
from .report import json_record, read_dataclass


class MechanismKind(str, enum.Enum):
    MCAR = "MCAR"
    MAR = "MAR"
    MNAR = "MNAR"


@dataclass(frozen=True)
class MechanismSpec:
    """One missingness mechanism acting on one target variable."""

    kind: MechanismKind
    target: str
    rate: float
    driver: str | None = None
    slope: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", MechanismKind(self.kind))
        if not 0.0 < self.rate < 1.0:
            raise ContractError(f"rate must be inside (0, 1), got {self.rate}")
        if self.kind is MechanismKind.MAR:
            if not self.driver:
                raise ContractError("MAR mechanism needs a driver variable")
            if self.driver == self.target:
                raise ContractError("MAR driver must differ from the target")
        elif self.driver is not None:
            raise ContractError(f"{self.kind.value} mechanism takes no driver")
        if not np.isfinite(self.slope):
            raise ContractError("slope must be finite")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GroundTruth:
    """Everything needed to regenerate and score one synthetic dataset."""

    precision: np.ndarray
    specs: tuple[MechanismSpec, ...]
    probabilities: np.ndarray  # (n, p) true per-cell missingness probability
    names: tuple[str, ...]
    n: int
    seed: int
    latent: np.ndarray = field(repr=False)

    def expected_arcs(self) -> set[tuple[str, str]]:
        """(observation, completeness-parent) pairs the mechanisms imply."""
        arcs = set()
        for spec in self.specs:
            comp = indicator_name(spec.target)
            if spec.kind is MechanismKind.MNAR:
                arcs.add((spec.target, comp))
            elif spec.kind is MechanismKind.MAR:
                arcs.add((spec.driver, comp))
        return arcs

    def indirect_arcs(self) -> set[tuple[str, str]]:
        """Pairs outside ``expected_arcs`` whose observation is a precision
        neighbour of a mechanism's source (the MNAR target, the MAR driver):
        the witness arcs MNAR detection relies on."""
        arcs = set()
        for spec in self.specs:
            if spec.kind is not MechanismKind.MCAR:
                row = self.precision[self.names.index(spec.driver or spec.target)]
                comp = indicator_name(spec.target)
                arcs.update((v, comp) for v, w in zip(self.names, row) if w != 0)
        return arcs - self.expected_arcs()

    def to_dict(self) -> dict:
        """``truth.json``: a spec ``simulate_spec`` regenerates this truth from."""
        return {
            "names": list(self.names),
            "n": self.n,
            "seed": self.seed,
            "precision": self.precision.tolist(),
            "mechanisms": [json_record(s) for s in self.specs],
        }


@dataclass(frozen=True)
class _PrecisionTemplate:
    """``{"type": "identity", "p": k}`` or ``{"type": "ar1", "p": k, "rho": r}``."""

    type: str
    p: int
    rho: float | None = None

    def matrix(self) -> np.ndarray:
        if self.p < 1:
            raise ContractError(f"precision template needs p >= 1, got {self.p}")
        if self.type == "identity":
            return np.eye(self.p)
        if self.type == "ar1" and self.rho is not None:
            return ar1_precision(self.p, self.rho)
        raise ConfigError(
            f"precision template must be identity or ar1 with rho, got {self.type!r}"
        )


@dataclass(frozen=True)
class _Spec:
    """The JSON spec of one simulation; ``GroundTruth.to_dict`` writes one."""

    n: int
    names: list[str]
    precision: list[list[float]] | _PrecisionTemplate
    mechanisms: list[MechanismSpec]
    seed: int = 0
    categories: dict[str, Category] = field(default_factory=dict)


def simulate_spec(spec: dict) -> tuple[Dataset, GroundTruth]:
    """Simulate a parsed JSON spec; a malformed one is a ConfigError, a value
    :func:`simulate_dataset` rejects (such as n < 1) a ContractError."""
    s = read_dataclass(_Spec, spec, "spec")
    precision = s.precision
    if isinstance(precision, _PrecisionTemplate):
        precision = precision.matrix()
    return simulate_dataset(
        precision, s.n, s.names, s.mechanisms, s.seed, s.categories
    )


def generate_gaussian(precision: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. rows from N(0, precision^{-1}), deterministically per seed;
    ContractError unless the precision and its inverse are finite and SPD.
    The covariance is an LU inverse (``np.linalg.inv``), not a Cholesky one:
    every simulated draw, and so every benchmark input, carries its bits."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    m, _ = positive_definite(precision, "precision matrix")
    cov = np.linalg.inv(m)
    _, chol = positive_definite((cov + cov.T) / 2.0, "precision matrix's inverse")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m.shape[0])) @ chol.T


def ar1_precision(p: int, rho: float) -> np.ndarray:
    """Tridiagonal precision of an AR(1) chain with lag-one correlation rho."""
    if not -1.0 < rho < 1.0:
        raise ContractError("AR(1) correlation must be inside (-1, 1)")
    theta = np.zeros((p, p))
    scale = 1.0 / (1.0 - rho * rho)
    for i in range(p):
        theta[i, i] = scale * (1.0 + rho * rho) if 0 < i < p - 1 else scale
    for i in range(p - 1):
        theta[i, i + 1] = theta[i + 1, i] = -rho * scale
    return theta


def _probability_column(
    latent: np.ndarray, names: tuple[str, ...], spec: MechanismSpec
) -> np.ndarray:
    if spec.target not in names:
        raise ContractError(f"mechanism target {spec.target!r} not in variables")
    if spec.kind is MechanismKind.MCAR:
        return np.full(latent.shape[0], spec.rate)
    if spec.driver is not None and spec.driver not in names:
        raise ContractError(f"mechanism driver {spec.driver!r} not in variables")
    source = latent[:, names.index(spec.driver or spec.target)]
    return expit(logit(spec.rate) + spec.slope * source)


def _probability_matrix(
    latent: np.ndarray, names: tuple[str, ...], specs: tuple[MechanismSpec, ...]
) -> np.ndarray:
    targets = [s.target for s in specs]
    if len(set(targets)) != len(targets):
        raise ContractError("each target may carry at most one mechanism")
    probs = np.zeros_like(latent)
    for spec in specs:
        probs[:, names.index(spec.target)] = _probability_column(
            latent, names, spec
        )
    return probs


def _mask(
    latent: np.ndarray,
    names: tuple[str, ...],
    specs: tuple[MechanismSpec, ...],
    probs: np.ndarray,
    categories: dict[str, Category] | None = None,
) -> Dataset:
    """Hide the cells of ``latent`` that each spec's seeded draw marks missing."""
    mask = np.ones(latent.shape, dtype=bool)
    for spec in specs:
        j = names.index(spec.target)
        rng = np.random.default_rng(spec.seed)
        mask[:, j] = ~(rng.random(latent.shape[0]) < probs[:, j])
    values = latent.copy()
    values[~mask] = np.nan
    categories = categories or {}
    metas = tuple(
        VariableMeta(name=name, category=categories.get(name, Category.OTHER))
        for name in names
    )
    return Dataset(metas=metas, values=values, mask=mask)


def simulate_dataset(
    precision: np.ndarray,
    n: int,
    names: list[str] | tuple[str, ...],
    specs: list[MechanismSpec] | tuple[MechanismSpec, ...],
    seed: int = 0,
    categories: dict[str, Category] | None = None,
) -> tuple[Dataset, GroundTruth]:
    """Generate a masked dataset plus the ground truth that produced it.

    The latent draw uses ``split_seed(seed, 1)``; mechanism ``i`` (0-based)
    draws with ``split_seed(seed, 2 + i)`` unless its spec carries a nonzero
    seed of its own.
    """
    names = tuple(names)
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must be inside [0, 2**64), got {seed}")
    if len(set(names)) != len(names):
        raise ContractError("variable names must be unique")
    unknown = sorted(set(categories or {}) - set(names))
    if unknown:
        raise ContractError(f"categories for unknown variables: {', '.join(unknown)}")
    precision, _ = positive_definite(precision, "precision matrix")
    if len(names) != precision.shape[0]:
        raise ContractError("one name per precision row required")
    latent = generate_gaussian(precision, n, split_seed(seed, 1))
    seeded = tuple(
        spec if spec.seed else replace(spec, seed=split_seed(seed, 2 + i))
        for i, spec in enumerate(specs)
    )
    truth = GroundTruth(
        precision=precision,
        specs=seeded,
        probabilities=_probability_matrix(latent, names, seeded),
        names=names,
        n=n,
        seed=seed,
        latent=latent,
    )
    dataset = _mask(latent, names, seeded, truth.probabilities, categories)
    return dataset, truth


def regenerate_dataset(truth: GroundTruth) -> Dataset:
    """Rebuild the masked dataset a GroundTruth describes, bit-identically."""
    return _mask(truth.latent, truth.names, truth.specs, truth.probabilities)


def run_benchmark(truths: list[GroundTruth], config=None) -> dict:
    """Score arc recovery of the full pipeline against known mechanisms.

    Every ground truth is replayed through the analysis pipeline; recovered
    arcs are compared with the arcs its mechanisms imply.  Replicate-level
    pipeline errors are recorded and do not abort the batch.

    Returns a JSON-ready dict with, per mechanism kind:

    - MNAR: ``self_arc_power`` (share of targets whose target/indicator arc
      was flagged) and ``witness_rate`` (share of flagged targets with at
      least one witness);
    - MAR: ``driver_arc_power`` and ``self_arc_rate`` (false self arcs);
    - every kind: ``false_arc_rate``, the share of observation/indicator
      pairs flagged although no mechanism implies them, directly
      (``expected_arcs``) or through a witness (``indirect_arcs``).
    """
    if not truths:
        raise ContractError("benchmark needs at least one replicate")
    config = config or AnalysisConfig()
    counters: defaultdict[str, Counter] = defaultdict(Counter)
    failures: list[str] = []
    for truth in truths:
        kinds = sorted({s.kind.value for s in truth.specs})
        label = "+".join(kinds) if kinds else "none"
        stats = counters[label]
        stats["replicates"] += 1
        try:
            result = analyze_dataset(regenerate_dataset(truth), config)
        except MissgraphError as exc:
            stats["errors"] += 1
            failures.append(f"{label}: {exc}")
            continue
        found = {(a.obs_var, a.comp_var) for a in result.report.arcs}
        roles = Counter(v.kind for v in result.report.variables)
        stats["mixed_pairs"] += roles[VarKind.COMPLETENESS] * roles[VarKind.OBSERVATION]
        expected = truth.expected_arcs()
        stats["false_arcs"] += len(found - expected - truth.indirect_arcs())
        for spec in truth.specs:
            comp = indicator_name(spec.target)
            if spec.kind is MechanismKind.MNAR:
                stats["mnar_targets"] += 1
                if (spec.target, comp) in found:
                    stats["mnar_self_hits"] += 1
                    if any(
                        f.witnesses
                        for f in result.report.mnar_findings
                        if f.variable == spec.target
                    ):
                        stats["witness_hits"] += 1
            elif spec.kind is MechanismKind.MAR:
                stats["mar_targets"] += 1
                if (spec.driver, comp) in found:
                    stats["driver_arc_hits"] += 1
                if (spec.target, comp) in found:
                    stats["mar_self_hits"] += 1

    summary: dict[str, dict] = {}
    for label, s in counters.items():
        entry: dict[str, float] = {
            "replicates": s["replicates"],
            "errors": s["errors"],
        }
        if s["mnar_targets"]:
            entry["self_arc_power"] = s["mnar_self_hits"] / s["mnar_targets"]
            entry["witness_rate"] = (
                s["witness_hits"] / s["mnar_self_hits"]
                if s["mnar_self_hits"]
                else 0.0
            )
        if s["mar_targets"]:
            entry["driver_arc_power"] = s["driver_arc_hits"] / s["mar_targets"]
            entry["self_arc_rate"] = s["mar_self_hits"] / s["mar_targets"]
        if s["mixed_pairs"]:
            entry["false_arc_rate"] = s["false_arcs"] / s["mixed_pairs"]
        summary[label] = entry
    return {"mechanisms": summary, "failures": failures}
