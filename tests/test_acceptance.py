"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Monte Carlo designs use fixed seeds, so outcomes are
reproducible run to run.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from missgraph import (
    AnalysisConfig,
    MechanismSpec,
    analyze_dataset,
    ar1_precision,
    correlation_matrix,
    desparsify,
    fisher_pool,
    glasso_fit,
    hot_deck_draws,
    hot_deck_impute,
    indicator_name,
    kkt_certificate,
    make_completeness_indicators,
    missing_profile,
    parse_csv,
    simulate_dataset,
    write_csv,
)
from missgraph.cli import main
from missgraph.dataset import Category, Dataset, VariableMeta
from missgraph.pooling import pool_partial_correlations
from scipy.special import expit, logit

from .test_pooling import two_var_fits

DATA = Path(__file__).resolve().parent.parent / "data"


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def random_correlation(p, rng):
    a = rng.standard_normal((p * 3, p))
    cov = a.T @ a / (p * 3)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def test_criterion_1_glasso_kkt_and_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_off = worst_sign = worst_gap = 0.0
    for _ in range(20):
        sigma = random_correlation(10, rng)
        for lam in (0.05, 0.1, 0.3):
            theta = glasso_fit(sigma, lam)
            cert = kkt_certificate(sigma, theta, lam)
            worst_off = max(worst_off, cert["off_support_violation"])
            worst_sign = max(worst_sign, cert["on_support_deviation"])
            worst_gap = max(worst_gap, abs(cert["duality_gap"]))
    # p=2 closed-form soft-threshold oracle
    closed_form_err = 0.0
    for s in (-0.8, -0.3, 0.2, 0.5, 0.9):
        for lam in (0.05, 0.1, 0.3):
            sigma = np.array([[1.0, s], [s, 1.0]])
            theta = glasso_fit(sigma, lam)
            w12 = np.sign(s) * max(abs(s) - lam, 0.0)
            expected = np.linalg.inv(np.array([[1.0, w12], [w12, 1.0]]))
            closed_form_err = max(
                closed_form_err, np.abs(theta - expected).max()
            )
    elapsed = time.perf_counter() - started
    ok = (
        worst_off <= 1e-6
        and worst_sign <= 1e-6
        and worst_gap <= 1e-6
        and closed_form_err <= 1e-8
        and elapsed < 10.0
    )
    report(
        "1 glasso-kkt",
        ok,
        f"off-support {worst_off:.2e}, on-support {worst_sign:.2e}, "
        f"gap {worst_gap:.2e}, closed-form {closed_form_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_desparsified_type_one_calibration():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    n, p, reps = 400, 10, 500
    lam = math.sqrt(math.log(p) / n)
    hits = total = 0
    off = ~np.eye(p, dtype=bool)
    for _ in range(reps):
        x = rng.standard_normal((n, p))
        sigma = correlation_matrix(x)
        theta = glasso_fit(sigma, lam)
        _, _, z, _ = desparsify(theta, sigma, n)
        hits += int((np.abs(z[off]) > 2.576).sum()) // 2
        total += int(off.sum()) // 2
    rate = hits / total
    elapsed = time.perf_counter() - started
    ok = 0.003 <= rate <= 0.03 and elapsed < 120.0
    report(
        "2 desparsified-calibration",
        ok,
        f"type-I rate {rate:.4f} over {total} entries, {elapsed:.1f}s",
    )


def test_criterion_3_imputation_self_correlation_null():
    started = time.perf_counter()
    n, reps = 2000, 100
    rng = np.random.default_rng(303)
    corrs = []
    for seed in range(reps):
        latent = rng.standard_normal(n)
        p_missing = expit(logit(0.3) + 1.5 * latent)
        missing = rng.random(n) < p_missing
        values = latent.copy()
        values[missing] = np.nan
        ds = Dataset(
            metas=(VariableMeta(name="a"),),
            values=values[:, None],
            mask=~missing[:, None],
        )
        augmented = make_completeness_indicators(ds)
        member = hot_deck_impute(augmented, hot_deck_draws(augmented, seed))
        corrs.append(np.corrcoef(member[:, 0], member[:, 1])[0, 1])
    mean_corr = float(np.mean(corrs))
    bound = 4 / math.sqrt(n)
    elapsed = time.perf_counter() - started
    ok = abs(mean_corr) <= bound and elapsed < 30.0
    report(
        "3 imputation-null",
        ok,
        f"|mean corr| {abs(mean_corr):.5f} <= {bound:.5f}, {elapsed:.1f}s",
    )


def test_criterion_4_mnar_detection_power():
    started = time.perf_counter()
    reps = 50
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    prec = np.linalg.inv(cov)
    cfg = AnalysisConfig(n_imputations=25, seed=13, alpha=0.01)
    flagged = witnessed = 0
    for rep in range(reps):
        spec = MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)
        ds, _ = simulate_dataset(prec, 5000, ["a", "w"], [spec], seed=40_000 + rep)
        result = analyze_dataset(ds, cfg)
        found = {(a.obs_var, a.comp_var) for a in result.report.arcs}
        if ("a", indicator_name("a")) in found:
            flagged += 1
            if any(f.variable == "a" and f.witnesses for f in result.report.mnar_findings):
                witnessed += 1
    power = flagged / reps
    witness_rate = witnessed / flagged if flagged else 0.0
    elapsed = time.perf_counter() - started
    ok = power >= 0.8 and witness_rate >= 0.95 and elapsed < 900.0
    report(
        "4 mnar-detection",
        ok,
        f"self-arc power {power:.2f}, witness rate {witness_rate:.2f}, {elapsed:.0f}s",
    )


def test_criterion_5_mar_detection():
    started = time.perf_counter()
    reps = 50
    # target a with covariate w at rho 0.6; missingness of a driven by the
    # independent variable z (a driver correlated with the target would
    # itself induce the self arc after imputation)
    prec = np.linalg.inv(
        np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
    )
    cfg = AnalysisConfig(n_imputations=25, seed=13, alpha=0.01)
    driver_hits = self_hits = 0
    for rep in range(reps):
        spec = MechanismSpec(kind="MAR", target="a", driver="z", rate=0.3, slope=1.5)
        ds, _ = simulate_dataset(
            prec, 5000, ["a", "w", "z"], [spec], seed=50_000 + rep
        )
        result = analyze_dataset(ds, cfg)
        found = {(a.obs_var, a.comp_var) for a in result.report.arcs}
        if ("z", indicator_name("a")) in found:
            driver_hits += 1
        if ("a", indicator_name("a")) in found:
            self_hits += 1
    recovery = driver_hits / reps
    false_self = self_hits / reps
    elapsed = time.perf_counter() - started
    ok = recovery >= 0.9 and false_self <= 0.05
    report(
        "5 mar-detection",
        ok,
        f"driver recovery {recovery:.2f}, false self-arc rate {false_self:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_mcar_null_false_arc_rate():
    started = time.perf_counter()
    reps, alpha = 100, 0.01
    prec = ar1_precision(3, 0.4)
    cfg = AnalysisConfig(n_imputations=25, seed=11, alpha=alpha)
    false_arcs = mixed_pairs = 0
    for rep in range(reps):
        specs = [
            MechanismSpec(kind="MCAR", target="a", rate=0.3),
            MechanismSpec(kind="MCAR", target="b", rate=0.1),
        ]
        ds, _ = simulate_dataset(prec, 2000, ["a", "b", "c"], specs, seed=5000 + rep)
        result = analyze_dataset(ds, cfg)
        false_arcs += len(result.report.arcs)
        mixed_pairs += 3 * 2  # 3 observation vars x 2 indicators
    rate = false_arcs / mixed_pairs
    band = 2 * math.sqrt(alpha * (1 - alpha) / mixed_pairs)
    elapsed = time.perf_counter() - started
    ok = abs(rate - alpha) <= band
    report(
        "6 mcar-null",
        ok,
        f"false-arc rate {rate:.4f} vs alpha {alpha} +- {band:.4f} "
        f"(N={mixed_pairs}), {elapsed:.0f}s",
    )


def test_criterion_7_pooling_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 31))
        rhos = rng.uniform(-0.99, 0.99, size=k)
        member = np.empty((k, 2, 2))
        member[:, 0, 0] = member[:, 1, 1] = 1.0
        member[:, 0, 1] = member[:, 1, 0] = rhos
        pooled = fisher_pool(member)[0, 1]
        oracle = math.tanh(sum(math.atanh(r) for r in rhos) / k)
        worst = max(worst, abs(pooled - oracle))
    # same code path through the fit-level API
    table = pool_partial_correlations(two_var_fits([0.3, 0.5]))
    api_err = abs(
        table.pooled_rho[0, 1]
        - math.tanh((math.atanh(0.3) + math.atanh(0.5)) / 2)
    )
    # idempotence and odd symmetry are exact
    idempotent = pool_partial_correlations(two_var_fits([0.5, 0.5]))
    odd = pool_partial_correlations(two_var_fits([0.4, -0.4]))
    exact_cases = (
        abs(idempotent.pooled_rho[0, 1] - 0.5) < 1e-15
        and odd.pooled_rho[0, 1] == 0.0
    )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and api_err <= 1e-12 and exact_cases
    report(
        "7 pooling-exactness",
        ok,
        f"max |pool - oracle| {worst:.2e} over 10^4 sets, exact cases "
        f"{exact_cases}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    def volatile_free(path):
        return "\n".join(
            line
            for line in (path / "report.json").read_text().splitlines()
            if '"timestamp"' not in line and '"elapsed_seconds"' not in line
        )

    args = [
        "analyze",
        "--input", str(DATA / "mnar_example.csv"),
        "--seed", "99",
        "--imputations", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same = volatile_free(tmp_path / "a") == volatile_free(tmp_path / "b")
    report(
        "8 determinism",
        same,
        "report.json byte-identical apart from the run clock",
    )


def test_criterion_9_profile_fidelity(tmp_path):
    profile_spec = [
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
    ]
    n = 1000
    rng = np.random.default_rng(909)
    values = rng.standard_normal((n, len(profile_spec)))
    mask = np.ones((n, len(profile_spec)), dtype=bool)
    for j, (_, _, proportion) in enumerate(profile_spec):
        k = round(proportion * n)
        rows = rng.choice(n, size=k, replace=False)
        mask[rows, j] = False
    values[~mask] = np.nan
    ds = Dataset(
        metas=tuple(
            VariableMeta(name=name, category=cat)
            for name, cat, _ in profile_spec
        ),
        values=values,
        mask=mask,
    )
    # push the fixture through the CSV layer before profiling
    path = tmp_path / "profile_fixture.csv"
    write_csv(ds, path)
    schema = {name: cat for name, cat, _ in profile_spec}
    parsed = parse_csv(path, schema=schema)
    rows = missing_profile(parsed)
    mismatches = [
        (row.name, row.missing_proportion, expected)
        for row, (name, cat, expected) in zip(rows, profile_spec)
        if row.name != name
        or row.category is not cat
        or row.missing_proportion != expected
    ]
    report(
        "9 profile-fidelity",
        not mismatches,
        "all 23 proportions exact"
        if not mismatches
        else f"mismatches: {mismatches[:3]}",
    )
