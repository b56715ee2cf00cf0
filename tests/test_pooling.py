import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import missgraph.pipeline
from missgraph import (
    AnalysisConfig,
    ContractError,
    VariableMeta,
    VarKind,
    analyze_dataset,
    detect_mnar,
    edge_p_values,
    extract_missingness_arcs,
    fisher_pool,
    indicator_name,
    pool_partial_correlations,
    simulate_dataset,
)
from missgraph.ggm import PrecisionFit
from missgraph.simulate import MechanismSpec

from .conftest import make_dataset


def pool_oracle(rhos):
    """Independent scalar evaluation with the math module."""
    return math.tanh(sum(math.atanh(r) for r in rhos) / len(rhos))


def make_fit(rho_matrix, n=500, support=None):
    """A fit whose sparse precision is nonzero exactly on ``support``."""
    rho = np.asarray(rho_matrix, dtype=float)
    p = rho.shape[0]
    support = np.zeros((p, p), dtype=bool) if support is None else support
    theta = np.eye(p) - 0.1 * np.asarray(support, dtype=float)
    return PrecisionFit(partial_corr=rho, theta=theta, n=n)


def two_var_fits(rhos, n=500, p=2):
    """One fit per rho: a p-variable fit whose only nonzero pair is (0, 1)."""
    fits = []
    for r in rhos:
        rho = np.eye(p)
        rho[0, 1] = rho[1, 0] = r
        fits.append(make_fit(rho, n=n))
    return fits


class TestFisherPooling:
    def test_idempotent_on_equal_members(self):
        table = pool_partial_correlations(two_var_fits([0.5, 0.5]))
        assert table.pooled_rho[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_odd_symmetry_cancels(self):
        table = pool_partial_correlations(two_var_fits([0.4, -0.4]))
        assert table.pooled_rho[0, 1] == 0.0

    def test_frozen_two_member_value(self):
        # oracle value: tanh((atanh 0.3 + atanh 0.5)/2)
        table = pool_partial_correlations(two_var_fits([0.3, 0.5]))
        assert table.pooled_rho[0, 1] == pytest.approx(
            0.40483052238385586, abs=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(
        rhos=st.lists(
            st.floats(min_value=-0.99, max_value=0.99), min_size=1, max_size=30
        )
    )
    def test_matches_independent_oracle(self, rhos):
        table = pool_partial_correlations(two_var_fits(rhos))
        assert table.pooled_rho[0, 1] == pytest.approx(
            pool_oracle(rhos), abs=1e-12
        )

    def test_pool_then_transform_equals_average_in_z_space(self):
        rhos = [0.12, -0.3, 0.55, 0.2]
        pooled = fisher_pool(
            np.array([[[1.0, r], [r, 1.0]] for r in rhos])
        )
        z_mean = np.mean([math.atanh(r) for r in rhos])
        assert math.atanh(pooled[0, 1]) == pytest.approx(z_mean, abs=1e-12)

    def test_support_count(self):
        fits = [
            make_fit([[1.0, 0.2], [0.2, 1.0]],
                     support=[[False, True], [True, False]]),
            make_fit([[1.0, 0.2], [0.2, 1.0]],
                     support=[[False, False], [False, False]]),
        ]
        table = pool_partial_correlations(fits)
        assert table.support_count[0, 1] == 1

    def test_mismatched_fits_rejected(self):
        fits = two_var_fits([0.1]) + [make_fit(np.eye(3))]
        with pytest.raises(ContractError, match="share"):
            pool_partial_correlations(fits)

    def test_boundary_rho_rejected(self):
        with pytest.raises(ContractError, match="rho"):
            pool_partial_correlations(two_var_fits([1.0]))


class TestEdgePValues:
    def test_zero_rho_gives_p_one(self):
        table = pool_partial_correlations(two_var_fits([0.0]))
        table = edge_p_values(table)
        assert table.p_value[0, 1] == 1.0

    def test_sign_flip_keeps_p(self):
        a = edge_p_values(pool_partial_correlations(two_var_fits([0.3])))
        b = edge_p_values(pool_partial_correlations(two_var_fits([-0.3])))
        assert a.p_value[0, 1] == b.p_value[0, 1]

    def test_large_cohort_scale(self):
        # rho = 0.0542 at n = 12495 with ~46 model variables lands around
        # p ~ 1e-9 (z just above 6)
        table = pool_partial_correlations(two_var_fits([0.0542], n=12495, p=46))
        table = edge_p_values(table)
        assert 1e-10 < table.p_value[0, 1] < 1e-8

    def test_insufficient_n_rejected(self):
        table = pool_partial_correlations(two_var_fits([0.1], n=4))
        with pytest.raises(ContractError, match="n > p_vars"):
            edge_p_values(table)

    def test_too_few_rows_fail_before_any_fit(self, rng, monkeypatch):
        # n=40 with 30 partly missing variables gives 60 augmented columns
        values = rng.standard_normal((40, 30))
        values[rng.random((40, 30)) < 0.3] = np.nan
        ds = make_dataset(
            {f"v{j}": [None if np.isnan(v) else v for v in values[:, j]]
             for j in range(30)}
        )
        calls = []
        monkeypatch.setattr(
            missgraph.pipeline, "fit_precision", lambda *a: calls.append(a)
        )
        with pytest.raises(ContractError, match="n > p_vars") as info:
            analyze_dataset(ds, AnalysisConfig(n_imputations=25))
        assert "p_vars=60" in str(info.value)
        assert info.value.stage == "augment"
        assert calls == []

    def test_dof_shrinks_p_for_fixed_rho(self):
        small = edge_p_values(pool_partial_correlations(two_var_fits([0.2], n=1000)))
        large = edge_p_values(
            pool_partial_correlations(two_var_fits([0.2], n=1000, p=500))
        )
        assert small.p_value[0, 1] < large.p_value[0, 1]


def mixed_metas():
    return (
        VariableMeta(name="a"),
        VariableMeta(name="z"),
        VariableMeta(
            name=indicator_name("a"),
            kind=VarKind.COMPLETENESS,
            parent="a",
        ),
    )


def table_from_rho(rho, n=5000):
    fits = [make_fit(rho, n=n)]
    table = pool_partial_correlations(fits, metas=mixed_metas())
    return edge_p_values(table)


class TestArcExtraction:
    def test_no_significant_pairs_empty(self):
        rho = np.eye(3)
        table = table_from_rho(rho)
        assert extract_missingness_arcs(table, alpha=0.01) == []

    def test_mixed_pair_with_counterpart(self):
        rho = np.eye(3)
        rho[1, 2] = rho[2, 1] = 0.2  # (z, c_a)
        rho[0, 1] = rho[1, 0] = 0.5  # counterpart (z, a)
        table = table_from_rho(rho)
        arcs = extract_missingness_arcs(table, alpha=0.01)
        assert len(arcs) == 1
        arc = arcs[0]
        assert arc.observation_var == "z"
        assert arc.completeness_var == indicator_name("a")
        assert arc.sign == "positive"
        assert arc.counterpart_rho == pytest.approx(0.5)
        assert arc.counterpart_p == pytest.approx(
            float(table.p_value[0, 1])
        )
        assert not arc.is_self_arc

    def test_same_kind_pairs_ignored(self):
        rho = np.eye(3)
        rho[0, 1] = rho[1, 0] = 0.9  # obs-obs pair only
        table = table_from_rho(rho)
        assert extract_missingness_arcs(table, alpha=0.01) == []

    def test_self_arc_has_no_counterpart(self):
        rho = np.eye(3)
        rho[0, 2] = rho[2, 0] = 0.15  # (a, c_a)
        table = table_from_rho(rho)
        (arc,) = extract_missingness_arcs(table, alpha=0.01)
        assert arc.is_self_arc
        assert arc.counterpart_rho is None

    def test_sorted_by_p_ascending(self):
        rho = np.eye(3)
        rho[0, 2] = rho[2, 0] = 0.1
        rho[1, 2] = rho[2, 1] = 0.3
        table = table_from_rho(rho)
        arcs = extract_missingness_arcs(table, alpha=0.01)
        assert [a.observation_var for a in arcs] == ["z", "a"]
        assert arcs[0].p_value <= arcs[1].p_value

    def test_alpha_contract(self):
        table = table_from_rho(np.eye(3))
        with pytest.raises(ContractError, match="alpha"):
            extract_missingness_arcs(table, alpha=1.5)


class TestDetectMnar:
    def test_no_self_arcs_no_findings(self):
        rho = np.eye(3)
        rho[1, 2] = rho[2, 1] = 0.2
        table = table_from_rho(rho)
        arcs = extract_missingness_arcs(table, alpha=0.01)
        assert detect_mnar(arcs, table, alpha=0.01) == []

    def test_witness_must_touch_both_endpoints(self):
        rho = np.eye(3)
        rho[0, 2] = rho[2, 0] = 0.15  # self arc (a, c_a)
        rho[0, 1] = rho[1, 0] = 0.4   # (a, z) significant
        rho[1, 2] = rho[2, 1] = 0.3   # (z, c_a) significant
        table = table_from_rho(rho)
        arcs = extract_missingness_arcs(table, alpha=0.01)
        (finding,) = detect_mnar(arcs, table, alpha=0.01)
        assert finding.variable == "a"
        assert finding.witnesses == ("z",)
        assert finding.self_arc_p < 0.01

    def test_no_witness_when_one_side_insignificant(self):
        rho = np.eye(3)
        rho[0, 2] = rho[2, 0] = 0.15  # self arc
        rho[0, 1] = rho[1, 0] = 0.4   # (a, z) significant
        # (z, c_a) stays at 0 -> not significant
        table = table_from_rho(rho)
        arcs = extract_missingness_arcs(table, alpha=0.01)
        (finding,) = detect_mnar(arcs, table, alpha=0.01)
        assert finding.witnesses == ()


class TestSimulatedMechanisms:
    def test_mar_driver_arc_recovered(self):
        prec = np.eye(3)
        spec = MechanismSpec(kind="MAR", target="a", driver="z", rate=0.3, slope=1.5)
        ds, _ = simulate_dataset(
            prec, n=4000, names=["a", "z", "w"], specs=[spec], seed=99
        )
        result = analyze_dataset(ds, AnalysisConfig(n_imputations=5, seed=4))
        pairs = {(a.observation_var, a.completeness_var) for a in result.arcs}
        assert ("z", indicator_name("a")) in pairs

    def test_mnar_self_arc_recovered_and_forwarded(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        spec = MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)
        ds, _ = simulate_dataset(
            np.linalg.inv(cov), n=4000, names=["a", "w"], specs=[spec], seed=5
        )
        result = analyze_dataset(ds, AnalysisConfig(n_imputations=5, seed=4))
        pairs = {(a.observation_var, a.completeness_var) for a in result.arcs}
        assert ("a", indicator_name("a")) in pairs
        assert any(f.variable == "a" and "w" in f.witnesses for f in result.findings)
