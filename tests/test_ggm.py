import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import missgraph.ggm
from missgraph import (
    ContractError,
    ConvergenceError,
    DegenerateColumnError,
    correlation_matrix,
    desparsify,
    duality_gap,
    fit_precision,
    glasso_fit,
    kkt_certificate,
    nonparanormal_transform,
    partial_correlations,
    select_lambda_ric,
)

from .conftest import residual_partial_corr


def random_correlation(p, rng):
    """Random SPD correlation matrix via normalized Wishart draws."""
    a = rng.standard_normal((p * 3, p))
    cov = a.T @ a / (p * 3)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


class TestCorrelationMatrix:
    def test_identical_columns(self, rng):
        x = rng.normal(size=100)
        c = correlation_matrix(np.column_stack([x, x]))
        assert c[0, 1] == pytest.approx(1.0)

    def test_negated_column(self, rng):
        x = rng.normal(size=100)
        c = correlation_matrix(np.column_stack([x, -x]))
        assert c[0, 1] == pytest.approx(-1.0)

    def test_bivariate_gaussian_monte_carlo(self, rng):
        n = 100_000
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = 0.6 * x + np.sqrt(1 - 0.36) * z[:, 1]
        c = correlation_matrix(np.column_stack([x, y]))
        assert c[0, 1] == pytest.approx(0.6, abs=0.01)

    def test_properties(self, rng):
        x = rng.normal(size=(60, 5))
        c = correlation_matrix(x)
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(np.diag(c), np.ones(5))
        assert np.abs(c).max() <= 1.0

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateColumnError):
            correlation_matrix(np.column_stack([np.ones(10), np.arange(10.0)]))


class TestGlasso:
    def test_identity_stays_identity(self):
        for lam in (0.0, 0.1, 0.5):
            np.testing.assert_allclose(glasso_fit(np.eye(5), lam), np.eye(5))

    def test_lambda_zero_is_plain_inverse(self, rng):
        sigma = random_correlation(6, rng)
        theta = glasso_fit(sigma, 0.0)
        np.testing.assert_allclose(theta, np.linalg.inv(sigma), atol=1e-8)

    def test_two_by_two_closed_form(self):
        # soft-threshold oracle: W_12 = sign(s)(|s| - lam)+, then invert
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        theta = glasso_fit(sigma, 0.2)
        w = np.linalg.inv(theta)
        assert w[0, 1] == pytest.approx(0.3, abs=1e-8)
        assert theta[0, 0] == pytest.approx(1.0989010989010988, abs=1e-8)
        assert theta[0, 1] == pytest.approx(-0.32967032967032966, abs=1e-8)

    def test_two_by_two_full_shrinkage(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        theta = glasso_fit(sigma, 0.6)  # lam > |s| kills the edge
        np.testing.assert_allclose(theta, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    def test_kkt_certificate_random_inputs(self, lam, rng):
        for _ in range(5):
            sigma = random_correlation(8, rng)
            theta = glasso_fit(sigma, lam)
            cert = kkt_certificate(sigma, theta, lam)
            assert cert["off_support_violation"] <= 1e-6
            assert cert["on_support_deviation"] <= 1e-6
            # gap is non-negative up to float roundoff
            assert -1e-9 <= cert["duality_gap"] <= 1e-6
            # positive definite
            assert np.linalg.eigvalsh(theta).min() > 0

    def test_support_shrinks_with_lambda(self, rng):
        sigma = random_correlation(8, rng)
        sizes = []
        for lam in (0.02, 0.1, 0.3, 0.6):
            theta = glasso_fit(sigma, lam)
            off = ~np.eye(8, dtype=bool)
            sizes.append(int((theta[off] != 0).sum()))
        assert sizes == sorted(sizes, reverse=True)

    def test_exact_zeros_off_support(self, rng):
        sigma = random_correlation(10, rng)
        theta = glasso_fit(sigma, 0.3)
        off = ~np.eye(10, dtype=bool)
        small = np.abs(theta[off]) < 1e-10
        assert np.all(theta[off][small] == 0.0)

    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 0.3], [0.1, 1.0]])
        with pytest.raises(ContractError, match="symmetric"):
            glasso_fit(bad, 0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError, match="non-negative"):
            glasso_fit(np.eye(2), -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ContractError, match="finite"):
            glasso_fit(np.eye(2), lam)

    def test_sweep_budget_exhausted_raises(self, rng, monkeypatch):
        monkeypatch.setattr(missgraph.ggm, "MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="within 1 sweeps"):
            glasso_fit(random_correlation(6, rng), 0.1)

    def test_inner_lasso_meets_its_optimality_conditions(self, rng):
        # 0.5*b'Gb - t'b + lam*|b|_1: t - Gb = lam*sign(b) where b != 0 and
        # |t - Gb| <= lam where b == 0, whatever the active set started as.
        # G is w without row and column j; coordinate j stays 0.
        w, j = random_correlation(31, rng), 7
        others = np.delete(np.arange(31), j)
        gram = w[np.ix_(others, others)]
        target = gram @ (rng.standard_normal(30) * (rng.random(30) < 0.3))
        for lam in (0.01, 0.1, 0.5):
            for start in (np.zeros(30), rng.standard_normal(30)):
                beta = missgraph.ggm._lasso_cd(
                    w, j, np.insert(target, j, 1.0), lam, np.insert(start, j, 0.0)
                )
                assert beta[j] == 0.0
                beta = beta[others]
                resid = target - gram @ beta
                on = beta != 0.0
                np.testing.assert_allclose(
                    resid[on], lam * np.sign(beta[on]), rtol=0, atol=1e-9
                )
                assert np.all(np.abs(resid[~on]) <= lam + 1e-9)

    def test_screening_solves_each_component_exactly(self, rng):
        # Components of |S| > lam: a singleton, a 2x2 pair and an AR(1) run of
        # five; every entry between components is nonzero but below lam.
        lam = 0.2
        corr = np.full((8, 8), 0.03)
        corr[1:3, 1:3] = [[1.0, 0.6], [0.6, 1.0]]
        corr[3:, 3:] = 0.5 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        corr[0, 0] = 1.0
        scale = rng.uniform(0.8, 1.5, size=8)
        order = rng.permutation(8)
        sigma = (corr * np.outer(scale, scale))[np.ix_(order, order)]
        where = np.argsort(order)  # original index -> shuffled position
        single, pair, run = where[:1], where[1:3], where[3:]
        assert np.abs(sigma[np.ix_(pair, run)]).max() < lam

        theta = glasso_fit(sigma, lam)

        label = np.empty(8, dtype=int)
        for k, block in enumerate((single, pair, run)):
            label[block] = k
        between = label[:, None] != label[None, :]
        assert np.all(theta[between] == 0.0)
        assert theta[single[0], single[0]] == 1.0 / sigma[single[0], single[0]]
        s12 = sigma[pair[0], pair[1]]
        w = sigma[np.ix_(pair, pair)].copy()
        w[0, 1] = w[1, 0] = np.sign(s12) * (abs(s12) - lam)
        np.testing.assert_allclose(
            theta[np.ix_(pair, pair)], np.linalg.inv(w), rtol=0, atol=1e-8
        )
        alone = glasso_fit(sigma[np.ix_(run, run)], lam)
        np.testing.assert_allclose(theta[np.ix_(run, run)], alone, rtol=0, atol=1e-10)
        cert = kkt_certificate(sigma, theta, lam)
        assert cert["off_support_violation"] <= 1e-6
        assert cert["on_support_deviation"] <= 1e-6
        assert abs(cert["duality_gap"]) <= 1e-6

    def test_singular_matrix_needs_penalty(self):
        ones = np.ones((3, 3))
        with pytest.raises(ContractError, match="invertible"):
            glasso_fit(ones, 0.0)

    def test_duality_gap_zero_at_unpenalized_optimum(self, rng):
        sigma = random_correlation(4, rng)
        theta = np.linalg.inv(sigma)
        assert duality_gap(sigma, theta, 0.0) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    p=st.integers(min_value=2, max_value=9),
    lam=st.floats(min_value=0.02, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_glasso_is_permutation_equivariant(data, p, lam, seed):
    # Relabelling the columns relabels the solution: glasso_fit(P S P') is
    # P glasso_fit(S) P', up to the solver's sweep order.
    sigma = random_correlation(p, np.random.default_rng(seed))
    order = np.array(data.draw(st.permutations(range(p))))
    theta = glasso_fit(sigma, lam)[np.ix_(order, order)]
    permuted = glasso_fit(sigma[np.ix_(order, order)], lam)
    np.testing.assert_array_equal(permuted != 0.0, theta != 0.0)
    np.testing.assert_allclose(permuted, theta, rtol=0, atol=1e-8)


class TestRic:
    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(50, 3))
        a = select_lambda_ric(x, n_rotations=4, seed=11)
        b = select_lambda_ric(x, n_rotations=4, seed=11)
        assert a == b
        c = select_lambda_ric(x, n_rotations=4, seed=12)
        assert a != c

    def test_shrinks_with_sample_size(self, rng):
        small = rng.normal(size=(100, 4))
        large = rng.normal(size=(10_000, 4))
        lam_small = select_lambda_ric(small, n_rotations=10, seed=0)
        lam_large = select_lambda_ric(large, n_rotations=10, seed=0)
        assert lam_large < lam_small

    def test_insensitive_to_dependence(self, rng):
        # Permutation destroys dependence: the lam distribution over seeds is
        # the same whether the columns were dependent or not (KS p > 0.01).
        n = 400
        x = rng.standard_normal((n, 2))
        dependent = np.column_stack([x[:, 0], x[:, 0] + 0.01 * x[:, 1]])
        lams_dep = [
            select_lambda_ric(dependent, n_rotations=1, seed=s) for s in range(150)
        ]
        lams_ind = [
            select_lambda_ric(x, n_rotations=1, seed=s + 10_000) for s in range(150)
        ]
        ks = stats.ks_2samp(lams_dep, lams_ind)
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 12345])
    def test_draws_match_one_permutation_per_column(self, seed, rng):
        # Reference: every column shuffled by its own rng.permutation(n), in
        # column order, from one generator.  Ties and 0/1 columns included.
        n = 40
        x = np.column_stack(
            [
                rng.standard_normal(n),
                rng.integers(0, 2, n).astype(float),
                rng.integers(0, 4, n).astype(float),
                np.repeat([0.0, 1.0], n // 2),
            ]
        )
        ref = np.random.default_rng(seed)
        off = ~np.eye(4, dtype=bool)
        maxima = []
        for _ in range(5):
            permuted = np.empty_like(x)
            for j in range(4):
                permuted[:, j] = x[ref.permutation(n), j]
            maxima.append(np.abs(correlation_matrix(permuted)[off]).max())
        expected = float(np.mean(maxima))
        assert select_lambda_ric(x, n_rotations=5, seed=seed) == expected

    def test_needs_at_least_one_rotation(self, rng):
        with pytest.raises(ContractError):
            select_lambda_ric(rng.normal(size=(20, 2)), n_rotations=0, seed=0)


class TestDesparsify:
    def test_fixed_point_at_exact_inverse(self, rng):
        sigma = random_correlation(5, rng)
        theta = np.linalg.inv(sigma)
        t_hat, _, _, _ = desparsify(theta, sigma, n=100)
        np.testing.assert_allclose(t_hat, theta, atol=1e-10)

    def test_identity_case(self):
        n = 49
        t_hat, edge_sd, z, p = desparsify(np.eye(3), np.eye(3), n=n)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(edge_sd[off], 1.0)
        np.testing.assert_allclose(z[off], np.sqrt(n) * t_hat[off])
        np.testing.assert_allclose(p[off], 1.0)  # t_hat off-diagonal is 0

    def test_type_one_error_calibration_quick(self, rng):
        # small-scale calibration probe; the full 500-replicate version
        # lives in the acceptance suite
        n, p = 400, 6
        lam = np.sqrt(np.log(p) / n)
        hits = 0
        total = 0
        for _ in range(100):
            x = rng.standard_normal((n, p))
            sigma = correlation_matrix(x)
            theta = glasso_fit(sigma, lam)
            _, _, z, _ = desparsify(theta, sigma, n)
            off = ~np.eye(p, dtype=bool)
            hits += int((np.abs(z[off]) > 2.576).sum() / 2)
            total += int(off.sum() / 2)
        assert 0.001 < hits / total < 0.04

    def test_requires_positive_definite(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ContractError, match="positive definite"):
            desparsify(bad, np.eye(2), 10)


class TestPartialCorrelations:
    def test_two_by_two(self):
        t = np.array([[2.0, -1.0], [-1.0, 2.0]])
        rho = partial_correlations(t)
        assert rho[0, 1] == pytest.approx(0.5)
        np.testing.assert_array_equal(np.diag(rho), [1.0, 1.0])

    def test_diagonal_precision_gives_zero(self):
        rho = partial_correlations(np.diag([2.0, 3.0, 4.0]))
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_array_equal(rho[off], 0.0)

    def test_chain_matches_recursive_formula_and_residual_oracle(self, rng):
        # Markov chain x - y - z with lag correlation 0.5: the non-adjacent
        # pair is conditionally independent; the adjacent partial follows
        # the recursive formula (0.5 - 0.25*0.5)/sqrt((1-0.0625)(1-0.25)),
        # which is 1/sqrt(5) (value frozen from the residual oracle).
        n = 40_000
        x = rng.standard_normal(n)
        y = 0.5 * x + np.sqrt(0.75) * rng.standard_normal(n)
        z = 0.5 * y + np.sqrt(0.75) * rng.standard_normal(n)
        data = np.column_stack([x, y, z])
        theta = np.linalg.inv(correlation_matrix(data))
        rho = partial_correlations(theta)
        tol = 2 / np.sqrt(n)
        assert rho[0, 1] == pytest.approx(1 / np.sqrt(5), abs=tol)
        assert rho[1, 2] == pytest.approx(1 / np.sqrt(5), abs=tol)
        assert rho[0, 2] == pytest.approx(0.0, abs=tol)
        # independent oracle: correlation of regression residuals
        assert rho[0, 2] == pytest.approx(
            residual_partial_corr(x, z, y), abs=1e-10
        )
        assert rho[0, 1] == pytest.approx(
            residual_partial_corr(x, y, z), abs=1e-10
        )

    def test_equicorrelated_triple_gives_one_third(self, rng):
        # all pairwise correlations 0.5: every partial correlation is
        # (0.5 - 0.25)/0.75 = 1/3
        n = 40_000
        g = rng.standard_normal(n)
        data = np.column_stack(
            [np.sqrt(0.5) * g + np.sqrt(0.5) * rng.standard_normal(n) for _ in range(3)]
        )
        rho = partial_correlations(np.linalg.inv(correlation_matrix(data)))
        tol = 4 / np.sqrt(n)  # partials near 0.5 compound three estimates
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert rho[i, j] == pytest.approx(1 / 3, abs=tol)

    def test_non_positive_diagonal_rejected(self):
        with pytest.raises(ContractError, match="diagonal"):
            partial_correlations(np.diag([1.0, 0.0]))

    def test_clamp_warns_when_large(self):
        t = np.array([[1.0, -1.5], [-1.5, 1.0]])
        with pytest.warns(UserWarning, match="clamped"):
            rho = partial_correlations(t)
        assert rho[0, 1] == 1.0


def test_fit_precision_matches_library_path(rng):
    # the per-member path must give the library de-sparsified estimator's
    # partial correlations bit for bit
    z = rng.standard_normal((500, 4))
    z[:, 1] += 0.6 * z[:, 0]  # a chain 0 - 1 - 2, so the support is mixed
    z[:, 2] += 0.6 * z[:, 1]
    x = nonparanormal_transform(z).values
    lam = 0.1
    sigma = correlation_matrix(x)
    theta = glasso_fit(sigma, lam)
    fit = fit_precision(x, lam)
    np.testing.assert_array_equal(
        fit.partial_corr, partial_correlations(desparsify(theta, sigma, 500)[0])
    )
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_array_equal(fit.support, (theta != 0.0) & off)
    assert 0 < fit.support.sum() < off.sum()
    assert (fit.n, fit.p) == (500, 4)
    cert = kkt_certificate(sigma, theta, lam)
    assert max(cert.values()) <= 1e-6
