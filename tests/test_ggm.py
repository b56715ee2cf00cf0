import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.sparse.csgraph import connected_components

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
from missgraph.ggm import WarmStart

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

    def test_constant_columns_found_exactly(self, rng):
        # Constant means no row differs from row 0 under !=: NaN differs
        # from itself, and -0.0 equals 0.0.
        x = rng.integers(0, 2, size=(6, 12)).astype(float)
        x[:, 0] = 3.0
        x[:, 1] = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0]
        x[:, 2] = [1.0, 1.0, np.nan, 1.0, 1.0, 1.0]  # rows 0 and 1 tie
        x[:, 3] = np.nan
        x[:, 4] = [1.0, 2.0, 1.0, 1.0, 1.0, 1.0]  # differs in row 1 only
        bad = np.flatnonzero(~(x != x[0]).any(axis=0))
        assert {0, 1} <= set(bad) and not {2, 3, 4} & set(bad)
        for c in range(x.shape[1]):
            if c in bad:
                with pytest.raises(DegenerateColumnError):
                    missgraph.ggm._varying_columns(x[:, [c]])
            else:
                missgraph.ggm._varying_columns(x[:, [c]])
        with pytest.raises(DegenerateColumnError, match="#3"):
            missgraph.ggm._varying_columns(x[:, [2, 3, 4, 1, 0]])

    def test_constant_column_with_inexact_mean_rejected(self):
        # 5000 copies of 0.1: the mean rounds, so the float std is not 0.
        x = np.column_stack([np.arange(5000.0), np.full(5000, 0.1)])
        with pytest.raises(DegenerateColumnError, match="#1"):
            correlation_matrix(x)

    @pytest.mark.parametrize("standardized", [True, False])
    def test_matches_corrcoef(self, standardized, rng):
        # Still Pearson: the column-major kernel agrees with numpy's
        # row-wise route to the last bits.
        x = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6))
        x[:, 0] = np.round(x[:, 0])  # ties
        if standardized:
            x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        else:
            x = 50.0 + 7.0 * x
        np.testing.assert_allclose(
            correlation_matrix(x), np.corrcoef(x, rowvar=False), rtol=0, atol=1e-15
        )

    def test_one_column(self, rng):
        c = correlation_matrix(rng.standard_normal((50, 1)))
        np.testing.assert_array_equal(c, [[1.0]])


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

    @pytest.mark.parametrize(
        ("theta", "sigma", "match"),
        [
            (np.zeros((2, 2)), np.eye(2), "theta_hat must be positive definite"),
            (np.diag([1.0, -1.0]), np.eye(2), "theta_hat must be positive definite"),
            (np.eye(2), np.diag([np.nan, 1.0]), "sigma_hat must be finite"),
            (np.eye(2), [[1.0, 0.0], [0.0]], "sigma_hat must be a numeric matrix"),
            (np.eye(2), np.eye(3), r"sigma_hat must be a \(2, 2\) matrix, got \(3,"),
        ],
        ids=["singular", "indefinite", "nan-sigma", "ragged-sigma", "shape"],
    )
    def test_kkt_certificate_rejects_bad_matrices(self, theta, sigma, match):
        # Unchecked, a singular theta raises LinAlgError, an indefinite one and
        # a NaN sigma give a "certificate", and a ragged or misshapen sigma a
        # bare ValueError.
        with pytest.raises(ContractError, match=match):
            kkt_certificate(sigma, theta, 0.1)

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

    @pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=["wide", "vector"])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(ContractError, match="square"):
            glasso_fit(np.ones(shape), 0.1)

    @pytest.mark.parametrize(
        "sigma",
        [[[1.0, 0.5], [0.5]], [["1", "x"], ["x", "1"]], [[1.0, {}], [{}, 1.0]]],
        ids=["ragged", "string", "object"],
    )
    def test_non_numeric_input_rejected(self, sigma):
        with pytest.raises(ContractError, match="sigma_hat must be a numeric matrix"):
            glasso_fit(sigma, 0.1)

    @pytest.mark.parametrize(
        ("where", "value", "match"),
        [
            ((0, 1), np.nan, "finite"),
            ((0, 1), np.inf, "finite"),
            ((1, 1), np.inf, "finite"),
            ((1, 1), 0.0, "positive diagonal"),
            ((1, 1), -0.5, "positive diagonal"),
        ],
        ids=["nan", "off-diagonal-inf", "diagonal-inf", "zero-diagonal", "negative-diagonal"],
    )
    def test_bad_sigma_rejected(self, where, value, match):
        sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        sigma[where] = sigma[where[::-1]] = value
        for lam in (0.0, 0.1):
            with pytest.raises(ContractError, match=match):
                glasso_fit(sigma, lam)

    def test_symmetry_rule_matches_allclose(self, rng):
        # Entries perturbed across the edge |a - a'| = 1e-10 + 1e-5*|a'|, at
        # scales where either term of the tolerance dominates.
        for scale in (1e-8, 1e-5, 1.0, 1e3):
            for _ in range(200):
                a = rng.standard_normal((4, 4)) * scale
                a = (a + a.T) / 2.0
                i, j = rng.choice(4, size=2, replace=False)
                edge = 1e-10 + 1e-5 * abs(a[j, i])
                a[i, j] = a[j, i] + rng.choice([-1.0, 1.0]) * edge * rng.uniform(0.99, 1.01)
                assert missgraph.ggm._symmetric(a) == np.allclose(a, a.T, atol=1e-10)

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

    def test_uncertified_stationary_point_reports_its_gap(self, rng, monkeypatch):
        # No gap meets a negative tolerance: W turns stationary, its gap is
        # measured and the error carries it.
        monkeypatch.setattr(missgraph.ggm, "GAP_TOL", -1.0)
        monkeypatch.setattr(missgraph.ggm, "MAX_SWEEPS", 20)
        with pytest.raises(
            ConvergenceError, match=r"within 20 sweeps \(residual "
        ) as info:
            glasso_fit(random_correlation(6, rng), 0.1)
        assert info.value.residual == pytest.approx(0.0, abs=1e-6)

    def test_inner_lasso_meets_its_optimality_conditions(self, rng):
        # 0.5*b'Gb - t'b + lam*|b|_1: t - Gb = lam*sign(b) where b != 0 and
        # |t - Gb| <= lam where b == 0, whatever the active set started as.
        # G is w without row and column j; coordinate j stays 0.
        w, j = random_correlation(31, rng), 7
        others = np.delete(np.arange(31), j)
        gram = w[np.ix_(others, others)]
        target = gram @ (rng.standard_normal(30) * (rng.random(30) < 0.3))
        for lam in (0.01, 0.1, 0.5):
            exact, _ = missgraph.ggm._lasso_active_set(
                w, j, np.insert(target, j, 1.0), lam, np.zeros(31)
            )
            exact = exact[others]
            # Every nonzero starts with the wrong sign: the walk back runs.
            flipped = -np.sign(exact) * rng.uniform(0.5, 2.0, size=30)
            for start in (np.zeros(30), rng.standard_normal(30), flipped):
                beta, fitted = missgraph.ggm._lasso_active_set(
                    w, j, np.insert(target, j, 1.0), lam, np.insert(start, j, 0.0)
                )
                assert beta[j] == 0.0
                # The product it returns is W @ beta, whatever row j holds.
                np.testing.assert_allclose(fitted, w @ beta, rtol=0, atol=1e-12)
                beta = beta[others]
                resid = target - gram @ beta
                on = beta != 0.0
                np.testing.assert_allclose(
                    resid[on], lam * np.sign(beta[on]), rtol=0, atol=1e-9
                )
                assert np.all(np.abs(resid[~on]) <= lam + 1e-9)

    def test_inner_lasso_step_budget_exhausted_raises(self, rng, monkeypatch):
        monkeypatch.setattr(missgraph.ggm, "_LASSO_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError, match="within 1 steps"):
            glasso_fit(random_correlation(6, rng), 0.1)

    def test_inner_lasso_gram_not_positive_definite_raises(self):
        # The Gram of column 0, [[1, 1.5], [1.5, 1]], is indefinite; the warm
        # start makes both of its coordinates active, so the first Cholesky
        # solve fails.
        w = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.5], [0.5, 1.5, 1.0]])
        with pytest.raises(ConvergenceError, match="positive definiteness"):
            coef, fitted = missgraph.ggm._lasso_active_set(
                w, 0, w[:, 0], 0.1, np.array([0.0, 0.2, 0.2])
            )

    def test_inner_lasso_duplicate_coordinates(self):
        # Copies of a coordinate make the Gram singular: once one copy is
        # active, the other violates its bound by rounding at most.  Adding
        # it must neither fail the Cholesky solve nor trade the copies' places
        # for ever, and the optimality conditions still hold.
        cases = [
            (np.array([[1.0, r, r], [r, 1.0, 1.0], [r, 1.0, 1.0]]), lam)
            for r, lam in ((0.45, 0.1), (0.7, 0.05), (0.3, 0.01))
        ]
        for seed in range(100):
            draw = np.random.default_rng(seed)
            x = draw.standard_normal((200, 1)) + draw.standard_normal((200, 4))
            w = np.corrcoef(np.hstack([x, x[:, 3:]]), rowvar=False)
            cases.append((w, float(draw.choice([0.01, 0.05, 0.1, 0.2]))))
        for w, lam in cases:
            beta = missgraph.ggm._lasso_active_set(
                w, 0, w[:, 0], lam, np.zeros(len(w))
            )[0][1:]
            resid = w[1:, 0] - w[1:, 1:] @ beta
            on = beta != 0.0
            np.testing.assert_allclose(
                resid[on], lam * np.sign(beta[on]), rtol=0, atol=1e-9
            )
            assert np.all(np.abs(resid[~on]) <= lam + 1e-9)

    @pytest.mark.parametrize("seed", [62, 104, 168, 0, 1, 2, 3])
    def test_inner_lasso_near_copy_coordinates(self, seed):
        # A near-copy of the last column: its correlation with that column
        # can round to exactly 1 (seeds 62, 104 and 168), so the copy may
        # pass the join margin and make the Gram singular when it is added.
        # It is then dropped, and the optimality conditions still hold.
        draw = np.random.default_rng(seed)
        p = draw.integers(3, 8)
        x = draw.standard_normal((200, 1)) + draw.standard_normal((200, p))
        noise = 10 ** draw.uniform(-9, -3) * draw.standard_normal((200, 1))
        w = correlation_matrix(np.hstack([x, x[:, -1:] + noise]))
        lam = float(draw.choice([0.01, 0.05, 0.1, 0.2]))
        beta = missgraph.ggm._lasso_active_set(
            w, 0, w[:, 0], lam, np.zeros(len(w))
        )[0][1:]
        resid = w[1:, 0] - w[1:, 1:] @ beta
        on = beta != 0.0
        np.testing.assert_allclose(
            resid[on], lam * np.sign(beta[on]), rtol=0, atol=1e-9
        )
        assert np.all(np.abs(resid[~on]) <= lam + 1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    def test_duplicate_columns(self, lam, rng):
        # Variables with the same missingness mask get identical indicator
        # columns, and a column's affine copy correlates like it: the sample
        # correlation is singular and the column lassos see copies of their
        # active coordinates.  No step may divide 0 by 0 on the way.
        mask = (rng.random((300, 1)) < 0.3).astype(float)
        base = (
            rng.uniform(0.2, 1.5, 6) * rng.standard_normal((300, 1))
            + rng.standard_normal((300, 6))
            + mask * rng.uniform(0.0, 1.0, 6)
        )
        x = np.hstack([base, 3.0 * base[:, :2] + 1.0, mask, mask, mask])
        sigma = np.corrcoef(x, rowvar=False)
        theta = glasso_fit(sigma, lam)
        assert np.linalg.eigvalsh(theta).min() > 0.0
        cert = kkt_certificate(sigma, theta, lam)
        assert cert["off_support_violation"] <= 1e-6
        assert cert["on_support_deviation"] <= 1e-6
        assert abs(cert["duality_gap"]) <= 1e-6
        # The solution is unique and swapping two copies leaves sigma as it
        # is, so it leaves theta as it is too.
        for a, b in ((0, 6), (1, 7), (8, 9), (9, 10)):
            swap = np.arange(11)
            swap[[a, b]] = [b, a]
            np.testing.assert_allclose(
                theta[np.ix_(swap, swap)], theta, rtol=0, atol=1e-6
            )

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
        # At lam = 0 the answer is the plain inverse, which is a precision
        # only for a positive-definite sigma_hat: a singular one has none, and
        # an indefinite one's inverse is indefinite too.
        for sigma in (np.ones((3, 3)), [[1.0, 2.0], [2.0, 1.0]]):
            with pytest.raises(ContractError, match="sigma_hat must be positive"):
                glasso_fit(sigma, 0.0)

    def test_duality_gap_zero_at_unpenalized_optimum(self, rng):
        sigma = random_correlation(4, rng)
        theta = np.linalg.inv(sigma)
        assert duality_gap(sigma, theta, 0.0) == pytest.approx(0.0, abs=1e-10)


def components(sigma, lam):
    """Labels of the screening components of ``|sigma_ij| > lam``."""
    screen = np.abs(sigma) > lam
    np.fill_diagonal(screen, False)
    return connected_components(screen, directed=False)[1]


def same_partition(a, b):
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


def assert_labels_match_scipy(screen):
    labels = missgraph.ggm._screen_labels(screen)
    oracle = connected_components(screen, directed=False)[1]
    assert same_partition(labels, oracle)
    # Each label is the smallest column of its component.
    for label in np.unique(labels):
        assert label == np.flatnonzero(labels == label).min()


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=30),
    density=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_screen_labels_match_connected_components(p, density, seed):
    rng = np.random.default_rng(seed)
    screen = rng.random((p, p)) < density
    assert_labels_match_scipy(screen | screen.T)


@pytest.mark.parametrize(
    "graph", ["single", "empty", "complete", "chain", "two-chains"]
)
def test_screen_labels_on_extreme_graphs(graph):
    order = np.random.default_rng(5).permutation(120)
    screen = np.zeros((120, 120), dtype=bool)
    if graph == "single":
        screen = np.ones((1, 1), dtype=bool)
    elif graph == "complete":
        screen[:] = True
    elif graph == "chain":  # diameter 119, in shuffled column order
        screen[order[:-1], order[1:]] = True
    elif graph == "two-chains":  # diameters 59 and 59
        screen[order[:59], order[1:60]] = True
        screen[order[60:-1], order[61:]] = True
    assert_labels_match_scipy(screen | screen.T)


def assert_certified(sigma, theta, lam):
    cert = kkt_certificate(sigma, theta, lam)
    assert cert["off_support_violation"] <= 1e-6
    assert cert["on_support_deviation"] <= 1e-6
    assert abs(cert["duality_gap"]) <= 1e-6


@pytest.mark.parametrize("seed", [62, 104, 168, 0, 1, 2])
@pytest.mark.parametrize("lam", [0.01, 0.1])
def test_sweep_refreshes_each_column_by_its_lasso(seed, lam, monkeypatch):
    # Each solve's column of W becomes W @ coef off the diagonal, read from
    # the product the lasso formed.  The inputs are those of
    # test_inner_lasso_near_copy_coordinates: at seeds 62, 104 and 168 the
    # near-copy joins a set, its Cholesky factorization fails and it is
    # dropped, and the product is the one formed before it joined.
    draw = np.random.default_rng(seed)
    p = draw.integers(3, 8)
    x = draw.standard_normal((200, 1)) + draw.standard_normal((200, p))
    noise = 10 ** draw.uniform(-9, -3) * draw.standard_normal((200, 1))
    sigma = correlation_matrix(np.hstack([x, x[:, -1:] + noise]))
    lasso = missgraph.ggm._lasso_active_set
    dposv = missgraph.ggm.dposv
    solved = []
    dropped = 0

    def check_last_refresh(w):
        j, before, coef = solved[-1]
        expected = before @ coef
        expected[j] = before[j, j]
        np.testing.assert_allclose(w[:, j], expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(w[j], w[:, j])

    def spy(w, j, target, lam, beta):
        if solved:
            check_last_refresh(w)
        coef, fitted = lasso(w, j, target, lam, beta)
        solved.append((j, w.copy(), coef.copy()))
        return coef, fitted

    def counting_dposv(*args, **kwargs):
        nonlocal dropped
        factor, x, info = dposv(*args, **kwargs)
        dropped += info > 0
        return factor, x, info

    monkeypatch.setattr(missgraph.ggm, "_lasso_active_set", spy)
    monkeypatch.setattr(missgraph.ggm, "dposv", counting_dposv)
    w, coef = sigma.copy(), np.zeros(sigma.shape)
    theta = missgraph.ggm._glasso_block(sigma, lam, missgraph.ggm.GAP_TOL, w, coef)
    check_last_refresh(w)
    assert (dropped > 0) == (seed in (62, 104, 168))
    assert_certified(sigma, theta, lam)


def copies_and_masks(rng, n=300):
    """Six related columns, affine copies of two of them and three identical
    mask indicators: the sample correlation is singular.  Its loadings are
    small enough that a cold solve meets the 1e-6 certificate at lam 0.01."""
    mask = (rng.random((n, 1)) < 0.3).astype(float)
    base = (
        rng.uniform(0.2, 1.0, 6) * rng.standard_normal((n, 1))
        + rng.standard_normal((n, 6))
        + mask * rng.uniform(0.0, 1.0, 6)
    )
    x = np.hstack([base, 3.0 * base[:, :2] + 1.0, mask, mask, mask])
    return np.corrcoef(x, rowvar=False)


class TestStart:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.2])
    def test_start_from_another_solution(self, lam, rng, monkeypatch):
        # The start solves another draw of the same design at lam 0.3, where
        # its screening components are not those of sigma at lam.
        sigma = copies_and_masks(rng)
        other = copies_and_masks(rng)
        start = glasso_fit(other, 0.3)
        assert not np.array_equal(components(sigma, lam), components(other, 0.3))

        warm_blocks = []
        block_start = missgraph.ggm._block_start

        def spying(*args):
            w, coef = block_start(*args)
            warm_blocks.append(coef.any())
            return w, coef

        monkeypatch.setattr(missgraph.ggm, "_block_start", spying)
        theta = glasso_fit(sigma, lam, start=start)
        assert any(warm_blocks)
        assert_certified(sigma, theta, lam)
        cold = glasso_fit(sigma, lam)
        np.testing.assert_array_equal(theta != 0.0, cold != 0.0)
        np.testing.assert_allclose(theta, cold, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        ("start", "match"),
        [
            (np.eye(4), r"a \(3, 3\) matrix"),
            (np.diag([1.0, 1.0, np.nan]), "finite"),
            (
                np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                "symmetric",
            ),
            (np.diag([1.0, -1.0, 1.0]), "positive definite"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "a numeric matrix"),
            ([["1", "0", "0"], ["0", "x", "0"], ["0", "0", "1"]], "a numeric matrix"),
            (np.ones((3, 2)), "square"),
            (np.diag([1.0, np.inf, 1.0]), "finite"),
            (
                np.array([[1.0, -np.inf, 0.0], [-np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                "finite",
            ),
        ],
        ids=[
            "shape", "non-finite", "asymmetric", "indefinite", "ragged",
            "non-numeric", "non-square", "inf", "minus-inf",
        ],
    )
    def test_bad_start_rejected(self, start, match):
        sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        with pytest.raises(ContractError, match=f"start must be {match}"):
            glasso_fit(sigma, 0.1, start=start)

    def test_warm_start_is_the_plain_start_inverted_once(self, rng):
        sigma = copies_and_masks(rng)
        start = glasso_fit(copies_and_masks(rng), 0.3)
        warm = WarmStart.of(start)
        assert warm.theta is start
        np.testing.assert_array_equal(
            glasso_fit(sigma, 0.05, start=warm), glasso_fit(sigma, 0.05, start=start)
        )
        with pytest.raises(ContractError, match="start"):
            glasso_fit(sigma[:3, :3], 0.05, start=warm)

    def test_start_outside_the_positive_definite_cone_starts_cold(self):
        # inv(start) is far from sigma: the projection moves every entry by
        # the whole lam, to a W that is not positive definite.
        lam = 0.1
        sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.7], [0.9, 0.7, 1.0]])
        w0 = np.array([[4.0, 3.0, 3.0], [3.0, 4.0, 2.0], [3.0, 2.0, 4.0]])
        start = np.linalg.inv(w0)
        start = (start + start.T) / 2.0
        projected = sigma + np.clip(w0 - sigma, -lam, lam)
        np.fill_diagonal(projected, 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(projected)
        theta = glasso_fit(sigma, lam, start=start)
        np.testing.assert_array_equal(theta, glasso_fit(sigma, lam))
        assert_certified(sigma, theta, lam)


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

    @pytest.mark.parametrize("standardized", [True, False])
    def test_matches_correlation_matrix_route(self, standardized, rng):
        # The columns are checked once, not once per rotation; each rotation
        # is still the correlation matrix of the same permuted draws.
        x = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6))
        x[:, 0] = np.round(x[:, 0])  # ties
        if standardized:
            x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        else:
            x = 50.0 + 7.0 * x
        ref = np.random.default_rng(3)
        off = ~np.eye(6, dtype=bool)
        maxima = [
            np.abs(correlation_matrix(ref.permuted(x, axis=0))[off]).max()
            for _ in range(8)
        ]
        lam = select_lambda_ric(x, n_rotations=8, seed=3)
        assert lam == float(np.mean(maxima))

    def test_constant_column_rejected(self, rng):
        x = rng.standard_normal((30, 3))
        x[:, 1] = 0.1  # its float mean is not exactly 0.1
        with pytest.raises(DegenerateColumnError):
            select_lambda_ric(x, n_rotations=3, seed=0)

    def test_needs_at_least_two_columns(self, rng, monkeypatch):
        # Refused before any permutation is drawn.
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail())
        with pytest.raises(ContractError, match="at least 2 columns"):
            select_lambda_ric(rng.standard_normal((50, 1)), n_rotations=3, seed=0)

    def test_needs_at_least_one_rotation(self, rng):
        with pytest.raises(ContractError):
            select_lambda_ric(rng.normal(size=(20, 2)), n_rotations=0, seed=0)

    def test_negative_seed_rejected(self, rng):
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            select_lambda_ric(rng.normal(size=(20, 2)), n_rotations=2, seed=-1)


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
        # Unchecked, a non-finite theta gives NaN and an asymmetric one is
        # symmetrized without a word.
        for bad, match in [
            (np.diag([1.0, -1.0]), "positive definite"),
            (np.diag([np.inf, 1.0]), "finite"),
            (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), "finite"),
            (np.diag([np.nan, 1.0]), "finite"),
            (np.array([[2.0, 0.5], [0.0, 2.0]]), "symmetric"),
            ([[1.0, 0.0], [0.0]], "a numeric matrix"),
            ([["1", "x"], ["x", "1"]], "a numeric matrix"),
            (np.ones((2, 3)), "square"),
        ]:
            with pytest.raises(ContractError, match=f"theta_hat must be {match}"):
                desparsify(bad, np.eye(2), 10)
        # sigma_hat gets the same checks: unchecked, a NaN gives NaN and a
        # ragged or misshapen one a bare ValueError.
        for bad, match in [
            (np.diag([np.nan, 1.0]), "finite"),
            ([[1.0, 0.0], [0.0]], "a numeric matrix"),
            (np.eye(3), r"a \(2, 2\) matrix, got \(3, 3\)"),
        ]:
            with pytest.raises(ContractError, match=f"sigma_hat must be {match}"):
                desparsify(np.eye(2), bad, 10)


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

    def test_bad_t_hat_rejected(self):
        # Unchecked, a ragged t_hat raises a bare ValueError, a NaN diagonal
        # gives NaN and an asymmetric one an asymmetric rho.
        for bad, match in [
            ([[1.0, 0.5], [0.5]], "a numeric matrix"),
            (np.diag([np.nan, 1.0]), "finite"),
            (np.array([[1.0, 0.5], [0.1, 1.0]]), "symmetric"),
        ]:
            with pytest.raises(ContractError, match=f"t_hat must be {match}"):
                partial_correlations(bad)

    def test_clamp_warns_when_large(self):
        t = np.array([[1.0, -1.5], [-1.5, 1.0]])
        with pytest.warns(UserWarning, match="clamped"):
            rho = partial_correlations(t)
        assert rho[0, 1] == 1.0


def _fit_arrays(t):
    fit = fit_precision(t, 0.1)
    return np.stack([fit.partial_corr, fit.theta])


each_estimate = pytest.mark.parametrize(
    "estimate",
    [
        correlation_matrix,
        lambda t: select_lambda_ric(t, n_rotations=5, seed=2),
        _fit_arrays,
    ],
    ids=["correlation_matrix", "select_lambda_ric", "fit_precision"],
)


@each_estimate
def test_transformed_matrix_reads_as_its_values(estimate, rng):
    # A TransformedMatrix is array-like: each estimator reads its values.
    z = rng.standard_normal((300, 4))
    z[:, 1] += 0.6 * z[:, 0]
    transformed = nonparanormal_transform(z)
    np.testing.assert_array_equal(
        estimate(transformed), estimate(transformed.values)
    )


def _every_other_row(x):
    big = np.zeros((2 * x.shape[0], x.shape[1]))
    big[::2] = x
    return big[::2]


def _every_other_column(x):
    big = np.zeros((x.shape[0], 2 * x.shape[1]))
    big[:, ::2] = x
    return big[:, ::2]


@each_estimate
@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, _every_other_row, _every_other_column],
    ids=["f_order", "row_strided", "column_strided"],
)
def test_memory_layout_moves_no_bit(estimate, layout, rng):
    # The same values in another memory layout give the same bits.
    x = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
    x[:, 0] = np.round(x[:, 0])  # ties
    other = layout(x)
    assert x.flags.c_contiguous and not other.flags.c_contiguous
    np.testing.assert_array_equal(estimate(other), estimate(x))


@each_estimate
@pytest.mark.parametrize("shape", [(5,), (1, 3)], ids=["vector", "one_row"])
def test_needs_a_matrix_of_two_rows(estimate, shape):
    with pytest.raises(ContractError, match="2-D matrix with at least 2 rows"):
        estimate(np.ones(shape))


def test_fit_precision_of_one_column(rng):
    fit = fit_precision(rng.standard_normal((50, 1)), 0.1)
    np.testing.assert_array_equal(fit.partial_corr, [[1.0]])
    assert fit.theta.shape == (1, 1) and fit.theta[0, 0] > 0.0
    assert (fit.n, fit.p) == (50, 1)


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
