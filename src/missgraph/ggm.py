"""Sparse Gaussian graphical model estimation and edge-wise inference.

The estimator minimizes

    trace(Sigma_hat @ Theta) - logdet(Theta) + lam * ||Theta||_1,off

over positive-definite precision matrices Theta, with the l1 penalty applied
to off-diagonal entries only.  The columns are first screened: the solution
is block diagonal over the connected components of the graph
|Sigma_hat_ij| > lam, so a lone column gets 1 / Sigma_hat_ii and each larger
component is solved on its own.  That solver is blockwise coordinate descent
on the working covariance W = Theta^{-1}: one column of W is refreshed per
inner lasso solve (active-set coordinate descent), whose Gram matrix, W
without that row and column, is read from W in place.  Sweeps repeat until W
is stationary and the duality gap

    gap = trace(Sigma_hat @ Theta) - p + lam * ||Theta||_1,off

falls below tolerance.  Sparse estimates are biased by the penalty, so
edge-level inference uses the de-biased matrix

    T = 2*Theta - Theta @ Sigma_hat @ Theta

whose entries are asymptotically normal with standard deviation
sqrt(Theta_ii * Theta_jj + Theta_ij**2) / sqrt(n).  Partial correlations come
from the rescaled precision, rho_ij = -T_ij / sqrt(T_ii * T_jj).

The regularization level is picked by a permutation null: rows of every
column are shuffled independently (killing all cross-column dependence) and
lam is the mean, over rotations, of the largest absolute off-diagonal sample
correlation of the shuffled matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.sparse.csgraph import connected_components

from .errors import ContractError, ConvergenceError, DegenerateColumnError
from .npn import TransformedMatrix

W_TOL = 1e-7  # max absolute change of W per sweep to declare stationarity
GAP_TOL = 1e-6  # duality gap certificate
MAX_SWEEPS = 10_000
_INNER_TOL = 1e-11
_INNER_MAX_ITER = 5_000
_CLAMP_WARN = 1e-6


@dataclass(frozen=True)
class PrecisionFit:
    """The part of one member's fit that pooling reads.

    ``partial_corr`` is derived from the de-biased precision; ``support`` is
    the boolean off-diagonal support of the sparse penalized estimate; ``n``
    is the sample count.
    """

    partial_corr: np.ndarray
    support: np.ndarray
    n: int

    @property
    def p(self) -> int:
        return self.partial_corr.shape[0]


def _as_matrix(t) -> np.ndarray:
    if isinstance(t, TransformedMatrix):
        return t.values
    return np.asarray(t, dtype=float)


def correlation_matrix(t: TransformedMatrix | np.ndarray) -> np.ndarray:
    """Pearson correlation of the columns: symmetric, unit diagonal, in [-1, 1].

    Raises DegenerateColumnError if any column is constant.
    """
    x = _as_matrix(t)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ContractError("need a 2-D matrix with at least 2 rows")
    sd = x.std(axis=0)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise DegenerateColumnError(f"#{bad[0]}", "has zero variance")
    c = np.corrcoef(x, rowvar=False)
    c = np.clip((c + c.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c


def _lasso_cd(
    w: np.ndarray, j: int, target: np.ndarray, lam: float, beta: np.ndarray
) -> np.ndarray:
    """Active-set coordinate descent for 0.5*b'Gb - t'b + lam*|b|_1, warm-started.

    G is ``w`` without row and column ``j``, read in place; ``target`` and
    ``beta`` are indexed like ``w``, and ``beta[j]`` is 0 and never visited.
    A full pass over every other coordinate picks the active set (the
    nonzero coefficients); passes over that set alone follow until no step
    reaches ``_INNER_TOL``, then a full pass checks the rest.  The solve ends
    when a full pass moves no coefficient by ``_INNER_TOL`` or more, or after
    ``_INNER_MAX_ITER`` passes of either kind.
    """
    grad = w @ beta  # maintained as W @ beta; entry j is never read
    diag = w.diagonal().tolist()
    target = target.tolist()
    beta = beta.tolist()
    every = [*range(j), *range(j + 1, len(beta))]
    coords = every
    for _ in range(_INNER_MAX_ITER):
        max_step = 0.0
        for m in coords:
            old = beta[m]
            raw = target[m] - grad.item(m) + diag[m] * old
            if raw > lam:
                new = (raw - lam) / diag[m]
            elif raw < -lam:
                new = (raw + lam) / diag[m]
            else:
                new = 0.0
            step = new - old
            if step != 0.0:
                grad += step * w[m]  # w is symmetric: row m is column m
                beta[m] = new
                max_step = max(max_step, abs(step))
        if max_step < _INNER_TOL:
            if coords is every:
                break
            coords = every
        elif coords is every:
            coords = [m for m in every if beta[m] != 0.0]
    return np.array(beta)


def duality_gap(sigma_hat: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """Primal-dual gap of the penalized likelihood at (theta, theta^{-1})."""
    off_l1 = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
    return float(np.sum(sigma_hat * theta) - theta.shape[0] + lam * off_l1)


def glasso_fit(sigma_hat: np.ndarray, lam: float) -> np.ndarray:
    """Solve the off-diagonal-penalized sparse precision problem.

    The problem splits exactly along the connected components of the graph
    ``|sigma_ij| > lam`` (Witten, Friedman & Simon 2011; Mazumder & Hastie
    2012): the solution is block diagonal over them.  A singleton column gets
    ``1 / sigma_ii``; every larger component is solved on its own by
    blockwise coordinate descent, with an active-set lasso for each column.

    Parameters
    ----------
    sigma_hat : symmetric sample correlation/covariance matrix.
    lam : finite penalty level, >= 0.  With lam = 0 the input must be invertible and
        the plain inverse is returned.

    Returns
    -------
    theta_hat : symmetric positive-definite precision estimate with exact
        zeros off the selected support, and between screening components.
        On return the KKT system holds: for W = theta_hat^{-1},
        |W_ij - sigma_hat_ij| <= lam off the support and
        W_ij - sigma_hat_ij = lam * sign(theta_ij) on it, and the duality gap
        is below ``GAP_TOL``.

    Raises
    ------
    ContractError for asymmetric input or a negative or non-finite lam;
    ConvergenceError if a component does not converge within ``MAX_SWEEPS``
    sweeps.
    """
    sigma = np.asarray(sigma_hat, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ContractError("sigma_hat must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ContractError("sigma_hat must be symmetric")
    if not 0 <= lam < np.inf:
        raise ContractError(
            f"lambda must be finite and non-negative, got {lam}"
        )
    if lam == 0.0:
        try:
            theta = np.linalg.inv(sigma)
        except np.linalg.LinAlgError:
            raise ContractError(
                "lambda = 0 requires an invertible sigma_hat"
            ) from None
        return (theta + theta.T) / 2.0

    p = sigma.shape[0]
    screen = np.abs(sigma) > lam
    np.fill_diagonal(screen, False)
    count, labels = connected_components(screen, directed=False)
    theta = np.zeros((p, p))
    for label in range(count):
        block = np.flatnonzero(labels == label)
        if block.size == 1:
            theta[block, block] = 1.0 / sigma[block, block]
        else:
            # The gap of theta is the sum of its blocks' gaps.
            theta[np.ix_(block, block)] = _glasso_block(
                sigma[np.ix_(block, block)], lam, GAP_TOL * block.size / p
            )
    return theta


def _glasso_block(sigma: np.ndarray, lam: float, gap_tol: float) -> np.ndarray:
    """Blockwise coordinate descent on one screening component (p >= 2).

    One column of the working covariance W is refreshed per inner lasso
    solve; sweeps repeat until W moves by less than ``W_TOL`` and the
    duality gap is at most ``gap_tol``.  Row j of ``coef`` holds column j's
    lasso coefficients, indexed like W with ``coef[j, j]`` = 0; the lasso
    reads W in place and column j of W becomes ``W @ coef[j]`` off the
    diagonal.
    """
    p = sigma.shape[0]
    w = sigma.copy()  # diagonal is unpenalized and never moves
    coef = np.zeros((p, p))
    converged = False
    gap = np.inf
    for _ in range(MAX_SWEEPS):
        w_prev = w.copy()
        for j in range(p):
            coef[j] = _lasso_cd(w, j, sigma[:, j], lam, coef[j])
            w_j = w @ coef[j]
            w_j[j] = w[j, j]
            w[:, j] = w_j
            w[j] = w_j
        delta = np.abs(w - w_prev).max()
        if delta < W_TOL:
            theta = _invert_spd(w)
            gap = duality_gap(sigma, theta, lam)
            if gap <= gap_tol:
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"graphical lasso did not converge within {MAX_SWEEPS} sweeps",
            residual=gap if np.isfinite(gap) else None,
        )
    # Exact zeros: an off-diagonal entry is active only if either of the two
    # column problems kept its coefficient.
    active = coef != 0.0
    active |= active.T
    np.fill_diagonal(active, True)
    theta[~active] = 0.0
    return (theta + theta.T) / 2.0


def _invert_spd(w: np.ndarray) -> np.ndarray:
    try:
        cho = np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "working covariance lost positive definiteness"
        ) from None
    inv_cho = np.linalg.inv(cho)
    theta = inv_cho.T @ inv_cho
    return (theta + theta.T) / 2.0


def kkt_certificate(
    sigma_hat: np.ndarray, theta_hat: np.ndarray, lam: float
) -> dict[str, float]:
    """Measure how well a solution satisfies the stationarity system.

    Returns the largest off-support violation of ``|W_ij - sigma_ij| <= lam``,
    the largest on-support deviation from ``W_ij - sigma_ij = lam*sign``, and
    the duality gap, with ``W = theta_hat^{-1}``.
    """
    w = np.linalg.inv(theta_hat)
    w = (w + w.T) / 2.0
    resid = w - sigma_hat
    off = ~np.eye(theta_hat.shape[0], dtype=bool)
    support = (theta_hat != 0.0) & off
    inactive = (theta_hat == 0.0) & off
    off_violation = (
        float((np.abs(resid[inactive]) - lam).max()) if inactive.any() else -lam
    )
    sign_dev = (
        float(np.abs(resid[support] - lam * np.sign(theta_hat[support])).max())
        if support.any()
        else 0.0
    )
    return {
        "off_support_violation": off_violation,
        "on_support_deviation": sign_dev,
        "duality_gap": duality_gap(sigma_hat, theta_hat, lam),
    }


def select_lambda_ric(
    t: TransformedMatrix | np.ndarray, n_rotations: int = 20, seed: int = 0
) -> float:
    """Permutation-null regularization level.

    Each rotation permutes the rows of every column independently, which
    destroys all cross-column dependence while keeping the marginals; the
    statistic is the largest absolute off-diagonal correlation of the
    permuted matrix.  The returned lam is the mean over rotations, i.e. the
    penalty at which a truly dependence-free version of the data would have
    an empty estimated graph.
    """
    if n_rotations < 1:
        raise ContractError(f"n_rotations must be >= 1, got {n_rotations}")
    x = _as_matrix(t)
    p = x.shape[1]
    rng = np.random.default_rng(int(seed))
    maxima = np.empty(n_rotations)
    off = ~np.eye(p, dtype=bool)
    for r in range(n_rotations):
        c = correlation_matrix(rng.permuted(x, axis=0))
        maxima[r] = np.abs(c[off]).max()
    return float(maxima.mean())


def _debias(theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``2*theta - theta @ sigma @ theta`` (symmetrized) for a PD ``theta``."""
    try:
        np.linalg.cholesky(theta)
    except np.linalg.LinAlgError:
        raise ContractError("theta_hat must be positive definite") from None
    t_hat = 2.0 * theta - theta @ sigma @ theta
    return (t_hat + t_hat.T) / 2.0


def desparsify(
    theta_hat: np.ndarray, sigma_hat: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """De-bias a sparse precision estimate for entry-wise inference.

    Returns
    -------
    t_hat : ``2*theta - theta @ sigma @ theta`` (symmetrized).
    edge_sd : asymptotic standard deviations
        ``sqrt(theta_ii * theta_jj + theta_ij**2)``.
    z : ``sqrt(n) * t_hat / edge_sd`` off the diagonal, 0 on it.
    p_values : two-sided standard-normal tails of ``z``; 1 on the diagonal.
    """
    theta = np.asarray(theta_hat, dtype=float)
    t_hat = _debias(theta, np.asarray(sigma_hat, dtype=float))
    d = np.diag(theta)
    edge_sd = np.sqrt(np.outer(d, d) + theta**2)
    z = np.sqrt(n) * t_hat / edge_sd
    np.fill_diagonal(z, 0.0)
    p_values = 2.0 * stats.norm.sf(np.abs(z))
    np.fill_diagonal(p_values, 1.0)
    return t_hat, edge_sd, z, p_values


def partial_correlations(t_hat: np.ndarray) -> np.ndarray:
    """Partial correlations ``-T_ij / sqrt(T_ii * T_jj)`` with unit diagonal.

    Values are clamped into [-1, 1]; a clamp larger than 1e-6 triggers a
    warning because it signals a badly scaled precision estimate.
    """
    t = np.asarray(t_hat, dtype=float)
    d = np.diag(t)
    if np.any(d <= 0.0):
        raise ContractError("t_hat must have a strictly positive diagonal")
    rho = -t / np.sqrt(np.outer(d, d))
    np.fill_diagonal(rho, 1.0)
    overshoot = np.abs(rho).max() - 1.0
    if overshoot > _CLAMP_WARN:
        warnings.warn(
            f"partial correlations clamped by {overshoot:.2e}", stacklevel=2
        )
    return np.clip(rho, -1.0, 1.0)


def fit_precision(
    t: TransformedMatrix | np.ndarray, lam: float
) -> PrecisionFit:
    """Correlation -> sparse precision -> de-biased partial correlations."""
    x = _as_matrix(t)
    sigma = correlation_matrix(x)
    theta = glasso_fit(sigma, lam)
    support = theta != 0.0
    np.fill_diagonal(support, False)
    return PrecisionFit(
        partial_corr=partial_correlations(_debias(theta, sigma)),
        support=support,
        n=x.shape[0],
    )
