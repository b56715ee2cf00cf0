"""Sparse Gaussian graphical model estimation and edge-wise inference.

The data are any 2-D array of n rows and p columns.  Their sample
correlation comes from one kernel: the columns are copied into column-major
order, each centred in place by one contiguous sum, and ``x.T @ x``, one BLAS
product, is scaled by its diagonal.  Its bits therefore depend on the values
only: a C-order array, a Fortran-order one and a strided view of the same
values give the same correlations, the same lam and the same fit.  The
estimator minimizes

    trace(Sigma_hat @ Theta) - logdet(Theta) + lam * ||Theta||_1,off

over positive-definite precision matrices Theta, with the l1 penalty applied
to off-diagonal entries only.  The columns are first screened: the solution
is block diagonal over the connected components of the graph
|Sigma_hat_ij| > lam, each labelled by its smallest column index, so the lone
columns get 1 / Sigma_hat_ii in one step and each larger component is solved
on its own.  That solver is blockwise coordinate descent on the working
covariance W = Theta^{-1}: one column of W is refreshed per inner lasso
solve, whose Gram matrix, W without that row and column, is read from W in
place.  The lasso is solved exactly on its active set, one
Cholesky solve per step, adding the worst violator of the optimality
conditions or walking back to the first sign change.  Sweeps repeat until W
is stationary and the duality gap

    gap = trace(Sigma_hat @ Theta) - p + lam * ||Theta||_1,off

falls below tolerance.  A solve may start from another precision estimate,
such as a previous member's, inverted once in a ``WarmStart`` when many
solves share it: W then starts at Sigma_hat moved towards its inverse by at
most lam per entry, a point inside the dual box
|W - Sigma_hat| <= lam where coordinate descent keeps W positive definite
(Banerjee, El Ghaoui & d'Aspremont 2008), and each lasso starts from the
coefficients that estimate implies.  Sparse estimates are biased by the
penalty, so edge-level inference uses the de-biased matrix

    T = 2*Theta - Theta @ Sigma_hat @ Theta

whose entries are asymptotically normal with standard deviation
sqrt(Theta_ii * Theta_jj + Theta_ij**2) / sqrt(n).  Partial correlations come
from the rescaled precision, rho_ij = -T_ij / sqrt(T_ii * T_jj).

The regularization level is picked by a permutation null: rows of every
column are shuffled independently (killing all cross-column dependence) and
lam is the mean, over rotations, of the largest absolute off-diagonal sample
correlation of the shuffled matrix.  Every rotation permutes into, and
centres, one column-major buffer, so no rotation allocates a matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg.lapack import dposv

from .errors import ContractError, ConvergenceError, DegenerateColumnError

W_TOL = 1e-7  # max absolute change of W per sweep to declare stationarity
GAP_TOL = 1e-6  # duality gap certificate
MAX_SWEEPS = 10_000
_LASSO_MAX_STEPS = 10_000  # add/drop steps per inner lasso solve
_JOIN_MARGIN = 1e-12  # violation, relative to w[j, j], below which none joins
_CLAMP_WARN = 1e-6


@dataclass(frozen=True)
class PrecisionFit:
    """The part of one member's fit that pooling reads.

    ``partial_corr`` is derived from the de-biased precision; ``theta`` is
    the sparse penalized estimate, from which the next members' solves can
    start; ``n`` is the sample count.
    """

    partial_corr: np.ndarray
    theta: np.ndarray
    n: int

    @property
    def p(self) -> int:
        return self.partial_corr.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Boolean off-diagonal support of ``theta``."""
        support = self.theta != 0.0
        np.fill_diagonal(support, False)
        return support


def _varying_columns(t: np.ndarray) -> np.ndarray:
    """The matrix of ``t``; raises DegenerateColumnError on a constant column."""
    x = np.asarray(t, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ContractError("need a 2-D matrix with at least 2 rows")
    # Exact: the float std of a constant column whose mean rounds is not 0.
    # Only the columns whose first two rows tie can be constant.
    tied = np.flatnonzero(~(x[1] != x[0]))
    bad = tied[~(x[:, tied] != x[0, tied]).any(axis=0)]
    if bad.size:
        raise DegenerateColumnError(f"#{bad[0]}", "has zero variance")
    return x


def correlation_matrix(t: np.ndarray) -> np.ndarray:
    """Pearson correlation of the columns: symmetric, unit diagonal, in [-1, 1].

    It is computed on a column-major copy of ``t``, so its bits depend on
    the values only, not on the memory layout of ``t``.

    Raises DegenerateColumnError if any column is constant.
    """
    return _correlation(np.array(_varying_columns(t), order="F"))


def _correlation(xf: np.ndarray) -> np.ndarray:
    """``correlation_matrix`` of the column-major ``xf``, which has no
    constant column and which it centres in place."""
    xf -= xf.mean(axis=0)
    c = xf.T @ xf
    d = np.sqrt(np.diag(c))
    c /= d[:, None]
    c /= d
    c = np.clip((c + c.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c


def _lasso_active_set(
    w: np.ndarray, j: int, target: np.ndarray, lam: float, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact active-set solve of 0.5*b'Gb - t'b + lam*|b|_1, warm-started.

    G is ``w`` without row and column ``j``, read in place; ``target`` and
    ``beta`` are indexed like ``w``, and ``beta[j]`` is 0 and stays 0.  The
    active set A starts as the nonzero entries of ``beta``, with their signs
    s (Osborne, Presnell & Turlach 2000; feature-sign search, Lee et al.
    2006).  Each step solves ``W[A, A] x = t[A] - lam*s`` by one Cholesky
    solve.  If some coefficient of x has the wrong sign, b moves along the
    segment towards x to the first zero crossing and drops the coordinates
    that reach zero.  Otherwise b = x, and the inactive coordinate with the
    largest ``|t_i - W[i, A] b|`` joins A with that sign if that exceeds
    ``lam`` by more than ``_JOIN_MARGIN * w[j, j]``; the solve ends when
    none does.

    The margin keeps out a coordinate that violates its bound by rounding
    only, as the copy of an active coordinate does: two variables with the
    same missingness mask give duplicate columns.  A near-copy can still
    pass it and make ``W[A, A]`` numerically singular; since the set before
    it factorized, that coordinate lies in the span of A, so it is dropped
    and the solve ends.  A failed solve on a set that did not just grow
    raises, and so does the step budget.

    Returns the coefficients, indexed like ``w``, and ``W @ coefficients``
    as the last optimality check formed it, ``b @ W[A, :]``.  A near-copy
    is dropped in the step after it joined, and the check that let it join
    formed that product for the set it is dropped from.
    """
    active = beta.nonzero()[0]
    b = beta[active]
    sign = np.sign(b)
    added = False
    bound = lam + _JOIN_MARGIN * w[j, j]
    for _ in range(_LASSO_MAX_STEPS):
        rows = w.take(active, axis=0)  # W[A, :]
        if active.size:
            rhs = target[active] - lam * sign
            # W[A, A] is symmetric: its transpose is the same matrix in the
            # Fortran order LAPACK reads, so it is not copied again.
            _, x, info = dposv(
                rows.take(active, axis=1).T, rhs, overwrite_a=True
            )
            if info > 0:
                if not added:
                    raise ConvergenceError(
                        "working covariance lost positive definiteness"
                    )
                active, b = active[:-1], b[:-1]
                break
            added = False
            cross = (x * sign <= 0.0).nonzero()[0]
            if cross.size:
                ratio = b[cross] / (b[cross] - x[cross])  # in (0, 1]
                first = ratio.argmin()
                b += ratio[first] * (x - b)
                b[cross[first]] = 0.0
                keep = b * sign > 0.0
                active, b, sign = active[keep], b[keep], sign[keep]
                continue
            b = x
        fitted = b @ rows
        resid = target - fitted
        resid[active] = 0.0
        resid[j] = 0.0
        worst = np.abs(resid).argmax()
        if abs(resid[worst]) <= bound:
            break
        active = np.concatenate((active, [worst]))
        b = np.concatenate((b, [0.0]))
        sign = np.concatenate((sign, [np.sign(resid[worst])]))
        added = True
    else:
        raise ConvergenceError(
            f"inner lasso did not converge within {_LASSO_MAX_STEPS} steps"
        )
    out = np.zeros(beta.size)
    out[active] = b
    return out, fitted


def duality_gap(sigma_hat: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """Primal-dual gap of the penalized likelihood at (theta, theta^{-1}),
    unchecked: the solver calls it on every stationary sweep."""
    off_l1 = np.abs(theta).sum() - np.abs(np.diag(theta)).sum()
    return float(np.sum(sigma_hat * theta) - theta.shape[0] + lam * off_l1)


@dataclass(frozen=True)
class WarmStart:
    """A precision that ``glasso_fit`` may start from, with its inverse.

    Build it with :meth:`of`, which checks the precision and inverts it once,
    so that the solves of many similar problems share one inversion.
    """

    theta: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, theta: np.ndarray) -> WarmStart:
        """Check ``theta`` and invert it.

        Raises ContractError from ``positive_definite``, naming ``start``.
        """
        theta, cho = positive_definite(theta, "start")
        return cls(theta=theta, w=_cholesky_inverse(cho))


def glasso_fit(
    sigma_hat: np.ndarray, lam: float, start: np.ndarray | WarmStart | None = None
) -> np.ndarray:
    """Solve the off-diagonal-penalized sparse precision problem.

    The problem splits exactly along the connected components of the graph
    ``|sigma_ij| > lam`` (Witten, Friedman & Simon 2011; Mazumder & Hastie
    2012): the solution is block diagonal over them.  The components are
    labelled by ``_screen_labels``; every singleton column gets
    ``1 / sigma_ii`` at once, and every larger component is solved on its
    own by blockwise coordinate descent (Friedman, Hastie & Tibshirani 2008),
    with each column's lasso solved exactly on its active set.

    Parameters
    ----------
    sigma_hat : finite, symmetric sample correlation/covariance matrix with a
        positive diagonal.
    lam : finite penalty level, >= 0.  With lam = 0 the input must be
        positive definite and its plain inverse is returned.
    start : optional symmetric positive-definite precision of the same shape,
        such as the estimate of a similar ``sigma_hat``, to start from (see
        ``_block_start``), or a ``WarmStart`` of one.  The answer is the same
        optimum to the solver's tolerance; only the path to it is shorter.

    Returns
    -------
    theta_hat : symmetric positive-definite precision estimate with exact
        zeros off the selected support, and between screening components.
        What is certified is the duality gap, below ``GAP_TOL``, of each
        component's unzeroed ``W^{-1}``, before its inactive entries are
        zeroed.  The returned theta_hat is not certified again: its KKT
        bounds (for W = theta_hat^{-1}, |W_ij - sigma_hat_ij| <= lam off the
        support, W_ij - sigma_hat_ij = lam * sign(theta_ij) on it) can break
        1e-6 on ill-conditioned inputs (ROADMAP item 1).  The benchmark
        checks the gap and the off-support bound of every fit on its three
        workloads, and every one meets them.

    Raises
    ------
    ContractError for a ``sigma_hat`` that ``symmetric_matrix`` rejects, with
    a diagonal entry <= 0 or, at lam = 0, not positive definite, a negative
    or non-finite lam, or a ``start`` that ``WarmStart.of`` rejects or of the
    wrong shape; ConvergenceError if a component does not converge within
    ``MAX_SWEEPS`` sweeps, a column's lasso exceeds its step budget, or the
    working covariance loses positive definiteness.
    """
    sigma = symmetric_matrix(sigma_hat, "sigma_hat")
    if not (np.diag(sigma) > 0.0).all():
        raise ContractError("sigma_hat must have a positive diagonal")
    if not 0 <= lam < np.inf:
        raise ContractError(
            f"lambda must be finite and non-negative, got {lam}"
        )
    if start is not None:
        if not isinstance(start, WarmStart):
            start = WarmStart.of(start)
        _shaped(start.theta, sigma, "start")
    if lam == 0.0:
        return _cholesky_inverse(positive_definite(sigma, "sigma_hat")[1])

    p = sigma.shape[0]
    labels = _screen_labels(np.abs(sigma) > lam)
    sizes = np.bincount(labels, minlength=p)
    lone = np.flatnonzero(sizes[labels] == 1)
    theta = np.zeros((p, p))
    theta[lone, lone] = 1.0 / sigma[lone, lone]
    for label in np.flatnonzero(sizes > 1):
        block = np.flatnonzero(labels == label)
        sub = np.ix_(block, block)
        s = sigma[sub]
        if start is None:
            w, coef = s.copy(), np.zeros((block.size, block.size))
        else:
            w, coef = _block_start(s, lam, start.theta[sub], start.w[sub])
        # The gap of theta is the sum of its blocks' gaps.
        theta[sub] = _glasso_block(s, lam, GAP_TOL * block.size / p, w, coef)
    return theta


def symmetric_matrix(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as a float matrix; raises ContractError, naming ``name`` and the
    property it fails, unless it is numeric, square, finite and symmetric."""
    try:
        m = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ContractError(f"{name} must be a numeric matrix") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square")
    if not np.isfinite(m).all():
        raise ContractError(f"{name} must be finite")
    if not _symmetric(m):
        raise ContractError(f"{name} must be symmetric")
    return m


def positive_definite(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``symmetric_matrix(a, name)`` and its lower Cholesky factor, or
    ContractError naming ``name`` if it is not positive definite."""
    m = symmetric_matrix(a, name)
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ContractError(f"{name} must be positive definite") from None


def _shaped(m: np.ndarray, like: np.ndarray, name: str) -> np.ndarray:
    """``m``, or ContractError naming ``name`` unless it has ``like``'s shape."""
    if m.shape != like.shape:
        raise ContractError(f"{name} must be a {like.shape} matrix, got {m.shape}")
    return m


def _symmetric(a: np.ndarray) -> bool:
    """``np.allclose(a, a.T, atol=1e-10)`` for a finite ``a``, written out;
    exact symmetry, which the estimator's own matrices have, is tested first."""
    exact = (a == a.T).all()
    return bool(exact or (np.abs(a - a.T) <= 1e-10 + 1e-5 * np.abs(a.T)).all())


def _screen_labels(screen: np.ndarray) -> np.ndarray:
    """Label each column of a symmetric boolean adjacency by the smallest
    index in its connected component; the diagonal is ignored.

    Each round takes the smallest label among a column and its neighbours,
    then jumps every label to its own label's label.  A label only falls and
    always names a column of the same component, whose smallest column keeps
    its own index, so the rounds stop when each component carries that one
    label.
    """
    p = screen.shape[0]
    labels = np.arange(p)
    while True:
        reached = np.where(screen, labels, p).min(axis=1, initial=p)
        np.minimum(reached, labels, out=reached)
        reached = reached[reached]
        if np.array_equal(reached, labels):
            return labels
        labels = reached


def _block_start(
    sigma: np.ndarray, lam: float, theta0: np.ndarray, w0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-feasible working covariance and lasso coefficients of a start.

    ``theta0`` and ``w0`` are one component's block of the start and of its
    inverse.  W is ``sigma + clip(w0 - sigma, -lam, lam)`` off the diagonal,
    with the diagonal of ``sigma``: a point of the dual box where coordinate
    descent keeps W positive definite.  Column j's lasso starts at
    ``-theta0[:, j] / theta0[j, j]``.  If that W is not positive definite,
    the component starts cold, from ``sigma`` with zero coefficients:
    ``sigma`` can then be singular (a column and its copy), and so can the
    Gram of a started active set.
    """
    w = sigma + np.clip(w0 - sigma, -lam, lam)
    np.fill_diagonal(w, np.diag(sigma))
    try:
        np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        return sigma.copy(), np.zeros(sigma.shape)
    coef = -theta0.T / np.diag(theta0)[:, None]
    np.fill_diagonal(coef, 0.0)
    return w, coef


def _glasso_block(
    sigma: np.ndarray, lam: float, gap_tol: float, w: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """Blockwise coordinate descent on one screening component (p >= 2).

    ``w`` is the starting working covariance, positive definite with the
    diagonal of ``sigma``, which is unpenalized and never moves; ``coef``
    holds the starting lasso coefficients.  Both are updated in place.  One
    column of W is refreshed per inner lasso solve; sweeps repeat until W
    moves by less than ``W_TOL`` and the duality gap is at most ``gap_tol``.
    Row j of ``coef`` holds column j's lasso coefficients, indexed like W
    with ``coef[j, j]`` = 0; the lasso reads W in place and column j of W
    becomes ``W @ coef[j]`` off the diagonal, the product the lasso formed
    for its last optimality check (Friedman, Hastie & Tibshirani 2008:
    W12 = W11 beta).
    """
    p = sigma.shape[0]
    converged = False
    gap = np.inf
    for _ in range(MAX_SWEEPS):
        w_prev = w.copy()
        for j in range(p):
            coef[j], w_j = _lasso_active_set(w, j, sigma[:, j], lam, coef[j])
            w_j[j] = w[j, j]
            w[:, j] = w_j
            w[j] = w_j
        delta = np.abs(w - w_prev).max()
        if delta < W_TOL:
            try:
                theta = _cholesky_inverse(np.linalg.cholesky(w))
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    "working covariance lost positive definiteness"
                ) from None
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
    return theta


def _cholesky_inverse(cho: np.ndarray) -> np.ndarray:
    """Symmetric inverse of the matrix whose lower Cholesky factor is ``cho``."""
    inv_cho = np.linalg.inv(cho)
    theta = inv_cho.T @ inv_cho
    return (theta + theta.T) / 2.0


def kkt_certificate(
    sigma_hat: np.ndarray, theta_hat: np.ndarray, lam: float
) -> dict[str, float]:
    """Measure how well a solution satisfies the stationarity system.

    Returns the largest off-support violation of ``|W_ij - sigma_ij| <= lam``,
    the largest on-support deviation from ``W_ij - sigma_ij = lam*sign``, and
    the duality gap, with ``W = theta_hat^{-1}``.  Raises ContractError for a
    ``theta_hat`` that ``positive_definite`` rejects, or a ``sigma_hat`` that
    ``symmetric_matrix`` rejects or of another shape.
    """
    theta, cho = positive_definite(theta_hat, "theta_hat")
    sigma = _shaped(symmetric_matrix(sigma_hat, "sigma_hat"), theta, "sigma_hat")
    resid = _cholesky_inverse(cho) - sigma
    off = ~np.eye(theta.shape[0], dtype=bool)
    support = (theta != 0.0) & off
    inactive = (theta == 0.0) & off
    off_violation = float(np.max(np.abs(resid[inactive]) - lam, initial=-lam))
    sign_dev = float(
        np.max(np.abs(resid[support] - lam * np.sign(theta[support])), initial=0.0)
    )
    return {
        "off_support_violation": off_violation,
        "on_support_deviation": sign_dev,
        "duality_gap": duality_gap(sigma, theta, lam),
    }


def select_lambda_ric(t: np.ndarray, n_rotations: int = 20, seed: int = 0) -> float:
    """Permutation-null regularization level.

    Each rotation permutes the rows of every column independently, which
    destroys all cross-column dependence while keeping the marginals; the
    statistic is the largest absolute off-diagonal correlation of the
    permuted matrix.  The returned lam is the mean over rotations, i.e. the
    penalty at which a truly dependence-free version of the data would have
    an empty estimated graph.  With one column there is no off-diagonal
    correlation, so the null needs at least two (ContractError).
    """
    if n_rotations < 1:
        raise ContractError(f"n_rotations must be >= 1, got {n_rotations}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    # A row permutation of a column that varies still varies: check once.
    x = np.asfortranarray(_varying_columns(t))
    p = x.shape[1]
    if p < 2:
        raise ContractError("the permutation null needs at least 2 columns")
    rng = np.random.default_rng(int(seed))
    maxima = np.empty(n_rotations)
    off = ~np.eye(p, dtype=bool)
    # The buffer every rotation permutes into and centres; ``permuted`` draws
    # the same permutations whatever the layout of ``out``.
    buf = np.empty_like(x)
    for r in range(n_rotations):
        c = _correlation(rng.permuted(x, axis=0, out=buf))
        maxima[r] = np.abs(c[off]).max()
    return float(maxima.mean())


def _debias(theta_hat: np.ndarray, sigma_hat: np.ndarray) -> np.ndarray:
    """``2*theta - theta @ sigma @ theta`` (symmetrized), with the checks of
    ``kkt_certificate``."""
    theta, _ = positive_definite(theta_hat, "theta_hat")
    sigma = _shaped(symmetric_matrix(sigma_hat, "sigma_hat"), theta, "sigma_hat")
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

    Raises
    ------
    ContractError for a ``theta_hat`` that ``positive_definite`` rejects, or
    a ``sigma_hat`` that ``symmetric_matrix`` rejects or of another shape.
    """
    t_hat = _debias(theta_hat, sigma_hat)
    theta = np.asarray(theta_hat, dtype=float)
    d = np.diag(theta)
    edge_sd = np.sqrt(np.outer(d, d) + theta**2)
    z = np.sqrt(n) * t_hat / edge_sd
    np.fill_diagonal(z, 0.0)
    p_values = 2.0 * special.ndtr(-np.abs(z))
    np.fill_diagonal(p_values, 1.0)
    return t_hat, edge_sd, z, p_values


def partial_correlations(t_hat: np.ndarray) -> np.ndarray:
    """Partial correlations ``-T_ij / sqrt(T_ii * T_jj)`` with unit diagonal.

    Values are clamped into [-1, 1]; a clamp larger than 1e-6 triggers a
    warning because it signals a badly scaled precision estimate.  Raises
    ContractError for a ``t_hat`` that ``symmetric_matrix`` rejects or with a
    diagonal entry <= 0.
    """
    t = symmetric_matrix(t_hat, "t_hat")
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
    t: np.ndarray, lam: float, start: np.ndarray | WarmStart | None = None
) -> PrecisionFit:
    """Correlation -> sparse precision -> de-biased partial correlations.

    ``start`` is passed to ``glasso_fit``: a precision estimate, such as
    another member's ``theta``, or its ``WarmStart``, that the solve starts
    from.
    """
    x = np.asarray(t, dtype=float)
    sigma = correlation_matrix(x)
    theta = glasso_fit(sigma, lam, start=start)
    return PrecisionFit(
        partial_corr=partial_correlations(_debias(theta, sigma)),
        theta=theta,
        n=x.shape[0],
    )
