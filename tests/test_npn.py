import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from missgraph import (
    ContractError,
    DegenerateColumnError,
    nonparanormal_transform,
    winsorization_bound,
)


def transform_col(col):
    return nonparanormal_transform(np.asarray(col)[:, None]).values[:, 0]


def test_monotone_pretransform_is_invisible(rng):
    x = rng.normal(size=200)
    direct = transform_col(x)
    via_exp = transform_col(np.exp(x))
    via_cube = transform_col(x**3)
    np.testing.assert_array_equal(direct, via_exp)
    np.testing.assert_array_equal(direct, via_cube)


def test_binary_column_becomes_standardized_two_point():
    col = np.array([0.0] * 30 + [1.0] * 70)
    out = transform_col(col)
    assert len(np.unique(out)) == 2
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
    # order preserved: zeros map below ones
    assert out[0] < out[-1]


def test_heavy_tail_is_tamed(rng):
    # Monte Carlo check of the quantile-map construction: a log-normal
    # column comes out with nearly normal shape.
    x = rng.lognormal(mean=0.0, sigma=1.5, size=10_000)
    out = transform_col(x)
    assert abs(stats.skew(out)) < 0.1
    assert abs(stats.kurtosis(out)) < 0.2


def test_ties_map_to_equal_outputs():
    col = np.array([5.0, 1.0, 5.0, 2.0, 5.0, 9.0, 0.5, 3.0])
    out = transform_col(col)
    tied = out[col == 5.0]
    assert np.all(tied == tied[0])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=8,
        max_size=60,
    ).filter(lambda xs: len(set(xs)) > 1)
)
def test_rank_order_preserved(xs):
    col = np.asarray(xs)
    out = transform_col(col)
    order = np.argsort(col, kind="stable")
    assert np.all(np.diff(out[order]) >= 0)


def test_idempotent_on_ranks(rng):
    x = rng.gamma(2.0, size=500)
    once = transform_col(x)
    twice = transform_col(once)
    np.testing.assert_allclose(twice, once, atol=1e-8)


def test_output_finite_and_standardized(rng):
    for n in (8, 37, 1000, 20_000):
        x = rng.standard_cauchy(size=n)  # extreme tails
        out = transform_col(x)
        assert np.all(np.isfinite(out))
        assert abs(out.mean()) < 1e-8
        assert abs(out.std(ddof=1) - 1.0) < 1e-8


def test_winsorization_bound_shrinks():
    assert winsorization_bound(100) > winsorization_bound(10_000)
    assert 0 < winsorization_bound(8) < 0.5


def test_constant_column_rejected():
    with pytest.raises(DegenerateColumnError, match="flat"):
        nonparanormal_transform(
            np.column_stack([np.ones(10), np.arange(10.0)]), names=["flat", "ok"]
        )


def test_too_few_rows_rejected():
    with pytest.raises(ContractError, match="at least 8"):
        nonparanormal_transform(np.arange(7.0)[:, None])


def test_incomplete_matrix_rejected():
    m = np.arange(16.0).reshape(8, 2)
    m[3, 1] = np.nan
    with pytest.raises(ContractError, match="complete"):
        nonparanormal_transform(m)

