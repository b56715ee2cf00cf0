import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import missgraph.npn
from missgraph import (
    AnalysisConfig,
    ContractError,
    Dataset,
    DegenerateColumnError,
    MechanismSpec,
    VariableMeta,
    analyze_dataset,
    ar1_precision,
    hot_deck_impute,
    make_completeness_indicators,
    nonparanormal_transform,
    simulate_dataset,
    winsorization_bound,
)
from missgraph.impute import hot_deck_draws
from missgraph.npn import FillRanks, normal_scores

from .conftest import traced_peak


def transform_col(col):
    return nonparanormal_transform(np.asarray(col)[:, None]).values[:, 0]


def test_monotone_pretransform_is_invisible(rng):
    x = rng.normal(size=200)
    direct = transform_col(x)
    via_exp = transform_col(np.exp(x))
    via_cube = transform_col(x**3)
    np.testing.assert_array_equal(direct, via_exp)
    np.testing.assert_array_equal(direct, via_cube)


def reference_transform(matrix):
    """The transform's definition, column by column, through scipy."""
    n = matrix.shape[0]
    delta = winsorization_bound(n)
    out = np.empty_like(matrix)
    for j in range(matrix.shape[1]):
        r = stats.rankdata(matrix[:, j], method="average")
        g = stats.norm.ppf(np.clip(r / (n + 1.0), delta, 1.0 - delta))
        g = g - g.mean()
        out[:, j] = g / g.std(ddof=1)
    return out


def exactness_columns(n, rng):
    pool = rng.normal(size=6)
    return np.column_stack(
        [
            rng.normal(size=n),  # continuous
            rng.integers(0, 3, size=n).astype(float),  # heavily tied
            np.tile([0.0, 1.0], n // 2),  # binary
            rng.choice(pool, size=n, replace=True),  # hot-deck shape
            np.tile([0.0, -0.0, 1.5, -2.0], n // 4),  # both zeros tie
        ]
    )


# n = 5,000 transforms the 5 columns in blocks of 3 and 2, and 20,000 one by one.
@pytest.mark.parametrize("n", [8, 5_000, 20_000])
def test_matches_rankdata_and_ppf_definition(n, rng):
    matrix = exactness_columns(n, rng)
    assert np.array_equal(
        nonparanormal_transform(matrix).values, reference_transform(matrix)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from([-3.5, -1.0, -0.0, 0.0, 0.25, 2.0, 1e300])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=80,
    ).filter(lambda xs: min(xs) != max(xs))
)
def test_matches_definition_on_tied_columns(xs):
    matrix = np.asarray(xs)[:, None]
    assert np.array_equal(
        nonparanormal_transform(matrix).values, reference_transform(matrix)
    )


def column_loop_transform(matrix):
    """The transform as it was written column by column: one sort, the runs
    of equal values and one table lookup per column."""
    n, p = matrix.shape
    scores = normal_scores(n)
    values = np.empty_like(matrix)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    g = np.empty(n)
    for j in range(p):
        order = np.argsort(matrix[:, j])
        ordered = matrix[order, j]
        np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
        count = np.append(np.flatnonzero(new_run), n)
        dense = np.cumsum(new_run)
        g[order] = scores[count[dense] + count[dense - 1] - 1]
        centred = g - g.mean()
        values[:, j] = centred / centred.std(ddof=1)
    return values


@pytest.mark.parametrize("one_column_blocks", [False, True])
@pytest.mark.parametrize("n", [8, 9, 37, 500, 3_000])
def test_matches_the_column_loop_bit_for_bit(n, one_column_blocks, rng, monkeypatch):
    if one_column_blocks:
        monkeypatch.setattr(missgraph.npn, "_BLOCK_CELLS", 1)
    matrix = np.column_stack(
        [
            rng.normal(size=n),  # untied
            np.round(rng.normal(size=n), 1),  # ties from rounding
            (rng.random(n) < 0.3).astype(float),  # 0/1
            rng.integers(0, 4, size=n) * 1.5,  # four levels
        ]
    )
    matrix[:2, 2:] = [[0.0, 0.0], [1.0, 1.5]]  # no constant column at n = 8
    for columns in (matrix, matrix[:, ::-1], np.asfortranarray(matrix)):
        out = nonparanormal_transform(columns).values
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(
            out.view(np.int64), column_loop_transform(np.asarray(columns)).view(np.int64)
        )


def test_complete_matrix_needs_little_beyond_its_output(rng):
    # The id tables of every column at once would take 10x the output.
    matrix = rng.normal(size=(2_000, 80))
    out, peak = traced_peak(lambda: nonparanormal_transform(matrix))
    assert peak <= 2.5 * out.values.nbytes


def test_normal_score_table_is_read_only():
    table = normal_scores(20)
    assert table.shape == (39,)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0


RANK_CONFIG = AnalysisConfig(n_imputations=3, seed=4)
RANK_DATASET, _ = simulate_dataset(
    ar1_precision(3, 0.5),
    800,
    ["a", "b", "c"],
    [
        MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5),
        MechanismSpec(kind="MAR", target="b", driver="c", rate=0.2, slope=1.5),
    ],
    seed=11,
)


def volatile_free_report(dataset):
    report = analyze_dataset(dataset, RANK_CONFIG).report
    del report.meta["runtime"]
    return report.to_json()


@pytest.fixture(scope="module")
def rank_reference():
    return volatile_free_report(RANK_DATASET)


@settings(max_examples=12, deadline=None)
@given(
    column=st.integers(min_value=0, max_value=2),
    increasing=st.one_of(
        st.sampled_from([np.exp, lambda x: x**3, np.arctan]),
        st.tuples(
            st.floats(min_value=0.01, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ).map(lambda ab: lambda x: ab[0] * x + ab[1]),
    ),
)
def test_rank_invariance_end_to_end(rank_reference, column, increasing):
    # Hot-deck draws pick row positions and the transform sees only ranks,
    # so a strictly increasing map of one column leaves the report unchanged.
    values = RANK_DATASET.values.copy()
    values[:, column] = increasing(values[:, column])
    observed = RANK_DATASET.mask[:, column]
    before, after = RANK_DATASET.values[observed, column], values[observed, column]
    assert len(np.unique(after)) == len(after)
    assert np.array_equal(np.argsort(before), np.argsort(after))
    mapped = Dataset(metas=RANK_DATASET.metas, values=values, mask=RANK_DATASET.mask)
    assert volatile_free_report(mapped) == rank_reference


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


def test_constant_column_rejected(monkeypatch):
    with pytest.raises(DegenerateColumnError, match="flat"):
        nonparanormal_transform(
            np.column_stack([np.ones(10), np.arange(10.0)]), names=["flat", "ok"]
        )
    # The first constant column is the one named, also when the columns are
    # transformed one block per column.
    two_flat = np.column_stack([np.arange(10.0), np.ones(10), np.zeros(10)])
    for block_cells in (missgraph.npn._BLOCK_CELLS, 1):
        monkeypatch.setattr(missgraph.npn, "_BLOCK_CELLS", block_cells)
        with pytest.raises(DegenerateColumnError, match="'first'"):
            nonparanormal_transform(two_flat, names=["ok", "first", "second"])
        with pytest.raises(DegenerateColumnError, match="#1"):
            nonparanormal_transform(two_flat)


def test_transformed_matrix_reads_as_its_values():
    tm = nonparanormal_transform(np.arange(20.0).reshape(10, 2) ** 2)
    assert np.asarray(tm) is tm.values
    assert np.asarray(tm, dtype=float) is tm.values
    assert np.asarray(tm, dtype=np.float32).dtype == np.float32


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="copy= is numpy 2's"
)
def test_transformed_matrix_copies_when_asked():
    tm = nonparanormal_transform(np.arange(20.0).reshape(10, 2) ** 2)
    copied = np.asarray(tm, copy=True)
    assert not np.shares_memory(copied, tm.values)
    np.testing.assert_array_equal(copied, tm.values)


def test_too_few_rows_rejected():
    with pytest.raises(ContractError, match="at least 8"):
        nonparanormal_transform(np.arange(7.0)[:, None])


def test_one_dimensional_input_rejected():
    with pytest.raises(ContractError, match="2-D"):
        nonparanormal_transform(np.arange(10.0))


def test_incomplete_matrix_rejected():
    m = np.arange(16.0).reshape(8, 2)
    m[3, 1] = np.nan
    with pytest.raises(ContractError, match="complete"):
        nonparanormal_transform(m)


def dataset_with_holes(columns):
    """A Dataset of the given columns, NaN marking a missing cell."""
    values = np.column_stack(columns).astype(float)
    metas = tuple(VariableMeta(name=f"v{j}") for j in range(values.shape[1]))
    return Dataset(metas=metas, values=values, mask=~np.isnan(values))


def assert_counts_rank_like_the_sort(dataset, seeds=(0, 1, 2)):
    """The count path of each member equals the definition on its filled
    matrix, ranked by scipy."""
    aug = make_completeness_indicators(dataset)
    ranks = FillRanks.of(aug.values[:, aug.imputed])
    for seed in seeds:
        out = np.full((aug.n_rows, len(aug.metas)), np.nan)
        draws = hot_deck_draws(aug, seed)
        ranks.transform(draws, out, aug.imputed)
        filled = hot_deck_impute(aug, draws)[:, aug.imputed]
        expected = reference_transform(filled)
        assert out[:, aug.imputed].tobytes() == expected.tobytes()
        others = np.setdiff1d(np.arange(out.shape[1]), aug.imputed)
        assert np.isnan(out[:, others]).all()  # only the imputed columns written


def with_holes(column, rate, rng):
    column = np.asarray(column, dtype=float).copy()
    column[rng.random(column.size) < rate] = np.nan
    column[:2] = [0.0, 1.0]  # two distinct observed values
    return column


def test_count_path_on_binary_and_four_level_columns(rng):
    n = 300
    assert_counts_rank_like_the_sort(
        dataset_with_holes(
            [
                with_holes(rng.integers(0, 2, n), 0.3, rng),
                with_holes(rng.integers(0, 4, n) * 1.5, 0.5, rng),
                rng.normal(size=n),  # fully observed, between imputed ones
                with_holes(rng.normal(size=n), 0.2, rng),
            ]
        )
    )


def test_count_path_on_a_nearly_empty_column(rng):
    n = 200
    column = np.full(n, np.nan)
    column[rng.choice(n, 15, replace=False)] = rng.integers(0, 2, 15)
    column[:2] = [0.0, 1.0]
    assert np.isnan(column).mean() >= 0.9
    dataset = dataset_with_holes([column, rng.normal(size=n)])
    assert np.unique(dataset.values[dataset.mask[:, 0], 0]).size == 2
    assert_counts_rank_like_the_sort(dataset)


def test_count_path_on_one_missing_cell(rng):
    column = rng.normal(size=50)
    column[17] = np.nan
    assert_counts_rank_like_the_sort(dataset_with_holes([column, rng.normal(size=50)]))


def test_count_path_on_eight_rows():
    assert_counts_rank_like_the_sort(
        dataset_with_holes(
            [
                [0.0, 1.0, np.nan, 1.0, np.nan, 0.0, 1.0, np.nan],
                [2.5, np.nan, -1.0, 2.5, 7.0, np.nan, np.nan, np.nan],
            ]
        ),
        seeds=range(10),
    )


def test_count_path_ties_both_zeros(rng):
    column = np.tile([0.0, -0.0, 1.5, np.nan, -2.0], 40)
    assert_counts_rank_like_the_sort(dataset_with_holes([column, rng.normal(size=200)]))


@pytest.mark.parametrize("one_column_blocks", [False, True])
def test_count_path_over_several_blocks(one_column_blocks, rng, monkeypatch):
    n, p = 3_000, 7
    assert n * p > missgraph.npn._BLOCK_CELLS
    if one_column_blocks:
        monkeypatch.setattr(missgraph.npn, "_BLOCK_CELLS", 1)
    columns = [
        with_holes(np.round(rng.normal(size=n), 1), rng.uniform(0.05, 0.6), rng)
        for _ in range(p)
    ]
    assert_counts_rank_like_the_sort(dataset_with_holes(columns), seeds=(4,))


@pytest.mark.parametrize("one_column_blocks", [False, True])
def test_count_path_with_holes_in_every_column(one_column_blocks, rng, monkeypatch):
    # Holes sort last in each row of a block, as +inf, right after the
    # column's largest value and right before the next column's smallest.
    if one_column_blocks:
        monkeypatch.setattr(missgraph.npn, "_BLOCK_CELLS", 1)
    n = 40
    columns = []
    for t in range(6):
        column = rng.integers(-2, 3, n).astype(float)
        column[[0, n - 1, 5 + t]] = np.nan  # the first and last rows too
        column[[1, n - 2]] = [-3.0, 3.0]  # the extremes beside a hole
        columns.append(column)
    assert_counts_rank_like_the_sort(dataset_with_holes(columns))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 40).flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(-3, 3) | st.sampled_from([1e300, -1e300, -0.0]) | st.none(),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=3,
        )
    ),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_count_path_property_on_small_integer_columns(columns, seed, max_beside_hole):
    values = np.array(columns, dtype=float).T  # None becomes NaN
    for column in values.T:
        holes = np.flatnonzero(np.isnan(column))
        if max_beside_hole and 0 < holes.size < column.size:
            # The largest observed value in a row next to a hole.
            beside = holes[0] - 1 if holes[0] else np.flatnonzero(~np.isnan(column))[0]
            column[beside] = np.nanmax(column)
        observed = column[~np.isnan(column)]
        if observed.size == 0 or observed.min() == observed.max():
            column[:2] = [-4.0, 4.0]  # an imputable, rankable column
    assert_counts_rank_like_the_sort(dataset_with_holes(list(values.T)), seeds=(seed,))


def test_fill_ranks_rejects_short_and_constant_columns():
    with pytest.raises(ContractError, match="at least 8"):
        FillRanks.of(np.array([[0.0, 1.0, np.nan, 2.0, 3.0, np.nan, 4.0]]).T)
    columns = np.column_stack(
        [
            [0.0, 1.0, np.nan, 1.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, -0.0, np.nan, 0.0, 0.0, np.nan, 0.0, -0.0],  # one value
            [np.nan] * 8,  # none
        ]
    )
    with pytest.raises(DegenerateColumnError, match="'flat'"):
        FillRanks.of(columns, ["ok", "flat", "empty"])
    with pytest.raises(DegenerateColumnError, match="#1"):  # the empty one
        FillRanks.of(columns[:, [0, 2, 1]])
