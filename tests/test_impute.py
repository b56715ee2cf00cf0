import numpy as np
import pytest
from scipy.special import expit, logit

from missgraph import (
    ContractError,
    UnimputableColumnError,
    hot_deck_impute,
    make_completeness_indicators,
    split_seed,
)
from missgraph.impute import hot_deck_draws

from .conftest import make_dataset


def impute(aug, seed):
    """The member that seed ``seed`` draws, as a filled matrix."""
    return hot_deck_impute(aug, hot_deck_draws(aug, seed))


def test_draws_stay_on_observed_support():
    ds = make_dataset({"v": [1.0, None, 3.0]})
    aug = make_completeness_indicators(ds)
    for seed in range(50):
        member = impute(aug, seed)
        assert member[1, 0] in (1.0, 3.0)


def test_fully_observed_column_bit_identical():
    ds = make_dataset({"v": [1.25, 2.5, -7.125], "w": [1.0, None, 2.0]})
    aug = make_completeness_indicators(ds)
    member = impute(aug, 3)
    np.testing.assert_array_equal(member[:, 0], ds.values[:, 0])


def test_observed_cells_never_altered():
    rng = np.random.default_rng(5)
    col = rng.normal(size=200).tolist()
    for i in range(0, 200, 3):
        col[i] = None
    ds = make_dataset({"v": col})
    aug = make_completeness_indicators(ds)
    member = impute(aug, 11)
    observed = ds.mask[:, 0]
    np.testing.assert_array_equal(member[observed, 0], ds.values[observed, 0])


def test_imputed_distribution_matches_observed_frequencies():
    # column [1.0, NA, 3.0, 3.0]: draws must converge to P(1)=1/3, P(3)=2/3
    ds = make_dataset({"v": [1.0, None, 3.0, 3.0]})
    aug = make_completeness_indicators(ds)
    n_seeds = 10_000
    hits_one = sum(
        impute(aug, seed)[1, 0] == 1.0 for seed in range(n_seeds)
    )
    assert hits_one / n_seeds == pytest.approx(1 / 3, abs=0.02)


def test_indicator_columns_pass_through():
    ds = make_dataset({"v": [1.0, None, 3.0]})
    aug = make_completeness_indicators(ds)
    member = impute(aug, 9)
    np.testing.assert_array_equal(member[:, 1], [1.0, 0.0, 1.0])


def test_member_draws_match_an_independent_reference():
    # One generator per member, and one rng.choice over the observed cells of
    # each column with a missing cell, in column order: the draws are part of
    # the determinism contract, so they are pinned bit for bit.
    rng = np.random.default_rng(8)
    values = rng.normal(size=(60, 5))
    values[rng.random((60, 5)) < 0.3] = np.nan
    values[:, 1] = rng.normal(size=60)  # fully observed, between imputed ones
    ds = make_dataset(
        {f"v{j}": [None if np.isnan(v) else v for v in values[:, j]]
         for j in range(5)}
    )
    aug = make_completeness_indicators(ds)
    partial = [j for j in range(5) if not ds.mask[:, j].all()]
    assert aug.imputed.tolist() == partial
    for seed in (0, split_seed(3, 1), split_seed(3, 2)):
        reference = np.random.default_rng(seed)
        expected = ds.values.copy()
        for j in partial:
            observed = ds.values[ds.mask[:, j], j]
            n_missing = int((~ds.mask[:, j]).sum())
            expected[~ds.mask[:, j], j] = reference.choice(observed, n_missing)
        expected = np.hstack([expected, ds.mask[:, partial].astype(float)])
        member = impute(aug, seed)
        np.testing.assert_array_equal(member, expected)
        assert member.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pool_size", [1, 2, 7, 1000, 2**20 + 3])
def test_index_draws_are_the_value_draws(pool_size):
    # The pipeline draws positions into each pool and ranks members from
    # them; the members must hold the values that rng.choice(pool) draws.
    pool = np.random.default_rng(pool_size).normal(size=pool_size)
    for seed in (0, 1, split_seed(3, 2)):
        for size in (1, 5, 4096):
            values = np.random.default_rng(seed).choice(pool, size=size)
            positions = np.random.default_rng(seed).choice(pool.size, size=size)
            assert positions.dtype == np.int64
            assert pool[positions].tobytes() == values.tobytes()
            # hot_deck_draws calls the primitive that choice(pool.size) calls.
            drawn = np.random.default_rng(seed).integers(0, pool.size, size=size)
            assert drawn.tobytes() == positions.tobytes()


def test_member_is_the_pool_cells_its_draws_pick():
    rng = np.random.default_rng(2)
    cols = {f"v{j}": [None if rng.random() < 0.4 else v for v in rng.normal(size=40)]
            for j in range(3)}
    aug = make_completeness_indicators(make_dataset(cols))
    draws = hot_deck_draws(aug, 5)
    holes = [np.flatnonzero(~aug.base.mask[:, j]) for j in aug.imputed]
    assert [idx.size for idx in draws] == [rows.size for rows in holes]
    member = hot_deck_impute(aug, draws)
    ds = aug.base
    for j, rows, idx in zip(aug.imputed, holes, draws):
        np.testing.assert_array_equal(member[rows, j], ds.values[ds.mask[:, j], j][idx])


def test_unimputable_column_named():
    ds = make_dataset({"bad": [None, None], "ok": [1.0, None]})
    aug = make_completeness_indicators(ds)
    with pytest.raises(UnimputableColumnError, match="bad"):
        hot_deck_draws(aug, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # Read modulo 2**64, -1 would draw seed 2**64 - 1's member, 2**64 seed 0's.
    ds = make_dataset({"a": [1.0, None, 3.0], "b": [None, 2.0, 5.0]})
    aug = make_completeness_indicators(ds)
    with pytest.raises(ContractError, match=f"seed must be inside .*got {seed}$"):
        hot_deck_draws(aug, seed)


def ensemble(aug, k, master_seed):
    """Members 1..k as the pipeline draws them."""
    return [impute(aug, split_seed(master_seed, i)) for i in range(1, k + 1)]


class TestEnsemble:
    def test_k_members(self):
        ds = make_dataset({"v": [1.0, None, 3.0, 4.0]})
        aug = make_completeness_indicators(ds)
        members = ensemble(aug, k=25, master_seed=1)
        assert len(members) == 25
        assert all(np.isfinite(m).all() for m in members)
        assert len({split_seed(1, i) for i in range(1, 26)}) == 25

    def test_no_missing_cells_all_members_identical(self):
        ds = make_dataset({"v": [1.0, 2.0], "w": [3.0, 4.0]})
        aug = make_completeness_indicators(ds)
        members = ensemble(aug, k=4, master_seed=7)
        for member in members[1:]:
            np.testing.assert_array_equal(member, members[0])

    def test_same_master_seed_bit_identical(self):
        col = [1.0, None, 3.0, None, 5.0, 6.0, None, 8.0]
        ds = make_dataset({"v": col})
        aug = make_completeness_indicators(ds)
        a = ensemble(aug, k=5, master_seed=42)
        b = ensemble(aug, k=5, master_seed=42)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_members_differ_with_enough_missingness(self):
        col = [float(i) for i in range(40)]
        for i in range(0, 40, 2):
            col[i] = None
        ds = make_dataset({"v": col})
        aug = make_completeness_indicators(ds)
        members = ensemble(aug, k=5, master_seed=3)
        assert any(not np.array_equal(m, members[0]) for m in members[1:])

    def test_seed_split_rule(self):
        assert split_seed(0, 1) == 0x9E3779B97F4A7C15
        assert split_seed(5, 0) == 5
        # distinct k give distinct seeds for any master
        seeds = {split_seed(123, k) for k in range(1, 100)}
        assert len(seeds) == 99


def test_self_correlation_null_under_mnar():
    # An MNAR-masked, hot-deck-imputed column is marginally uncorrelated
    # with its own indicator: |mean corr| <= 4/sqrt(n) over 100 seeds.
    n = 1000
    rng = np.random.default_rng(2718)
    corrs = []
    for seed in range(100):
        latent = rng.standard_normal(n)
        p_missing = expit(logit(0.3) + 1.5 * latent)
        missing = rng.random(n) < p_missing
        col = [None if m else float(v) for v, m in zip(latent, missing)]
        ds = make_dataset({"a": col})
        aug = make_completeness_indicators(ds)
        member = impute(aug, seed)
        corrs.append(np.corrcoef(member[:, 0], member[:, 1])[0, 1])
    assert abs(np.mean(corrs)) <= 4 / np.sqrt(n)
