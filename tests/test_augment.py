import numpy as np
import pytest

from missgraph import (
    SchemaError,
    VarKind,
    indicator_name,
    make_completeness_indicators,
    missing_profile,
)

from .conftest import make_dataset


def test_indicator_marks_present_cells():
    ds = make_dataset({"v": [1.2, None, 3.4]})
    aug = make_completeness_indicators(ds)
    assert len(aug.indicator_metas) == 1
    meta = aug.indicator_metas[0]
    assert meta.kind is VarKind.COMPLETENESS
    assert meta.parent == "v"
    assert meta.name == indicator_name("v")
    np.testing.assert_array_equal(aug.indicator_values[:, 0], [1.0, 0.0, 1.0])


def test_data_column_named_like_an_indicator_is_schema_error():
    # b is fully observed, so it gets no indicator and b__observed no clash
    columns = {"b": [3.0, 4.0, 5.0], indicator_name("b"): [1.0, 0.0, 1.0]}
    make_completeness_indicators(make_dataset(columns))
    columns.update({"a": [1.0, None, 2.0], indicator_name("a"): [0.5, 0.1, 0.9]})
    ds = make_dataset(columns)
    with pytest.raises(SchemaError, match="'a__observed'.*'a'"):
        make_completeness_indicators(ds)


def test_fully_observed_column_is_excluded():
    ds = make_dataset({"age": [50.0, 60.0, 70.0], "v": [1.0, None, 2.0]})
    aug = make_completeness_indicators(ds)
    assert "age" in aug.excluded_constant
    assert [m.parent for m in aug.indicator_metas] == ["v"]


def test_fully_missing_column_is_excluded():
    ds = make_dataset({"v": [None, None], "w": [1.0, 2.0]})
    aug = make_completeness_indicators(ds)
    assert set(aug.excluded_constant) == {"v", "w"}
    assert not aug.indicator_metas


def test_indicator_mean_matches_observed_share():
    # 59% of 1000 cells missing -> indicator mean 0.41
    values = [None] * 590 + [7.4] * 410
    ds = make_dataset({"ph": values})
    aug = make_completeness_indicators(ds)
    assert aug.indicator_values[:, 0].mean() == 0.41


def test_indicator_counts_partition_rows():
    ds = make_dataset({"v": [1.0, None, None, 4.0, 5.0]})
    aug = make_completeness_indicators(ds)
    ind = aug.indicator_values[:, 0]
    assert (ind == 1.0).sum() + (ind == 0.0).sum() == ds.n_rows


def test_indicators_depend_only_on_mask():
    a = make_dataset({"v": [1.0, None, 3.0]})
    b = make_dataset({"v": [-99.0, None, 42.0]})
    ia = make_completeness_indicators(a).indicator_values
    ib = make_completeness_indicators(b).indicator_values
    np.testing.assert_array_equal(ia, ib)


def test_augmented_width():
    ds = make_dataset(
        {"a": [1.0, None], "b": [2.0, 3.0], "c": [None, 5.0]}
    )
    aug = make_completeness_indicators(ds)
    assert aug.values.shape == (2, 3 + 2)
    assert len(aug.names) == 3 + 2


def test_augmented_dataset_profile_zero_for_indicators():
    ds = make_dataset({"a": [1.0, None, 2.0], "b": [3.0, 4.0, None]})
    aug = make_completeness_indicators(ds)
    missing = dict(zip(aug.names, np.isnan(aug.values).mean(axis=0)))
    for meta in aug.indicator_metas:
        assert missing[meta.name] == 0.0
    # base columns keep their original missingness
    assert missing["a"] == missing_profile(ds)[0].missing_proportion == 1 / 3


def test_layout_is_decided_once():
    ds = make_dataset(
        {"full": [1.0, 2.0, 3.0], "a": [None, 4.0, 5.0], "gone": [None] * 3}
    )
    aug = make_completeness_indicators(ds)
    assert aug.imputed.tolist() == [1, 2]
    assert aug.pool_sizes.tolist() == [2, 0]
    pools = [ds.values[ds.mask[:, j], j] for j in aug.imputed]
    np.testing.assert_array_equal(pools[0], [4.0, 5.0])
    assert pools[1].size == 0
    assert np.shares_memory(aug.indicator_values, aug.values)
    np.testing.assert_array_equal(aug.values[:, :3], ds.values)
    holes = [np.flatnonzero(~aug.base.mask[:, j]) for j in aug.imputed]
    assert [rows.tolist() for rows in holes] == [[0], [0, 1, 2]]
    assert [rows.size for rows in holes] == [
        aug.n_rows - size for size in aug.pool_sizes
    ]
    assert not any(
        a.flags.writeable for a in (aug.values, aug.imputed, aug.pool_sizes)
    )
