import numpy as np
import pytest

import missgraph.pipeline
from missgraph import (
    AnalysisConfig,
    Dataset,
    DegenerateColumnError,
    MechanismSpec,
    VariableMeta,
    analyze_dataset,
    ar1_precision,
    hot_deck_impute,
    make_completeness_indicators,
    nonparanormal_transform,
    select_lambda_ric,
    simulate_dataset,
    split_seed,
)
from missgraph.pipeline import RIC_STREAM

CONFIG = AnalysisConfig(n_imputations=4, seed=9, n_rotations=5)
# a and b are imputed (each gets an indicator), c is fully observed.
DATASET, _ = simulate_dataset(
    ar1_precision(3, 0.5),
    400,
    ["a", "b", "c"],
    [
        MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5),
        MechanismSpec(kind="MCAR", target="b", rate=0.2),
    ],
    seed=3,
)


def test_one_permutation_null_per_analysis(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return select_lambda_ric(*args, **kwargs)

    monkeypatch.setattr(missgraph.pipeline, "select_lambda_ric", counting)
    result = analyze_dataset(DATASET, CONFIG)
    assert len(calls) == 1
    assert len(result.lambdas) == CONFIG.n_imputations


def test_every_member_uses_member_one_lambda():
    member_seed = split_seed(CONFIG.seed, 1)
    member_1 = hot_deck_impute(make_completeness_indicators(DATASET), member_seed)
    expected = select_lambda_ric(
        nonparanormal_transform(member_1),
        CONFIG.n_rotations,
        split_seed(member_seed, RIC_STREAM),
    )
    result = analyze_dataset(DATASET, CONFIG)
    assert result.lambdas == [expected] * CONFIG.n_imputations


def test_constant_observed_column_fails_before_imputation(monkeypatch):
    def no_impute(*args, **kwargs):
        raise AssertionError("hot_deck_impute called before the shared transform")

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_impute", no_impute)
    values = DATASET.values.copy()
    values[:, 2] = 5.0
    dataset = Dataset(metas=DATASET.metas, values=values, mask=DATASET.mask)
    with pytest.raises(DegenerateColumnError) as info:
        analyze_dataset(dataset, CONFIG)
    assert info.value.column == "c"
    assert info.value.stage == "transform"


def test_fully_observed_table_has_no_imputed_columns():
    rng = np.random.default_rng(0)
    dataset = Dataset(
        metas=(VariableMeta(name="x"), VariableMeta(name="y")),
        values=rng.standard_normal((50, 2)),
        mask=np.ones((50, 2), dtype=bool),
    )
    result = analyze_dataset(dataset, AnalysisConfig(n_imputations=2, n_rotations=3))
    assert len(set(result.lambdas)) == 1
    assert result.report.warnings == [missgraph.pipeline.NO_INDICATOR_WARNING]
