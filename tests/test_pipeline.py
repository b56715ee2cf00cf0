from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import missgraph.pipeline
from missgraph import (
    AnalysisConfig,
    Category,
    Dataset,
    DegenerateColumnError,
    MechanismSpec,
    MissingnessArc,
    ProfileRow,
    UnimputableColumnError,
    VariableMeta,
    analyze_dataset,
    ar1_precision,
    fit_precision,
    hot_deck_impute,
    make_completeness_indicators,
    nonparanormal_transform,
    select_lambda_ric,
    simulate_dataset,
    split_seed,
)
from missgraph.pipeline import RIC_STREAM
from missgraph.report import ARC_FIELDS, json_record, read_dataclass

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


def constant_observed_cells(column):
    values = DATASET.values.copy()
    values[DATASET.mask[:, column], column] = 5.0
    return Dataset(metas=DATASET.metas, values=values, mask=DATASET.mask)


def all_cells_missing(column):
    values, mask = DATASET.values.copy(), DATASET.mask.copy()
    values[:, column], mask[:, column] = np.nan, False
    return Dataset(metas=DATASET.metas, values=values, mask=mask)


@pytest.mark.parametrize(
    "dataset, error, column, stage",
    [
        (constant_observed_cells(0), DegenerateColumnError, "a", "transform"),
        (all_cells_missing(1), UnimputableColumnError, "b", "impute"),
    ],
    ids=["constant-observed-cells", "all-missing"],
)
def test_unusable_imputed_column_fails_before_imputation(
    monkeypatch, dataset, error, column, stage
):
    # Every member draws a column's fills from its observed cells, so a
    # column no member could impute or transform is rejected before member 1.
    def no_impute(*args, **kwargs):
        raise AssertionError("hot_deck_impute called before the column checks")

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_impute", no_impute)
    with pytest.raises(error) as info:
        analyze_dataset(dataset, CONFIG)
    assert info.value.column == column
    assert info.value.stage == stage


def test_variables_sharing_a_missingness_mask():
    # a and b go missing together, so their indicators are identical columns
    # and the sample correlation of every member is singular.
    dataset, _ = simulate_dataset(
        ar1_precision(4, 0.5),
        400,
        ["a", "b", "c", "d"],
        [MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)],
        seed=0,
    )
    mask = dataset.mask.copy()
    mask[:, 1] = mask[:, 0]
    values = np.where(mask, dataset.values, np.nan)
    shared = Dataset(metas=dataset.metas, values=values, mask=mask)
    augmented = make_completeness_indicators(shared)
    np.testing.assert_array_equal(*augmented.indicator_values.T)
    result = analyze_dataset(shared, CONFIG)
    assert len(result.lambdas) == CONFIG.n_imputations


def test_members_start_from_member_one_and_match_a_cold_fit(monkeypatch):
    calls = []

    def recording(t, lam, start=None):
        fit = fit_precision(t, lam, start=start)
        calls.append((t.copy(), lam, start, fit))
        return fit

    monkeypatch.setattr(missgraph.pipeline, "fit_precision", recording)
    analyze_dataset(DATASET, CONFIG)
    assert len(calls) == CONFIG.n_imputations
    member_1 = calls[0][3]
    assert calls[0][2] is None
    assert all(start is member_1.theta for _, _, start, _ in calls[1:])
    for t, lam, _, fit in calls:
        cold = fit_precision(t, lam)
        np.testing.assert_array_equal(fit.support, cold.support)
        np.testing.assert_allclose(
            fit.partial_corr, cold.partial_corr, rtol=0, atol=1e-8
        )


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


def test_report_arcs_are_the_arc_records_by_field():
    assert len(ARC_FIELDS) == len(fields(MissingnessArc))
    result = analyze_dataset(DATASET, CONFIG)
    assert result.arcs
    assert result.report.arcs == [
        dict(zip(ARC_FIELDS, json_record(arc).values())) for arc in result.arcs
    ]
    # The report key of each public attribute, spelled out once here.
    attributes = {
        "obs_var": "observation_var",
        "comp_var": "completeness_var",
        "rho": "pooled_rho",
        "p": "p_value",
        "sign": "sign",
        "counterpart_rho": "counterpart_rho",
        "counterpart_p": "counterpart_p",
    }
    for reported, arc in zip(result.report.arcs, result.arcs):
        assert list(reported) == list(attributes)
        assert reported == {k: getattr(arc, a) for k, a in attributes.items()}


def test_json_record_inverts_read_dataclass():
    config = AnalysisConfig(
        input=Path("in.csv"),
        schema=Path("schema.json"),
        alpha=0.05,
        n_imputations=3,
        seed=7,
        lambda_value=0.1,
        n_rotations=4,
        out=Path("out"),
        na_tokens=frozenset({"?", "NA"}),
        dump_members=True,
    )
    assert all(getattr(config, f.name) != f.default for f in fields(config))
    assert read_dataclass(AnalysisConfig, json_record(config)) == config
    specs = [
        MechanismSpec(kind="MCAR", target="a", rate=0.2, seed=5),
        MechanismSpec(kind="MAR", target="a", driver="b", rate=0.3, slope=-1.0),
        MechanismSpec(kind="MNAR", target="b", rate=0.4, slope=1.5, seed=2),
    ]
    for spec in specs:
        assert read_dataclass(MechanismSpec, json_record(spec), "mechanism") == spec


def test_json_record_of_a_named_tuple():
    row = ProfileRow("a", Category.BLOOD_TESTS, 0.25)
    assert json_record(row) == {
        "name": "a",
        "category": "BloodTests",
        "missing_proportion": 0.25,
    }
