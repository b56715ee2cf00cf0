import json
import pickle
import weakref
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

import missgraph.pipeline
from missgraph import (
    AnalysisConfig,
    Category,
    ConfigError,
    ContractError,
    Dataset,
    DegenerateColumnError,
    MechanismSpec,
    MissingnessArc,
    MnarFinding,
    ProfileRow,
    UnimputableColumnError,
    VariableMeta,
    analyze_dataset,
    ar1_precision,
    fit_precision,
    hot_deck_draws,
    hot_deck_impute,
    make_completeness_indicators,
    nonparanormal_transform,
    parse_csv,
    run_analysis,
    select_lambda_ric,
    simulate_dataset,
    split_seed,
    write_csv,
)
from missgraph.dataset import write_matrix_csv
from missgraph.ggm import WarmStart
from missgraph.pipeline import RIC_STREAM
from missgraph.report import AnalysisReport, json_record, read_dataclass

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
    assert len(result.report.lambdas) == CONFIG.n_imputations


def test_every_member_uses_member_one_lambda():
    member_seed = split_seed(CONFIG.seed, 1)
    augmented = make_completeness_indicators(DATASET)
    member_1 = hot_deck_impute(augmented, hot_deck_draws(augmented, member_seed))
    expected = select_lambda_ric(
        nonparanormal_transform(member_1),
        CONFIG.n_rotations,
        split_seed(member_seed, RIC_STREAM),
    )
    result = analyze_dataset(DATASET, CONFIG)
    assert result.report.lambdas == [expected] * CONFIG.n_imputations


def test_constant_observed_column_fails_before_imputation(monkeypatch):
    def no_impute(*args, **kwargs):
        raise AssertionError("hot_deck_draws called before the shared transform")

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_draws", no_impute)
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
        raise AssertionError("hot_deck_draws called before the column checks")

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_draws", no_impute)
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
    assert len(result.report.lambdas) == CONFIG.n_imputations


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
    # One WarmStart, member 1's estimate inverted once, for members 2..K.
    starts = [start for _, _, start, _ in calls[1:]]
    assert all(start is starts[0] for start in starts)
    assert starts[0].theta is member_1.theta
    for t, lam, _, fit in calls:
        cold = fit_precision(t, lam)
        np.testing.assert_array_equal(fit.support, cold.support)
        np.testing.assert_allclose(
            fit.partial_corr, cold.partial_corr, rtol=0, atol=1e-8
        )


def bits(matrix):
    return np.asarray(matrix).view(np.uint64)


def test_each_member_ranks_as_its_filled_matrix_transforms():
    ensemble = analyze_dataset(DATASET, CONFIG).ensemble
    for k in range(1, CONFIG.n_imputations + 1):
        expected = nonparanormal_transform(ensemble.filled(k))
        np.testing.assert_array_equal(bits(ensemble.ranked(k)), bits(expected))


def test_members_fit_alike_in_any_order_and_in_a_copy():
    # Members 2..K may run in any order, in another process: the shared
    # matrix carries nothing from one member to the next.
    result = analyze_dataset(DATASET, CONFIG)
    ensemble, lam = result.ensemble, result.report.lambdas[0]
    start = WarmStart.of(ensemble.fit(1, lam).theta)
    members = range(2, CONFIG.n_imputations + 1)
    forward = [ensemble.fit(k, lam, start) for k in members]
    copy, copied_start = pickle.loads(pickle.dumps((ensemble, start)))
    backward = [copy.fit(k, lam, copied_start) for k in reversed(members)]
    for ahead, behind in zip(forward, reversed(backward)):
        np.testing.assert_array_equal(bits(ahead.theta), bits(behind.theta))
        np.testing.assert_array_equal(
            bits(ahead.partial_corr), bits(behind.partial_corr)
        )


def test_fully_observed_table_has_no_imputed_columns():
    rng = np.random.default_rng(0)
    dataset = Dataset(
        metas=(VariableMeta(name="x"), VariableMeta(name="y")),
        values=rng.standard_normal((50, 2)),
        mask=np.ones((50, 2), dtype=bool),
    )
    result = analyze_dataset(dataset, AnalysisConfig(n_imputations=2, n_rotations=3))
    assert len(set(result.report.lambdas)) == 1
    assert result.report.warnings == [missgraph.pipeline.NO_INDICATOR_WARNING]


def test_one_variable_is_too_few():
    dataset = Dataset(
        metas=(VariableMeta(name="x"),),
        values=np.arange(50.0)[:, None],
        mask=np.ones((50, 1), dtype=bool),
    )
    with pytest.raises(ContractError, match="at least 2 variables"):
        analyze_dataset(dataset, CONFIG)


@pytest.mark.parametrize("name", ["n_imputations", "n_rotations"])
def test_config_counts_below_one_rejected(name):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got 0"):
        analyze_dataset(DATASET, replace(CONFIG, **{name: 0}))


@pytest.mark.parametrize(
    "name, match", [("input", "input file"), ("out", "output directory")]
)
def test_run_analysis_needs_input_and_out(name, match, tmp_path):
    config = replace(CONFIG, input=tmp_path / "data.csv", out=tmp_path / "out")
    with pytest.raises(ConfigError, match=match):
        run_analysis(replace(config, **{name: None}))
    assert not (tmp_path / "out").exists()


def test_analysis_builds_no_filled_member(monkeypatch):
    def no_fill(*args, **kwargs):
        raise AssertionError("analyze_dataset built a filled member")

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_impute", no_fill)
    analyze_dataset(DATASET, replace(CONFIG, dump_members=True))


def dump_config(tmp_path, k):
    write_csv(DATASET, tmp_path / "data.csv")
    return replace(
        CONFIG,
        n_imputations=k,
        input=tmp_path / "data.csv",
        out=tmp_path / "out",
        dump_members=True,
    )


@pytest.mark.parametrize("k", [1, 3])
def test_each_dumped_member_is_drawn_again_from_its_seed(k, tmp_path):
    config = dump_config(tmp_path, k)
    _, paths = run_analysis(config)
    members = [path for path in paths if path.name.startswith("member_")]
    assert [path.name for path in members] == [
        f"member_{i:03d}.csv" for i in range(1, k + 1)
    ]
    a = make_completeness_indicators(parse_csv(config.input))
    for i, path in enumerate(members, start=1):
        member = hot_deck_impute(a, hot_deck_draws(a, split_seed(config.seed, i)))
        write_matrix_csv(member, a.names, tmp_path / "expected.csv")
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_dump_holds_one_filled_member_at_a_time(tmp_path, monkeypatch):
    filled = []  # a weak reference to each member hot_deck_impute returned
    alive = []  # how many of them were alive as each one was returned

    def tracked(*args):
        member = hot_deck_impute(*args)
        filled.append(weakref.ref(member))
        alive.append(sum(ref() is not None for ref in filled))
        return member

    monkeypatch.setattr(missgraph.pipeline, "hot_deck_impute", tracked)
    run_analysis(dump_config(tmp_path, 4))
    assert alive == [1, 1, 1, 1]


def test_report_arcs_are_the_arc_records_by_field():
    report = analyze_dataset(DATASET, CONFIG).report
    assert report.arcs
    assert all(isinstance(arc, MissingnessArc) for arc in report.arcs)
    written = json.loads(report.to_json())["arcs"]
    assert written == [json_record(arc) for arc in report.arcs]
    assert list(written[0]) == [
        "obs_var",
        "comp_var",
        "rho",
        "p",
        "sign",
        "counterpart_rho",
        "counterpart_p",
    ]


def test_report_round_trips_through_read_dataclass():
    dataset, _ = simulate_dataset(
        np.linalg.inv([[1.0, 0.6], [0.6, 1.0]]),
        4000,
        ["a", "w"],
        [MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)],
        seed=5,
    )
    report = analyze_dataset(dataset, replace(CONFIG, n_imputations=5)).report
    assert report.mnar_findings[0].witnesses == ("w",)
    text = report.to_json()
    assert read_dataclass(AnalysisReport, json.loads(text), "report") == report


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
    finding = MnarFinding(
        variable="a", self_arc_rho=0.1, self_arc_p=1e-5, witnesses=("b", "c")
    )
    assert read_dataclass(MnarFinding, json_record(finding), "finding") == finding

    @dataclass
    class Bare:
        meta: dict
        items: list

    bare = Bare(meta={"a": [1, None]}, items=[1, "x"])
    assert read_dataclass(Bare, json_record(bare), "record") == bare


def test_json_record_of_a_named_tuple():
    row = ProfileRow("a", Category.BLOOD_TESTS, 0.25)
    assert json_record(row) == {
        "name": "a",
        "category": "BloodTests",
        "missing_proportion": 0.25,
    }
