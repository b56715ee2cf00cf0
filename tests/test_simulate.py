from types import SimpleNamespace

import numpy as np
import pytest

import missgraph.simulate

from missgraph import (
    AnalysisConfig,
    Category,
    ContractError,
    MechanismKind,
    MechanismSpec,
    VarKind,
    VariableMeta,
    ar1_precision,
    generate_gaussian,
    indicator_name,
    run_benchmark,
    simulate_dataset,
)
from missgraph.simulate import regenerate_dataset, simulate_spec

from .conftest import residual_partial_corr


class TestGenerateGaussian:
    def test_deterministic_per_seed(self):
        prec = ar1_precision(4, 0.5)
        a = generate_gaussian(prec, 200, seed=9)
        b = generate_gaussian(prec, 200, seed=9)
        np.testing.assert_array_equal(a, b)
        c = generate_gaussian(prec, 200, seed=10)
        assert not np.array_equal(a, c)

    def test_identity_precision_uncorrelated(self):
        x = generate_gaussian(np.eye(4), 100_000, seed=0)
        corr = np.corrcoef(x, rowvar=False)
        off = ~np.eye(4, dtype=bool)
        assert np.abs(corr[off]).max() < 0.012

    def test_ar1_partials_vanish_off_chain(self):
        n = 50_000
        x = generate_gaussian(ar1_precision(4, 0.5), n, seed=3)
        # non-adjacent pairs are conditionally independent
        for i, j in ((0, 2), (0, 3), (1, 3)):
            others = [k for k in range(4) if k not in (i, j)]
            r = residual_partial_corr(x[:, i], x[:, j], x[:, others])
            assert abs(r) < 2 / np.sqrt(n)

    def test_covariance_matches_inverse_precision(self):
        prec = ar1_precision(3, 0.5)
        x = generate_gaussian(prec, 200_000, seed=1)
        cov = np.cov(x, rowvar=False)
        np.testing.assert_allclose(cov, np.linalg.inv(prec), atol=0.02)

    def test_non_spd_rejected(self):
        inf, nan = np.inf, np.nan
        for bad, match in [
            ([[1.0, 2.0], [2.0, 1.0]], "precision matrix must be positive definite"),
            ([[inf, 0.0], [0.0, 1.0]], "precision matrix must be finite"),
            ([[1.0, -inf], [-inf, 1.0]], "precision matrix must be finite"),
            ([[1.0, nan], [nan, 1.0]], "precision matrix must be finite"),
            # Factorizes, but its inverse overflows.
            ([[1e-320, 0.0], [0.0, 1.0]], "precision matrix's inverse must be finite"),
            ([[1.0, 0.0], [0.0]], "precision matrix must be a numeric matrix"),
            ([["1", "x"], ["x", "1"]], "precision matrix must be a numeric matrix"),
            (np.ones((2, 3)), "precision matrix must be square"),
        ]:
            with pytest.raises(ContractError, match=match):
                generate_gaussian(bad, 10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            generate_gaussian(np.eye(2), 10, seed=-1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError, match="precision matrix must be symmetric"):
            generate_gaussian(np.array([[1.0, 0.5], [0.2, 1.0]]), 10, seed=0)


class TestMechanisms:
    def test_mcar_rate_concentrates(self):
        spec = MechanismSpec(kind="MCAR", target="a", rate=0.3, seed=7)
        ds, _ = simulate_dataset(np.eye(2), 10_000, ["a", "b"], [spec], seed=1)
        missing = 1.0 - ds.mask[:, 0].mean()
        assert missing == pytest.approx(0.3, abs=0.02)
        assert ds.mask[:, 1].all()

    def test_zero_slope_collapses_to_mcar(self):
        from missgraph.simulate import _probability_column

        x = generate_gaussian(np.eye(2), 500, seed=2)
        names = ("a", "b")
        mcar = MechanismSpec(kind="MCAR", target="a", rate=0.25)
        mar = MechanismSpec(kind="MAR", target="a", driver="b", rate=0.25, slope=0.0)
        mnar = MechanismSpec(kind="MNAR", target="a", rate=0.25, slope=0.0)
        p0 = _probability_column(x, names, mcar)
        np.testing.assert_allclose(_probability_column(x, names, mar), p0)
        np.testing.assert_allclose(_probability_column(x, names, mnar), p0)

    def test_mnar_selects_low_values_when_slope_positive(self):
        spec = MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5, seed=3)
        ds, truth = simulate_dataset(np.eye(1), 20_000, ["a"], [spec], seed=4)
        observed_mean = ds.values[ds.mask[:, 0], 0].mean()
        assert observed_mean < truth.latent[:, 0].mean()

    def test_rate_bounds_enforced(self):
        with pytest.raises(ContractError, match="rate"):
            MechanismSpec(kind="MCAR", target="a", rate=1.0)

    def test_mar_needs_distinct_driver(self):
        with pytest.raises(ContractError, match="driver"):
            MechanismSpec(kind="MAR", target="a", driver="a", rate=0.2)
        with pytest.raises(ContractError, match="driver"):
            MechanismSpec(kind="MAR", target="a", rate=0.2)

    def test_mnar_takes_no_driver(self):
        with pytest.raises(ContractError, match="no driver"):
            MechanismSpec(kind="MNAR", target="a", driver="b", rate=0.2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be >= 0, got -2"):
            MechanismSpec(kind="MCAR", target="a", rate=0.2, seed=-2)

    @pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf])
    def test_non_finite_slope_rejected(self, slope):
        with pytest.raises(ContractError, match="slope must be finite"):
            MechanismSpec(kind="MNAR", target="a", rate=0.2, slope=slope)

    def test_unknown_target_rejected(self):
        spec = MechanismSpec(kind="MCAR", target="nope", rate=0.2)
        with pytest.raises(ContractError, match="target"):
            simulate_dataset(np.eye(1), 10, ["a"], [spec])


class TestSimulateDataset:
    def test_ground_truth_round_trip(self):
        prec = ar1_precision(3, 0.4)
        specs = [MechanismSpec(kind="MNAR", target="b", rate=0.2, slope=1.0)]
        ds, truth = simulate_dataset(prec, 500, ["a", "b", "c"], specs, seed=11)
        rebuilt = simulate_spec(truth.to_dict())[1]
        ds2 = regenerate_dataset(rebuilt)
        np.testing.assert_array_equal(ds.mask, ds2.mask)
        assert np.array_equal(ds.values, ds2.values, equal_nan=True)
        np.testing.assert_allclose(rebuilt.probabilities, truth.probabilities)

    def test_default_seeded_mechanisms_draw_independently(self):
        specs = [
            MechanismSpec(kind="MCAR", target="a", rate=0.3),
            MechanismSpec(kind="MCAR", target="b", rate=0.3),
        ]
        ds, truth = simulate_dataset(np.eye(2), 1000, ["a", "b"], specs)
        assert [s.seed for s in specs] == [0, 0]
        assert truth.specs[0].seed != truth.specs[1].seed
        assert not np.array_equal(ds.mask[:, 0], ds.mask[:, 1])

    def test_probabilities_recorded_for_target_only(self):
        prec = np.eye(2)
        specs = [MechanismSpec(kind="MCAR", target="a", rate=0.4)]
        _, truth = simulate_dataset(prec, 100, ["a", "b"], specs, seed=0)
        np.testing.assert_array_equal(truth.probabilities[:, 0], 0.4)
        np.testing.assert_array_equal(truth.probabilities[:, 1], 0.0)

    @pytest.mark.parametrize(
        "n, names, precision, categories, message",
        [
            (0, ["a", "b"], np.eye(2), None, "n must be"),
            (-5, ["a", "b"], np.eye(2), None, "n must be"),
            (10, ["a", "a"], np.eye(2), None, "unique"),
            (10, ["a", "b"], [[1.0, 0.0], [0.0]], None, "numeric matrix"),
            (10, ["a", "b"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], None, "square"),
            (10, ["a", "b"], np.eye(2), {"lactat": Category.BLOOD_TESTS}, "lactat"),
            (10, ["a", "b", "c"], np.eye(2), None, "one name per precision row"),
            (10, ["a", "b"], np.diag([1.0, np.inf]), None, "must be finite"),
            (10, ["a", "b"], np.diag([1.0, np.nan]), None, "must be finite"),
            (10, ["a", "b"], np.diag([1e-320, 1.0]), None, "inverse must be finite"),
        ],
        ids=[
            "n_zero", "n_negative", "duplicate_names", "ragged", "non_square",
            "unknown_category", "names_precision_mismatch", "infinite", "nan",
            "inverse_overflows",
        ],
    )
    def test_bad_values_are_contract_errors(
        self, n, names, precision, categories, message
    ):
        specs = [MechanismSpec(kind="MCAR", target="a", rate=0.3)]
        with pytest.raises(ContractError, match=message):
            simulate_dataset(precision, n, names, specs, seed=1, categories=categories)

    def test_ar1_template_is_ar1_precision(self):
        spec = {
            "n": 50,
            "names": ["a", "b", "c"],
            "precision": {"type": "ar1", "p": 3, "rho": 0.4},
            "mechanisms": [{"kind": "MCAR", "target": "a", "rate": 0.2}],
        }
        _, truth = simulate_spec(spec)
        np.testing.assert_array_equal(truth.precision, ar1_precision(3, 0.4))

    def test_expected_arcs(self):
        specs = [
            MechanismSpec(kind="MNAR", target="a", rate=0.2, slope=1.0),
            MechanismSpec(kind="MAR", target="b", driver="c", rate=0.2, slope=1.0),
            MechanismSpec(kind="MCAR", target="c", rate=0.2),
        ]
        _, truth = simulate_dataset(np.eye(3), 50, ["a", "b", "c"], specs, seed=1)
        assert truth.expected_arcs() == {
            ("a", indicator_name("a")),
            ("c", indicator_name("b")),
        }


class TestBenchmark:
    def test_zero_replicates_rejected(self):
        with pytest.raises(ContractError, match="replicate"):
            run_benchmark([])

    def test_mnar_batch_smoke(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        prec = np.linalg.inv(cov)
        truths = []
        for rep in range(2):
            _, truth = simulate_dataset(
                prec,
                2000,
                ["a", "w"],
                [MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)],
                seed=100 + rep,
            )
            truths.append(truth)
        config = AnalysisConfig(n_imputations=3, seed=1)
        out = run_benchmark(truths, config)
        assert out["mechanisms"]["MNAR"]["replicates"] == 2
        assert out["mechanisms"]["MNAR"]["self_arc_power"] == 1.0
        assert out["mechanisms"]["MNAR"]["witness_rate"] == 1.0
        assert out["failures"] == []

    @pytest.fixture(scope="class")
    def mixed_batch(self):
        # corr(a, w) = 0.6; z is independent of both and drives the MAR masks
        cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        prec = np.linalg.inv(cov)
        batches = (
            [MechanismSpec(kind="MAR", target="a", driver="z", rate=0.3, slope=1.5)],
            [MechanismSpec(kind="MCAR", target="a", rate=0.3)],
            [
                MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5),
                MechanismSpec(kind="MAR", target="w", driver="z", rate=0.2, slope=1.5),
            ],
        )
        truths = [
            simulate_dataset(prec, 5000, ["a", "w", "z"], specs, seed=200 + rep)[1]
            for rep in range(2)
            for specs in batches
        ]
        return run_benchmark(truths, AnalysisConfig(n_imputations=2, seed=1))

    def test_mar_bucket(self, mixed_batch):
        assert mixed_batch["mechanisms"]["MAR"] == {
            "replicates": 2,
            "errors": 0,
            "driver_arc_power": 1.0,
            "self_arc_rate": 0.0,
            "false_arc_rate": 0.0,
        }

    def test_mcar_bucket(self, mixed_batch):
        assert mixed_batch["mechanisms"]["MCAR"] == {
            "replicates": 2,
            "errors": 0,
            "false_arc_rate": 0.0,
        }

    def test_mixed_label_scores_both_kinds(self, mixed_batch):
        mixed = mixed_batch["mechanisms"]["MAR+MNAR"]
        assert mixed["replicates"] == 2 and mixed["errors"] == 0
        assert mixed["self_arc_power"] == 1.0
        assert mixed["witness_rate"] == 1.0
        assert mixed["driver_arc_power"] == 1.0
        assert mixed["self_arc_rate"] == 0.0
        # the flagged (w, a__observed) pairs are witnesses (w is a precision
        # neighbour of the MNAR target a), not false arcs
        assert mixed["false_arc_rate"] == 0.0
        assert mixed_batch["failures"] == []

    def test_indirect_arcs_are_not_false_arcs(self, monkeypatch):
        # a and w are precision neighbours, z is independent of both
        cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        _, truth = simulate_dataset(
            np.linalg.inv(cov),
            50,
            ["a", "w", "z"],
            [MechanismSpec(kind="MNAR", target="a", rate=0.3, slope=1.5)],
            seed=1,
        )
        arcs = [
            SimpleNamespace(obs_var=v, comp_var="a__observed") for v in ("a", "w", "z")
        ]
        variables = [VariableMeta(name=v) for v in ("a", "w", "z")] + [
            VariableMeta(name="a__observed", kind=VarKind.COMPLETENESS, parent="a")
        ]
        result = SimpleNamespace(
            report=SimpleNamespace(variables=variables, arcs=arcs, mnar_findings=[])
        )
        monkeypatch.setattr(
            missgraph.simulate, "analyze_dataset", lambda dataset, config: result
        )
        assert truth.indirect_arcs() == {("w", "a__observed")}
        mnar = run_benchmark([truth])["mechanisms"]["MNAR"]
        # 3 observation x 1 indicator column; only the z arc is false
        assert mnar["false_arc_rate"] == pytest.approx(1 / 3)
        assert mnar["self_arc_power"] == 1.0

    def test_errors_recorded_not_raised(self):
        # 6 rows are below the transform minimum, so the replicate fails;
        # the batch must finish and record the failure
        _, truth = simulate_dataset(
            np.eye(2),
            6,
            ["a", "b"],
            [MechanismSpec(kind="MCAR", target="a", rate=0.3)],
            seed=5,
        )
        out = run_benchmark([truth], AnalysisConfig(n_imputations=2))
        assert out["mechanisms"]["MCAR"]["errors"] == 1
        assert len(out["failures"]) == 1
