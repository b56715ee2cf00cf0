"""Reduced-size self-test of the benchmark (tiny n, K=2).

    python3 perfbench/selftest.py

Covers every input generator, one traced and one untraced analysis per
workload, each output check (it must flag a bad certificate, differing
reports and a failing analysis), and run.py's refusal to run outside a
checkout.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from missgraph.dataset import Dataset, VariableMeta  # noqa: E402
from workloads import GENERATORS, Shape  # noqa: E402

TINY = {
    "acceptance": Shape(n=300, k=2, n_rotations=2, via_cli=False),
    "clinical": Shape(n=200, k=2, n_rotations=2),
    "wide": Shape(n=200, k=2, n_rotations=2),
}


# Layer metrics that partition an analysis: self times and leaf spans.
DISJOINT_LAYERS = (
    "dataset.parse_s", "augment.indicators_s", "impute.hot_deck_s", "npn.transform_s",
    "ggm.select_lambda_s", "ggm.fit_precision_s", "ggm.correlation_s", "ggm.glasso_s",
    "pooling.pool_s", "pooling.inference_s", "report.render_s", "pipeline.self_s",
    "cli.self_s",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return (
        a.names == b.names
        and np.array_equal(a.mask, b.mask)
        and np.array_equal(a.values, b.values, equal_nan=True)
    )


def test_generators() -> None:
    for name, generate in GENERATORS.items():
        n = TINY[name].n
        first, truth = generate(5, n)
        again, _ = generate(5, n)
        other, _ = generate(6, n)
        check(same_dataset(first, again), f"{name}: same seed, same inputs")
        check(not same_dataset(first, other), f"{name}: another seed, other inputs")
        check(len(truth.expected_arcs()) > 0, f"{name}: ground truth implies arcs")

    ds, truth = GENERATORS["acceptance"](5, 300)
    check(ds.names == ["a", "w", "z"], "acceptance: variables a, w, z")
    check(
        truth.expected_arcs() == {("a", "a__observed"), ("z", "w__observed")},
        "acceptance: MNAR self arc on a, MAR arc z -> w",
    )

    n = 400
    ds, truth = GENERATORS["clinical"](5, n)
    check(len(ds.names) == 23, "clinical: 23 variables")
    missing = (~ds.mask).sum(axis=0)
    for j, (name, category, rate) in enumerate(workloads.CLINICAL_PROFILE):
        check(ds.metas[j].category is category, f"clinical: {name} category")
        if name not in ("lactate", "pf_ratio"):
            check(missing[j] == round(rate * n), f"clinical: {name} missing count exact")
    for name in workloads.CLINICAL_BINARY:
        col = ds.column(name)
        check(set(np.unique(col[~np.isnan(col)])) == {0.0, 1.0}, f"clinical: {name} is 0/1")
    avpu = ds.column("avpu")
    check(len(np.unique(avpu[~np.isnan(avpu)])) == 4, "clinical: avpu has 4 levels")
    check(
        truth.expected_arcs()
        == {("lactate", "lactate__observed"), ("fio2", "pf_ratio__observed")},
        "clinical: lactate MNAR, pf_ratio MAR on fio2",
    )

    ds, truth = GENERATORS["wide"](5, 200)
    partial = int(((~ds.mask).sum(axis=0) > 0).sum())
    check(len(ds.names) == 80 and partial == 25, "wide: 80 variables, 25 with holes")
    check(len(truth.expected_arcs()) == 5, "wide: 5 MNAR self arcs")


def test_analyses() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name, shape in TINY.items():
        untraced = worker.measure_untraced(name, shape, 3, seconds=0)
        run = untraced["run"]
        check(run.attempted == 2 and not run.failures, f"{name}: untraced run passes its checks")
        check(
            {"analysis_s", "peak_rss_mb", "report_bytes", "arc_recall"}
            <= set(untraced["metrics"]),
            f"{name}: untraced run measures the end-to-end metrics",
        )
        traced = worker.measure_traced(name, shape, 3, seconds=0)
        run = traced["run"]
        check(run.attempted == 2 and not run.failures, f"{name}: traced run passes its checks")
        check(
            traced["report"] == untraced["report"],
            f"{name}: tracing leaves the report unchanged",
        )
        metrics = traced["metrics"]
        check(layer_names <= set(metrics), f"{name}: every per-layer metric is measured")
        check(metrics["ggm.glasso_calls"] == shape.k, f"{name}: one glasso call per member")
        check(metrics["npn.columns"] > 0 and metrics["ggm.ric_permutations"] > 0,
              f"{name}: work counts recorded")
        spans = traced["tracer"].spans
        check(all(s[tracing.END] is not None for s in spans), f"{name}: every span closed")
        covered = sum(metrics[k] for k in DISJOINT_LAYERS)
        if not shape.via_cli:  # the benchmark serializes the report after the call
            covered -= metrics["report.render_s"]
        check(abs(covered - metrics["trace.analysis_s"]) < 0.01 * metrics["trace.analysis_s"] + 1e-3,
              f"{name}: disjoint layer times add up to the traced analysis")
        if shape.via_cli:
            check(metrics["dataset.parse_s"] > 0 and metrics["cli.self_s"] > 0,
                  f"{name}: parse and CLI layers traced")
        check(not traced["tracer"].missing, f"{name}: every trace target exists")


def test_checks() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 6))
    sigma = np.corrcoef(x, rowvar=False)
    from missgraph.ggm import glasso_fit

    theta = glasso_fit(sigma, 0.1)
    _, failure = worker.solver_summary([(sigma, 0.1, theta)])
    check(failure is None, "certificate of a solved problem passes")
    bad = theta.copy()
    bad[0, 1] = bad[1, 0] = theta[0, 1] + 0.05
    _, failure = worker.solver_summary([(sigma, 0.1, bad)])
    check(failure is not None, "certificate of a perturbed solution fails")
    _, failure = worker.solver_summary([])
    check(failure is not None, "an analysis without glasso calls fails")

    run = worker.Run()
    case = worker.Case(index=0, seed=0, shape=TINY["acceptance"], dataset=None, truth=None)
    run.check_same(case, worker.Outcome(1.0, report=b"a"), worker.Outcome(1.0, report=b"b"))
    check(len(run.failures) == 1, "differing reports of one input fail")

    text = json.dumps({"meta": {"seed": 1, "runtime": {"elapsed_seconds": 1.0}}})
    other = json.dumps({"meta": {"seed": 1, "runtime": {"elapsed_seconds": 2.0}}})
    check(worker.volatile_free(text) == worker.volatile_free(other), "meta.runtime is ignored")

    single = Dataset(
        metas=(VariableMeta(name="only"),),
        values=rng.standard_normal((50, 1)),
        mask=np.ones((50, 1), dtype=bool),
    )
    case = worker.Case(index=0, seed=0, shape=TINY["acceptance"], dataset=single, truth=None)
    outcome = worker.analyse(case)
    check(outcome.failure is not None, "a MissgraphError is a failed analysis")
    case = worker.Case(index=0, seed=0, shape=TINY["clinical"], dataset=None, truth=None,
                       argv=["analyze", "--input", "absent.csv", "--out", "out"])
    outcome = worker.analyse(case)
    check(outcome.failure is not None, "a failing CLI call is a failed analysis")


def test_refuses_outside_checkout(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py exits non-zero and prints no result without the sources")


def main() -> int:
    scratch = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(scratch)
        test_generators()
        test_checks()
        test_analyses()
        os.chdir(cwd)
        test_refuses_outside_checkout(scratch)
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
