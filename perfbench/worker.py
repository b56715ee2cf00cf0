"""One benchmark process: set up a workload, or run and check its analyses.

    python3 perfbench/worker.py setup   --workload W --seed S --workdir D
    python3 perfbench/worker.py measure --workload W --seed S --workdir D \
        --seconds T --trace 0|1 --result FILE [--spans FILE]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the BLAS thread pools
pinned to one thread; it is not meant to be started by hand.  ``measure``
changes into the work directory, so the input paths that the CLI records in
``report.json`` are the same in every run.

Analysis ``i`` of a run uses replicate ``i`` of the seed (its own data set
and analysis seed).  Untraced runs time each analysis and end by analysing
replicate 0 again, which must give a byte-identical report; that repeat is
timed too, since on a machine whose speed drifts a sample more helps the
median more than one more distinct input does.  Traced runs
analyse every replicate twice, untraced then traced, so that each pair gives
the tracing overhead and is itself a determinism check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import missgraph
import missgraph.cli
import missgraph.pipeline
from missgraph.errors import MissgraphError
from missgraph.ggm import kkt_certificate
from missgraph.pipeline import AnalysisConfig

from reference import NOMINAL_S, reference_seconds
from tracing import Tracer, capture_glasso, layer_counts, layer_times
from workloads import GENERATORS, WORKLOADS, Shape, replicate_seed, write_inputs

KKT_TOL = 1e-6  # acceptance criterion 1: duality gap and off-support violation


@dataclass
class Case:
    """One replicate's inputs, ready to analyse."""

    index: int
    seed: int
    shape: Shape
    dataset: object
    truth: object
    argv: list[str] | None = None  # CLI arguments when run via the CLI


@dataclass
class Outcome:
    """What one analysis produced and whether it passed the checks."""

    seconds: float
    failure: str | None = None
    report: bytes = b""  # volatile-free report.json
    hits: int = 0
    expected: int = 0
    solver: dict = field(default_factory=dict)


def prepare(workload: str, shape: Shape, seed: int, index: int) -> Case:
    """Generate replicate ``index``; CLI workloads also write it to disk."""
    rseed = replicate_seed(seed, index)
    dataset, truth = GENERATORS[workload](rseed, shape.n)
    case = Case(index=index, seed=rseed, shape=shape, dataset=dataset, truth=truth)
    if shape.via_cli:
        shutil.rmtree("out", ignore_errors=True)  # no stale report can pass
        csv_path, schema_path = write_inputs(dataset, Path("."))
        case.argv = [
            "analyze",
            "--input", csv_path.name,
            "--schema", schema_path.name,
            "--imputations", str(shape.k),
            "--n-rotations", str(shape.n_rotations),
            "--seed", str(rseed),
            "--out", "out",
        ]
    return case


def volatile_free(report_json: str) -> bytes:
    """The report as written, minus ``meta.runtime``."""
    report = json.loads(report_json)
    report["meta"].pop("runtime", None)
    return (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def solver_summary(calls: list) -> tuple[dict, str | None]:
    """Certificate and screening structure of every glasso_fit call."""
    if not calls:
        return {}, "no glasso_fit call observed"
    gaps, violations, edges, components, giants = [], [], [], [], []
    for sigma, lam, theta in calls:
        cert = kkt_certificate(sigma, theta, lam)
        gaps.append(abs(cert["duality_gap"]))
        violations.append(cert["off_support_violation"])
        off = ~np.eye(theta.shape[0], dtype=bool)
        edges.append(int(((theta != 0.0) & off).sum()) // 2)
        screen = (np.abs(sigma) > lam) & off
        count, labels = connected_components(csr_matrix(screen), directed=False)
        components.append(count)
        giants.append(int(np.bincount(labels).max()))
    summary = {
        "ggm.lambda_mean": float(np.mean([lam for _, lam, _ in calls])),
        "ggm.support_edges_mean": float(np.mean(edges)),
        "ggm.duality_gap_max": max(gaps),
        "ggm.kkt_violation_max": max(violations),
        "ggm.screen_components_mean": float(np.mean(components)),
        "ggm.screen_giant_cols_mean": float(np.mean(giants)),
    }
    failure = None
    if max(gaps) > KKT_TOL or max(violations) > KKT_TOL:
        failure = (
            f"glasso certificate above {KKT_TOL:g}: gap {max(gaps):.3e}, "
            f"off-support violation {max(violations):.3e}"
        )
    return summary, failure


def check_outputs(case: Case, report: dict) -> str | None:
    """Consistency of the written files with the report."""
    if len(report["lambdas"]) != case.shape.k:
        return f"{len(report['lambdas'])} lambdas for {case.shape.k} members"
    if case.argv is not None:
        arc_rows = Path("out/arcs.csv").read_text(encoding="utf-8").count("\n") - 1
        if arc_rows != len(report["arcs"]):
            return f"arcs.csv has {arc_rows} rows, report has {len(report['arcs'])} arcs"
        if not Path("out/graph.dot").read_text(encoding="utf-8").startswith("graph "):
            return "graph.dot is not a DOT graph"
    return None


def analyse(case: Case, tracer: Tracer | None = None, analysis_id: int = 0) -> Outcome:
    """Run one analysis, timing only the call into the package, then check it."""
    calls: list = []
    scope = tracer.installed(analysis_id) if tracer else nullcontext()
    with capture_glasso(calls), scope:
        if case.argv is not None:
            started = time.perf_counter()
            code = missgraph.cli.main(case.argv)
            seconds = time.perf_counter() - started
            if code != 0:
                return Outcome(seconds, failure=f"CLI exit code {code}")
            text = Path("out/report.json").read_text(encoding="utf-8")
        else:
            config = AnalysisConfig(
                n_imputations=case.shape.k,
                n_rotations=case.shape.n_rotations,
                seed=case.seed,
            )
            started = time.perf_counter()
            try:
                result = missgraph.pipeline.analyze_dataset(case.dataset, config)
            except MissgraphError as exc:
                seconds = time.perf_counter() - started
                return Outcome(seconds, failure=f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - started
            # Serialized inside the trace scope so report.render_s sees it.
            text = result.report.to_json()
    report = json.loads(text)
    found = {(a["obs_var"], a["comp_var"]) for a in report["arcs"]}
    expected = case.truth.expected_arcs()
    solver, failure = solver_summary(calls)
    failure = failure or check_outputs(case, report)
    return Outcome(
        seconds,
        failure=failure,
        report=volatile_free(text),
        hits=len(found & expected),
        expected=len(expected),
        solver=solver,
    )


def median_of(rows: list[dict]) -> dict:
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: statistics.median(row[key] for row in rows if key in row) for key in keys}


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Run:
    """Counts and failures of one measure run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.hits = 0
        self.expected = 0

    def record(self, case: Case, outcome: Outcome, count_recall: bool = True) -> None:
        self.attempted += 1
        if outcome.failure:
            self.failures.append(f"replicate {case.index}: {outcome.failure}")
        elif count_recall:
            self.hits += outcome.hits
            self.expected += outcome.expected

    def check_same(self, case: Case, first: Outcome, second: Outcome) -> None:
        if not (first.failure or second.failure) and first.report != second.report:
            self.failures.append(
                f"replicate {case.index}: two analyses of the same input differ"
            )


def corrected(raw: list[float], refs: list[float]) -> list[float]:
    """Rescale sample i by the mean of the four reference times nearest to it.

    ``refs[i]`` was taken just before sample i and ``refs[i + 1]`` just
    after; averaging one more on each side halves the kernel's own noise.
    """
    return [
        t * NOMINAL_S / statistics.mean(refs[max(0, i - 1) : i + 3])
        for i, t in enumerate(raw)
    ]


def measure_untraced(workload: str, shape: Shape, seed: int, seconds: float) -> dict:
    run = Run()
    samples: list[float] = []
    refs = [reference_seconds()]
    first: Outcome | None = None
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        case = prepare(workload, shape, seed, index)
        outcome = analyse(case)
        refs.append(reference_seconds())
        run.record(case, outcome)
        samples.append(outcome.seconds)
        if index == 0:
            first = outcome
        index += 1
    case = prepare(workload, shape, seed, 0)
    repeat = analyse(case)
    refs.append(reference_seconds())
    run.record(case, repeat, count_recall=False)
    run.check_same(case, first, repeat)
    samples.append(repeat.seconds)
    return {
        "run": run,
        "samples": samples,
        "references": refs,
        "report": first.report,
        "metrics": {
            "analysis_s": statistics.median(corrected(samples, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "report_bytes": len(first.report),
            "arc_recall": run.hits / run.expected if run.expected else 0.0,
        },
    }


def measure_traced(workload: str, shape: Shape, seed: int, seconds: float) -> dict:
    run = Run()
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    refs = [reference_seconds()]
    first: Outcome | None = None
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        case = prepare(workload, shape, seed, index)
        untraced = analyse(case)
        refs.append(reference_seconds())
        run.record(case, untraced)
        withtrace = analyse(case, tracer, analysis_id=index)
        run.record(case, withtrace, count_recall=False)
        run.check_same(case, untraced, withtrace)
        if index == 0:
            first = untraced
        plain.append(untraced.seconds)
        traced.append(withtrace.seconds)
        layers.append(
            {
                **layer_times(tracer.spans, index),
                **layer_counts(tracer.spans, index),
                **withtrace.solver,
            }
        )
        index += 1
    metrics = median_of(layers)
    metrics["trace.analysis_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.spans"] = len(tracer.spans) / len(traced)
    metrics["machine.reference_s"] = statistics.median(refs)
    return {
        "run": run,
        "samples": traced,
        "untraced_samples": plain,
        "references": refs,
        "report": first.report,
        "metrics": metrics,
        "tracer": tracer,
    }


def cmd_setup(args: argparse.Namespace) -> int:
    """Set up, then time the reference kernel; run.py subtracts the latter."""
    os.chdir(args.workdir)
    prepare(args.workload, WORKLOADS[args.workload], args.seed, 0)
    started = time.perf_counter()
    reference = reference_seconds()
    phase = time.perf_counter() - started
    print(
        json.dumps(
            {
                "reference_s": reference,
                "reference_phase_s": phase,
                "scale": NOMINAL_S / reference,
            }
        )
    )
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    root = Path(__file__).resolve().parent.parent
    package = Path(missgraph.__file__).resolve()
    if root / "src" not in package.parents:
        print(f"missgraph imported from {package}, not from this checkout", file=sys.stderr)
        return 2
    result_path = Path(args.result).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None
    os.chdir(args.workdir)
    shape = WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_untraced
    out = measure(args.workload, shape, args.seed, args.seconds)
    run: Run = out["run"]
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shape": vars(shape),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "samples": out["samples"],
        "untraced_samples": out.get("untraced_samples"),
        "references": out["references"],
        "report_sha256": hashlib.sha256(out["report"]).hexdigest(),
        "metrics": out["metrics"],
        "unwrapped": out["tracer"].missing if "tracer" in out else [],
        "versions": versions(),
    }
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if spans_path and "tracer" in out:
        spans_path.write_text(json.dumps(out["tracer"].records()) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return cmd_setup(args)
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
