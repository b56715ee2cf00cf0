"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every process this script starts runs
with ``src`` on ``PYTHONPATH`` and OpenBLAS/OpenMP/MKL pinned to one thread,
one process at a time:

* ``--trace 0``: the set-up (import, input generation, CSV/schema writing)
  runs ``SETUP_RUNS`` times in fresh processes, then one fresh process times
  analyses for ``--seconds`` seconds.  Prints the end-to-end metrics.
* ``--trace 1``: one fresh process analyses every replicate untraced and
  traced.  Prints the per-layer metrics and the tracing overhead, and writes
  the spans to ``.perfbench_results/``.

Workload names, metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Anything that keeps the run from producing its
metrics exits non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker to completion (killed at the deadline), echoing its output."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stdout[-4000:])
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc


def measure(args: argparse.Namespace, workdir: Path, results: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    if not args.trace:
        setup_dir = workdir / "setup"
        setup_dir.mkdir(parents=True)
        for _ in range(SETUP_RUNS):
            started = time.perf_counter()
            proc = run_worker(["setup", *common, "--workdir", str(setup_dir)], deadline)
            wall = time.perf_counter() - started
            timing = json.loads(proc.stdout.splitlines()[-1])
            setup_samples.append({"raw_s": wall - timing["reference_phase_s"], **timing})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results / f"{stem}.json"
    measure_dir = workdir / "measure"
    measure_dir.mkdir(parents=True)
    extra = ["--spans", str(results / f"{stem}-spans.json")] if args.trace else []
    run_worker(
        [
            "measure", *common,
            "--workdir", str(measure_dir),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--result", str(result_path),
            *extra,
        ],
        deadline,
    )
    payload = json.loads(result_path.read_text(encoding="utf-8"))
    if setup_samples:
        payload["setup_samples"] = setup_samples
        payload["metrics"]["setup_s"] = statistics.median(
            s["raw_s"] * s["scale"] for s in setup_samples
        )
    result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="missgraph benchmark")
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "missgraph" / "__init__.py").is_file():
        print(f"no missgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        payload = measure(args, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = payload["metrics"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent and not payload["failed"]:
        print(f"metrics not measured: {', '.join(absent)}", file=sys.stderr)
        return 3
    # A failed analysis may leave a metric unmeasured; the run reports
    # "correct": false, and the placeholder 0 is never compared.
    values.update(dict.fromkeys(absent, 0.0))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    samples = payload["samples"]
    print(
        f"analyses timed: {len(samples)}  report_sha256: {payload['report_sha256']}"
    )
    if payload["failures"]:
        print("failures: " + "; ".join(payload["failures"]))
    if payload["unwrapped"]:
        print("not traced (attribute absent): " + ", ".join(payload["unwrapped"]))
    print("environment: " + json.dumps(payload["versions"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": payload["failed"] == 0,
                "attempted": payload["attempted"],
                "failed": payload["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
