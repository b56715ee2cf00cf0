"""Score arc recovery against known mechanisms on a small replicate grid.

Each replicate generates Gaussian data, hides cells under a known mechanism,
and replays the full analysis; the summary reports detection power and false
arc rates per mechanism kind.  ``false_arc_rate`` counts flagged
observation/indicator pairs that no mechanism implies: the covariate's arc to
``target__observed`` under MNAR is a witness (the covariate is a precision
neighbour of the target) and is not counted.  Heavier grids just need more
replicates.

    python3 demos/04_mechanism_benchmark.py
"""

import json

import numpy as np

from missgraph import AnalysisConfig, MechanismSpec, run_benchmark, simulate_dataset

cov = np.array([[1.0, 0.6], [0.6, 1.0]])
prec = np.linalg.inv(cov)
names = ["target", "covariate"]

truths = []
for rep in range(5):
    for offset, spec in enumerate(
        (
            MechanismSpec(kind="MCAR", target="target", rate=0.3),
            MechanismSpec(kind="MNAR", target="target", rate=0.3, slope=1.5),
        )
    ):
        _, truth = simulate_dataset(
            prec, n=2000, names=names, specs=[spec], seed=1000 * rep + offset
        )
        truths.append(truth)

config = AnalysisConfig(alpha=0.01, n_imputations=10, seed=3)
summary = run_benchmark(truths, config)
print(json.dumps(summary, indent=2))
