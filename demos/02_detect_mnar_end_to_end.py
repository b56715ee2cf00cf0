"""Simulate value-dependent missingness, then recover it from the data alone.

The generator hides high values of `lab_value` more often (its own value
drives the absence risk).  After hot-deck imputation the variable is
marginally uncorrelated with its indicator, so any surviving conditional
dependency has to be carried by correlated third variables; the analysis
flags exactly that and names the witnesses.

    python3 demos/02_detect_mnar_end_to_end.py
"""

import numpy as np

from missgraph import (
    AnalysisConfig,
    MechanismSpec,
    analyze_dataset,
    export_graph,
    simulate_dataset,
)

cov = np.array([
    [1.0, 0.6, 0.2],
    [0.6, 1.0, 0.3],
    [0.2, 0.3, 1.0],
])
names = ["lab_value", "vital_sign", "score"]
spec = MechanismSpec(kind="MNAR", target="lab_value", rate=0.3, slope=1.5)

dataset, truth = simulate_dataset(
    np.linalg.inv(cov), n=4000, names=names, specs=[spec], seed=2024
)
print("ground truth arcs:", truth.expected_arcs())

config = AnalysisConfig(alpha=0.01, n_imputations=25, seed=7)
result = analyze_dataset(dataset, config)

print(f"\nselected lambda (one for all members): {result.lambdas[0]:.4f}")
print(f"\n{len(result.arcs)} significant observation<->completeness arcs:")
for arc in result.arcs:
    extra = ""
    if arc.counterpart_rho is not None:
        extra = f"  [value pair rho={arc.counterpart_rho:+.4f}, p={arc.counterpart_p:.2e}]"
    print(
        f"  {arc.observation_var:<11} -- {arc.completeness_var:<22} "
        f"rho={arc.pooled_rho:+.4f}  p={arc.p_value:.2e}{extra}"
    )

print("\nmissing-not-at-random evidence:")
for finding in result.findings:
    print(
        f"  {finding.variable}: self-arc rho={finding.self_arc_rho:+.4f} "
        f"(p={finding.self_arc_p:.2e}), witnesses: {', '.join(finding.witnesses)}"
    )

print("\nDOT rendering of the arc graph:\n")
print(export_graph(result.report, "dot"))
