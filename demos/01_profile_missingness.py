"""Load a CSV with gaps, profile the missingness, and build indicators.

Run from the repository root:

    python3 demos/01_profile_missingness.py
"""

from pathlib import Path

from missgraph import make_completeness_indicators, missing_profile, parse_csv

DATA = Path(__file__).resolve().parent.parent / "data"

dataset = parse_csv(DATA / "mnar_example.csv")
print(f"{dataset.n_rows} rows, {dataset.n_cols} variables\n")

print(f"{'variable':<15} {'category':<12} missing")
for row in missing_profile(dataset):
    print(f"{row.name:<15} {row.category.value:<12} {row.missing_proportion:.3f}")

augmented = make_completeness_indicators(dataset)
print("\ncompleteness indicators:")
for i, meta in enumerate(augmented.indicator_metas):
    share = augmented.indicator_values[:, i].mean()
    print(f"  {meta.name} (parent {meta.parent}, observed share {share:.3f})")
print(
    "columns without indicator (fully observed or fully missing):"
    f" {list(augmented.excluded_constant)}"
)
