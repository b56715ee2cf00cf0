"""Detect informative missing-data patterns with sparse graphical models.

The pipeline augments a numeric table with binary completeness indicators,
hot-deck imputes an ensemble of complete copies, Gaussianizes every column by
ranks, fits an l1-penalized precision matrix per copy (de-biased for
inference), pools partial correlations in Fisher z-space, and reports the
conditional dependencies between observed values and recording patterns,
including evidence of missing-not-at-random mechanisms.
"""

__version__ = "0.1.0"

from .augment import AugmentedDataset, indicator_name, make_completeness_indicators
from .dataset import (
    DEFAULT_NA_TOKENS,
    Category,
    Dataset,
    ProfileRow,
    VariableMeta,
    VarKind,
    load_schema,
    missing_profile,
    parse_csv,
    write_csv,
)
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DegenerateColumnError,
    MissgraphError,
    NumericError,
    ParseError,
    SchemaError,
    UnimputableColumnError,
)
from .ggm import (
    PrecisionFit,
    correlation_matrix,
    desparsify,
    duality_gap,
    fit_precision,
    glasso_fit,
    kkt_certificate,
    partial_correlations,
    select_lambda_ric,
)
from .impute import hot_deck_draws, hot_deck_impute, split_seed
from .npn import TransformedMatrix, nonparanormal_transform, winsorization_bound
from .pipeline import (
    AnalysisConfig,
    AnalysisResult,
    analyze_dataset,
    run_analysis,
)
from .pooling import (
    MissingnessArc,
    MnarFinding,
    PooledEdgeTable,
    detect_mnar,
    edge_p_values,
    extract_missingness_arcs,
    fisher_pool,
    pool_partial_correlations,
)
from .report import AnalysisReport, export_graph
from .simulate import (
    GroundTruth,
    MechanismKind,
    MechanismSpec,
    ar1_precision,
    generate_gaussian,
    run_benchmark,
    simulate_dataset,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "AnalysisReport",
    "AnalysisResult",
    "AugmentedDataset",
    "Category",
    "ConfigError",
    "ContractError",
    "ConvergenceError",
    "Dataset",
    "DegenerateColumnError",
    "DEFAULT_NA_TOKENS",
    "GroundTruth",
    "MechanismKind",
    "MechanismSpec",
    "MissgraphError",
    "MissingnessArc",
    "MnarFinding",
    "NumericError",
    "ParseError",
    "PooledEdgeTable",
    "PrecisionFit",
    "ProfileRow",
    "SchemaError",
    "TransformedMatrix",
    "UnimputableColumnError",
    "VarKind",
    "VariableMeta",
    "analyze_dataset",
    "ar1_precision",
    "correlation_matrix",
    "desparsify",
    "detect_mnar",
    "duality_gap",
    "edge_p_values",
    "export_graph",
    "extract_missingness_arcs",
    "fisher_pool",
    "fit_precision",
    "generate_gaussian",
    "glasso_fit",
    "hot_deck_draws",
    "hot_deck_impute",
    "indicator_name",
    "kkt_certificate",
    "load_schema",
    "make_completeness_indicators",
    "missing_profile",
    "nonparanormal_transform",
    "parse_csv",
    "partial_correlations",
    "pool_partial_correlations",
    "run_analysis",
    "run_benchmark",
    "select_lambda_ric",
    "simulate_dataset",
    "split_seed",
    "winsorization_bound",
    "write_csv",
]
