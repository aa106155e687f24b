"""Stochastic threshold classifiers for confusion-matrix measures.

Core pieces: a registry of monotone confusion-matrix measures, exact
threshold sweeps (stochastic and deterministic) with a brute-force oracle
twin, closed-form population optima, k-NN regression scores with canonical
tie handling, finite-sample error/regret bounds, and deterministic
experiment pipelines with CSV output.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateFeatureError,
    DegenerateInputError,
    DomainError,
    ParameterDomainError,
    ParseError,
    RegimeError,
    SchemaError,
    ShapeError,
    SizeError,
    StochthreshError,
    UnsupportedSpecError,
)
from .metrics import (
    CmmSpec,
    ConfusionMatrix,
    REGISTERED_KINDS,
    RocCurve,
    check_cmm_monotonicity,
    evaluate_cmm,
    representative_specs,
    roc_and_auroc,
)
from .classify import (
    Piece,
    RegressionFunctionSpec,
    StochasticThreshold,
    empirical_confusion,
    population_confusion_parts,
)
from .threshold_opt import (
    ThresholdSearchResult,
    brute_force_threshold,
    optimize_population_threshold,
    optimize_threshold,
    optimize_threshold_deterministic,
)
from .knn import (
    KnnModel,
    K_RULES,
    average_error,
    select_k,
    uniform_error,
)
from .synth import (
    SyntheticProblem,
    constant_problem,
    exp1_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
    singleton_problem,
)
from .bounds import (
    BoundInputs,
    UniformErrorBound,
    cmm_lipschitz_constant,
    estimation_error_bound,
    regret_bound,
    shattering_bound,
    uniform_error_bound,
)
from .io import (
    LabeledDataset,
    SplitSpec,
    ZScoreTransform,
    load_csv,
    save_csv,
    split,
    write_results_csv,
    zscore,
)
from .experiments import (
    ExperimentConfig,
    default_n_grid,
    run_experiment1,
    run_experiment2,
    run_fraud_pipeline,
    trial_seed_sequence,
)

__all__ = [
    "__version__",
    # errors
    "StochthreshError", "ParameterDomainError", "DegenerateInputError",
    "DegenerateFeatureError", "UnsupportedSpecError", "RegimeError",
    "DomainError", "SchemaError", "ParseError", "SizeError", "ShapeError",
    # metrics
    "ConfusionMatrix", "CmmSpec", "RocCurve", "REGISTERED_KINDS",
    "representative_specs", "evaluate_cmm", "check_cmm_monotonicity",
    "roc_and_auroc",
    # classify
    "StochasticThreshold", "Piece", "RegressionFunctionSpec", "empirical_confusion",
    "population_confusion_parts",
    # threshold_opt
    "ThresholdSearchResult", "optimize_threshold", "brute_force_threshold",
    "optimize_threshold_deterministic", "optimize_population_threshold",
    # knn
    "KnnModel", "K_RULES", "select_k",
    "uniform_error", "average_error",
    # synth
    "SyntheticProblem", "exp1_problem", "exp2_uci_problem",
    "exp2_nonuci_problem", "singleton_problem", "constant_problem",
    "generate",
    # bounds
    "BoundInputs", "UniformErrorBound", "shattering_bound",
    "uniform_error_bound", "estimation_error_bound", "regret_bound",
    "cmm_lipschitz_constant",
    # io
    "LabeledDataset", "ZScoreTransform", "SplitSpec", "load_csv", "save_csv",
    "zscore", "split", "write_results_csv",
    # experiments
    "ExperimentConfig", "default_n_grid", "trial_seed_sequence",
    "run_experiment1", "run_experiment2", "run_fraud_pipeline",
]
