"""Personalized federated learning via Q-aggregation of kernel mean embeddings.

Each agent summarizes its local distribution as a kernel mean embedding
(random Fourier features or an exact second-order summary), a penalized
quadratic program on the simplex turns the embedding distances into
collaboration weights, and a weighted empirical risk minimizer produces the
personalized model.  :mod:`fedkme.fedsim` ties the steps into a simulated
protocol with a communication ledger; :mod:`fedkme.cli` reproduces the
synthetic concept-shift and covariate-shift experiments.
"""

from .data import AgentDataset, audit_raw_access
from .datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    CsvSchema,
    concept_shift_test_sets,
    covariate_shift_test_sets,
    gen_concept_shift,
    gen_covariate_shift,
    load_csv,
    write_csv,
)
from .embedding import (
    Embedding,
    LocalFeatureSet,
    embed,
    kme_inner,
    local_features,
    mmd2,
    mmd2_mixture,
    poly2_lift,
    poly2_population_embedding,
    q_stat,
    trace_cov_hat,
)
from .fedsim import (
    CommLedger,
    ProtocolConfig,
    ProtocolResult,
    baseline_weights,
    fit_model,
    run_protocol,
    run_protocol_all,
)
from .kernels import (
    KernelSpec,
    concept_shift_kernel,
    eval_kernel,
    gaussian_kernel,
    gram_matrix,
    isotropic_gaussian_kernel,
    kernel_bound,
    poly2_kernel,
    spectral_distribution,
)
from .models import FittedModel, ModelSpec, evaluate, fedavg, fit_weighted, weighted_objective
from .qagg import (
    QaggConfig,
    QaggProblem,
    SimplexWeights,
    build_problem,
    default_config,
    learn_weights,
    ones_config,
    operator_norm,
    optimize,
    theory_config,
    weights_matrix,
)
from .rff import RffParams, featurize, featurize_matrix, sample_rff

__version__ = "0.1.0"

__all__ = [
    "AgentDataset",
    "CommLedger",
    "ConceptShiftSpec",
    "CovariateShiftSpec",
    "CsvSchema",
    "Embedding",
    "FittedModel",
    "KernelSpec",
    "LocalFeatureSet",
    "ModelSpec",
    "ProtocolConfig",
    "ProtocolResult",
    "QaggConfig",
    "QaggProblem",
    "RffParams",
    "SimplexWeights",
    "audit_raw_access",
    "baseline_weights",
    "build_problem",
    "concept_shift_kernel",
    "concept_shift_test_sets",
    "covariate_shift_test_sets",
    "default_config",
    "embed",
    "eval_kernel",
    "evaluate",
    "fedavg",
    "featurize",
    "featurize_matrix",
    "fit_model",
    "fit_weighted",
    "gaussian_kernel",
    "gen_concept_shift",
    "gen_covariate_shift",
    "gram_matrix",
    "isotropic_gaussian_kernel",
    "kernel_bound",
    "kme_inner",
    "learn_weights",
    "load_csv",
    "local_features",
    "mmd2",
    "mmd2_mixture",
    "ones_config",
    "operator_norm",
    "optimize",
    "poly2_kernel",
    "poly2_lift",
    "poly2_population_embedding",
    "q_stat",
    "run_protocol",
    "run_protocol_all",
    "sample_rff",
    "spectral_distribution",
    "theory_config",
    "trace_cov_hat",
    "weighted_objective",
    "weights_matrix",
    "write_csv",
]
