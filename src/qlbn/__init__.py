"""Quantum-like Bayesian network inference with an entropy-based interference degree."""

from .bayesnet import (
    Network,
    Variable,
    full_joint,
    infer,
    load_network,
    network_from_dict,
)
from .belief import (
    BeliefAssignment,
    DiscreteDistribution,
    Frame,
    deng_entropy,
    shannon_entropy,
    validate_bba,
)
from .heuristic import (
    BeliefDegree,
    OutcomeVectorPair,
    belief_degree,
    belief_distance,
    degree_for_query,
    extract_outcome_vectors,
)
from .quantum import (
    AmplitudeNetwork,
    QuantumInferenceResult,
    amplitudes_from_network,
    interference_sum,
    quantum_infer,
)
from .scenarios import (
    ComparisonReport,
    PredictionRecord,
    Scenario,
    fit_error,
    load_builtin,
    predict_unknown,
    run_comparison,
    run_reproduction,
    scenario_to_network,
)

__version__ = "0.1.0"
