"""Quantum-like Bayesian network inference with an entropy-based interference degree.

Importing the package loads none of its modules, so each command compiles only
the ones it runs. The first lookup of a name the package does not hold yet
binds every public name below as a plain attribute, so later reads cost what
any module global costs, and an unknown name raises the usual AttributeError.
"""

_EXPORTS = {
    "bayesnet": (
        "Network", "Variable", "infer", "load_network", "network_from_dict",
    ),
    "belief": (
        "BeliefAssignment", "DiscreteDistribution", "deng_entropy", "shannon_entropy",
    ),
    "heuristic": (
        "BeliefDegree", "belief_degree", "belief_distance", "degree_for_query",
        "pair_degree", "weighable_magnitudes",
    ),
    "quantum": (
        "AmplitudeNetwork", "QuantumInferenceResult", "amplitudes_from_network",
        "completion_magnitudes", "interference_sum", "posterior", "quantum_infer",
    ),
    "scenarios": (
        "PredictionRecord", "Scenario", "fit_error", "load_builtin", "predict_unknown",
        "run_comparison", "run_reproduction", "scenario_to_network",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        source = import_module(f"{__name__}.{module}")
        namespace.update({attr: getattr(source, attr) for attr in names})
    namespace.pop("__getattr__", None)
    return getattr(import_module(__name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
