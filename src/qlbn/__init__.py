"""Quantum-like Bayesian network inference with an entropy-based interference degree.

Importing the package loads none of its modules, so each command compiles only
the ones it runs. The first lookup of a public name below loads only the module
that defines it and binds that module's names as plain attributes, so later
reads cost what any module global costs. Any other name, a submodule's too,
raises the usual AttributeError and loads nothing.
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

    for module, names in _EXPORTS.items():
        if name in names:
            source = import_module(f"{__name__}.{module}")
            globals().update({attr: getattr(source, attr) for attr in names})
            return globals()[name]
    # An empty module of the same name words the error as Python does for any module.
    return getattr(import_module("types").ModuleType(__name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
