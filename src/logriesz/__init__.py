"""Numerical laboratory for log-perturbed Riesz convolutions and the
fourth-order existence/nonexistence regime they govern.

Each public name is imported from its module the first time it is used, so
`import logriesz` loads no submodule and no numpy."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ansatz": (
        "AnsatzParams", "PotentialTable", "VerificationReport",
        "biharmonic_closed_form", "lambda_star", "rhs_upper_bound", "source_eval",
        "source_profile", "u_eval", "u_upper_bound", "verify_supersolution", "w_eval",
    ),
    "bounds": (
        "BoundCheckReport", "BoundKind", "FitResult", "PredictedBound", "check_bound",
        "fit_asymptotics", "lower_bound_prediction", "upper_bound_prediction",
    ),
    "classifier": (
        "ExistenceCase", "ProblemParams", "RegimeDecision", "Side", "TableRowRecord",
        "UClass", "Verdict", "choose_case_params", "classify", "classify_pminus",
        "classify_pplus", "emit_regime_table", "thm2_clause", "thm3_clause",
    ),
    "convolution": (
        "ConvolutionResult", "RadialProfile", "angular_factor", "ball_profile",
        "colatitude_total", "convolve_radial", "detect_divergence", "eval_kernel",
        "newtonian_potential_radial", "power_profile", "unit_sphere_area",
    ),
    "errors": (
        "DegenerateSamples", "DivergentIntegral", "EmptyParameterInterval",
        "HypothesisViolated", "InvalidAlpha", "InvalidBeta", "InvalidDimension",
        "LabError", "MissingAsymptoticSpec", "NonpositiveRadius", "OutOfHypothesis",
        "ParameterError", "QuadratureFailure", "ScalingUndefined",
    ),
    "kernel": (
        "AsymptoticSpec", "KernelParams", "Regime", "approx_eq", "kernel_asymptotics",
    ),
    "probes": (
        "BumpProfile", "CertificateSeries", "ChainResult", "HarnackMass",
        "TestFunctionSpec", "divergence_certificate", "harnack_mass",
        "lower_bound_chain", "test_function_bound",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return __all__
