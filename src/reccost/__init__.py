"""reccost: verification and certification toolkit for the canonical
reciprocal cost J(x) = (x + 1/x)/2 - 1 and d'Alembert-type functional
equations.

Each name is imported from its submodule on first access (PEP 562), so
``import reccost`` loads no numpy.
"""

import importlib

_EXPORTS = {
    "calibration": ("BRANCH_CONSTANT_ONE", "BRANCH_COS", "BRANCH_COSH", "BRANCH_ZERO",
                    "BranchClassification", "classify", "estimate_kappa"),
    "core": ("AmGmDecomposition", "GoldenResult", "LOG_LINE", "LogForms", "POSITIVE_RATIOS",
             "am_gm_decomposition", "bregman_divergence", "canonical_cost",
             "golden_fixed_point", "log_forms", "validate_log_coord",
             "validate_positive_ratio"),
    "dalembert": ("DefectReport", "DefectSample", "IdentityViolations", "defect_log",
                  "defect_ratio", "identity_report", "ode_residual", "sup_defect"),
    "errors": ("ClassificationError", "DomainError", "InputError", "ParameterError",
               "PrecisionError", "PreconditionError", "RangeOverflowError", "ReccostError"),
    "fixtures": ("FAMILIES", "FamilySpec", "family_spec_text", "make_family",
                 "parse_family_spec", "perturb", "quadlog_defect_oracle"),
    "geometry": ("ChebyshevCheck", "DistanceResult", "chebyshev_cost", "chebyshev_sequence",
                 "distance", "local_equivalence_ratio", "metric_weight", "metric_weight_ratio"),
    "handles": ("FunctionHandle", "analytic", "lift_to_log", "sample_table", "to_ratio"),
    "stability": ("EnvelopeSpec", "StabilityCertificate", "StabilityInputs", "certify",
                  "certify_ratio", "delta_of_h", "estimate_bounds", "optimal_h"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value
