"""Sensitivity bounds for natural direct and indirect effects.

Computes observed natural direct/indirect/total effects from categorical
mediation data, sharp bounds on the true effects under a hypothesized
unmeasured mediator-outcome confounder, and Cornfield-type thresholds for
explaining effects away; every bound is verified against a brute-force
distributional oracle.

One table, ``_PUBLIC``, names the whole public surface, each name under the
module that owns it, and ``__getattr__`` resolves every name from there.  The
oracle, log-linear and bootstrap layers are loaded on first use: their modules
are in ``sys.modules`` from the start, and their code runs on the first
attribute access, through the module or the package.
"""

import importlib.util
import sys

from . import bounds, errors, tables

__version__ = "0.1.0"

#: every public name, by the module that owns it, in the order of ``__all__``
_PUBLIC = {
    "bounds": (
        "CornfieldThresholds", "SensitivitySpec", "adjust", "bound_report", "bounding_factor",
        "cornfield_rd", "cornfield_rr", "effects_from_sums", "required_partner",
        "stratum_envelopes",
    ),
    "errors": (
        "BadCode", "BadParameter", "BadTarget", "DegenerateResample", "EmptyCell", "Infeasible",
        "InternalCheckError", "MedsensError", "NotNormalized", "OutOfRangeProbability",
        "ParseError", "UnreachableCell", "ZeroDenominator", "ZeroProbability",
    ),
    "tables": (
        "RecordTable", "crossworld_sums", "estimate_from_records", "read_records_csv",
    ),
    "bootstrap": ("BootstrapResult", "run_bootstrap"),
    "loglinear": ("LogLinearSpec", "collider_ratio_grid", "interaction_bound", "rr_au_loglinear"),
    "oracle": (
        "InequalityCheck", "Scm", "SharpnessReport", "ValidityReport", "observed_model",
        "recipe_scm", "rr_au_mediator_ratio", "rr_au_posterior", "rr_uy",
        "sample_ratio_instances", "sample_scm", "sharpness_search", "validity_battery",
        "verify_bounds",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_OWNER)


def _lazy_module(name: str):
    """Register ``medsens.<name>`` in ``sys.modules``; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bootstrap = _lazy_module("bootstrap")
loglinear = _lazy_module("loglinear")
oracle = _lazy_module("oracle")


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
