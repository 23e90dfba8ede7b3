"""The oracle's power, measured with mutants: each one breaks a formula on purpose.

A battery that stays green under a mutant cannot see that bug.  Each mutant
is applied by ``monkeypatch`` and must be killed, at a fixed seed and
budget, by the check that its test names.
"""

import math

import numpy as np
import pytest

from helpers import assert_cornfield_thresholds_attained
from medsens import bounds, oracle
from medsens.errors import BadParameter, InternalCheckError

#: mutant name -> (module, function) that the mutant scales by 0.99
SCALED = {
    "bounding_factor": (bounds, "bounding_factor"),
    "rr_uy": (oracle, "rr_uy"),
    "rr_au_posterior": (oracle, "rr_au_posterior"),
}


#: bound of ``bounds.adjust`` -> a wrong form of it from the effects and bf, bf on the wrong side
WRONG_BOUND = {
    "nde_rr_lower": lambda effects, bf: effects["nde_rr"] * bf,
    "nie_rr_upper": lambda effects, bf: effects["nie_rr"] / bf,
    "nde_rd_lower": lambda effects, bf: effects["n10"] * bf - effects["n00"],
    "nie_rd_upper": lambda effects, bf: effects["n11"] - effects["n10"] * bf,
}


def stub_sharpness(monkeypatch):
    """Stub sharpness_search, which raises on every mutant here, to see the other checks' kills."""
    monkeypatch.setattr(oracle, "sharpness_search",
                        lambda seed, iterations: oracle.SharpnessReport(seed, iterations, 0, {}))


def wrong_adjust(monkeypatch, bound):
    """``adjust`` as the oracle looks it up, with ``bound`` formed by its ``WRONG_BOUND``."""
    def adjust(effects, spec):
        out = bounds.adjust(effects, spec)
        out[bound] = WRONG_BOUND[bound](effects, out["bf"])
        return out

    monkeypatch.setattr(oracle, "adjust", adjust)


@pytest.mark.parametrize("module, name", SCALED.values(), ids=list(SCALED))
def test_ratio_battery_kills_a_scaled_parameter(module, name, monkeypatch):
    real = getattr(module, name)
    # floored at 1, as every sensitivity parameter and bf is
    monkeypatch.setattr(module, name, lambda arg: np.maximum(1.0, 0.99 * real(arg)))
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1, ratio_iterations=1000)
    assert result["ratio_bound_dominance"]["violations"] > 0


@pytest.mark.parametrize("bound", WRONG_BOUND)
def test_bound_validity_kills_a_wrong_bound(bound, monkeypatch):
    wrong_adjust(monkeypatch, bound)
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1000, ratio_iterations=1)
    assert result["bound_validity"]["violations"] > 0


def test_ratio_battery_and_sharpness_kill_a_wrong_direct_bound(monkeypatch):
    wrong_adjust(monkeypatch, "nde_rr_lower")
    with pytest.raises(InternalCheckError, match="nde_rr_lower_vs_true"):
        oracle.sharpness_search(seed=2, iterations=50)
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1, ratio_iterations=1000)
    assert result["ratio_bound_dominance"]["violations"] > 0


def test_cornfield_sharpness_kills_the_minus_root(monkeypatch):
    def minus_root(r):
        if r <= 1.0:
            return bounds.CornfieldThresholds(1.0, 1.0)
        return bounds.CornfieldThresholds(r, r - math.sqrt(r * (r - 1.0)))

    monkeypatch.setattr(bounds, "_thresholds_from_ratio", minus_root)
    # r - sqrt(r (r - 1)) is below r, and below 1, for every r > 1
    with pytest.raises(BadParameter, match="threshold ordering violated"):
        assert_cornfield_thresholds_attained(1.72, 1.0)
