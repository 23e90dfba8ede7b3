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
from medsens.errors import BadParameter

#: mutant name -> (module, function) that the mutant scales by 0.99
SCALED = {
    "bounding_factor": (bounds, "bounding_factor"),
    "rr_uy": (oracle, "rr_uy"),
    "rr_au_posterior": (oracle, "rr_au_posterior"),
}


@pytest.mark.parametrize("module, name", SCALED.values(), ids=list(SCALED))
def test_ratio_battery_kills_a_scaled_parameter(module, name, monkeypatch):
    real = getattr(module, name)
    # floored at 1, as every sensitivity parameter and bf is
    monkeypatch.setattr(module, name, lambda arg: np.maximum(1.0, 0.99 * real(arg)))
    # sharpness_search raises on all three; stubbed, the report shows the ratio battery's kills
    monkeypatch.setattr(oracle, "sharpness_search",
                        lambda seed, iterations: oracle.SharpnessReport(seed, iterations, 0, {}))
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
