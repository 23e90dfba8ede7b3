"""The shared test references are right: ``expand_to_records`` inverts estimation exactly."""

import math

import numpy as np
import pytest

from helpers import expand_to_records, observed_tables, worked_model
from medsens.errors import BadParameter
from medsens.tables import estimate_from_records


class TestExpandRoundtrip:
    def test_worked_model_roundtrips_exactly(self):
        (y, w), (y_back, w_back) = worked_model(), estimate_from_records(
            expand_to_records(worked_model(), 400))
        for a in (0, 1):
            for m in (0, 1):
                assert math.isclose(w[0, a, m], w_back[0, a, m], abs_tol=1e-12)
                assert math.isclose(y[0, a, m], y_back[0, a, m], abs_tol=1e-12)

    def test_random_dyadic_models_roundtrip(self):
        rng = np.random.default_rng(3)
        denom = 1 << 16
        for _ in range(25):
            grid = 64
            m_prob = []
            y_prob = []
            for _a in (0, 1):
                cell = int(rng.integers(1, grid))
                m_prob.append((cell / grid, 1 - cell / grid))
                y_prob.append(tuple(int(rng.integers(1, grid)) / grid for _ in (0, 1)))
            y, w = observed_tables(y=[y_prob], w=[m_prob])
            y_back, w_back = estimate_from_records(expand_to_records((y, w), denom))
            for a in (0, 1):
                for m in (0, 1):
                    assert math.isclose(y[0, a, m], y_back[0, a, m], abs_tol=1e-12)
                    assert math.isclose(w[0, a, m], w_back[0, a, m], abs_tol=1e-12)

    def test_non_integral_cells_rejected(self):
        with pytest.raises(BadParameter):
            expand_to_records(worked_model(), 7)
