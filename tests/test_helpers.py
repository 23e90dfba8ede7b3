"""The shared test references are right: ``expand_to_records`` inverts estimation exactly."""

import math

import numpy as np
import pytest

from helpers import expand_to_records, worked_model
from medsens.errors import BadParameter
from medsens.tables import ConditionalModel, estimate_from_records


class TestExpandRoundtrip:
    def test_worked_model_roundtrips_exactly(self):
        model = worked_model()
        records = expand_to_records(model, 400)
        back = estimate_from_records(records)
        for a in (0, 1):
            for m in (0, 1):
                assert math.isclose(model.w[0, a, m], back.w[0, a, m], abs_tol=1e-12)
                assert math.isclose(model.y[0, a, m], back.y[0, a, m], abs_tol=1e-12)

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
            model = ConditionalModel(y=[y_prob], w=[m_prob])
            back = estimate_from_records(expand_to_records(model, denom))
            for a in (0, 1):
                for m in (0, 1):
                    assert math.isclose(model.y[0, a, m], back.y[0, a, m], abs_tol=1e-12)
                    assert math.isclose(model.w[0, a, m], back.w[0, a, m], abs_tol=1e-12)

    def test_non_integral_cells_rejected(self):
        with pytest.raises(BadParameter):
            expand_to_records(worked_model(), 7)
