import math

import numpy as np
import pytest

from medsens.effects import observed_effects
from medsens.errors import BadCode, ZeroDenominator
from medsens.tables import ConditionalModel


def model_from(y0, y1, m0, m1, mode="probability"):
    return ConditionalModel(y=[[y0, y1]], w=[[m0, m1]], mode=mode)


def brute_effects(y0, y1, m0, m1):
    """Independent summation oracle for the four formulas."""
    n10 = sum(a * b for a, b in zip(y1, m0))
    n00 = sum(a * b for a, b in zip(y0, m0))
    n11 = sum(a * b for a, b in zip(y1, m1))
    return n10 / n00, n11 / n10, n10 - n00, n11 - n10


WORKED = dict(y0=(0.2, 0.5), y1=(0.4, 0.8), m0=(0.75, 0.25), m1=(0.25, 0.75))


class TestWorkedExample:
    def test_values(self):
        model = model_from(**WORKED)
        nde_rr, nie_rr, nde_rd, nie_rd = brute_effects(**WORKED)
        e = observed_effects(model, 0)
        assert math.isclose(e.nde_rr, 0.5 / 0.275, rel_tol=1e-12)
        assert math.isclose(e.nde_rr, nde_rr, rel_tol=1e-12)
        assert math.isclose(e.nie_rr, 1.4, rel_tol=1e-12)
        assert math.isclose(e.nie_rr, nie_rr, rel_tol=1e-12)
        assert math.isclose(e.nde_rd, 0.225, abs_tol=1e-12)
        assert math.isclose(e.nie_rd, 0.2, abs_tol=1e-12)
        assert math.isclose(e.nde_rd, nde_rd, abs_tol=1e-12)
        assert math.isclose(e.nie_rd, nie_rd, abs_tol=1e-12)

    def test_bundle_and_total(self):
        e = observed_effects(model_from(**WORKED), 0)
        assert math.isclose(e.te_rr, 0.7 / 0.275, rel_tol=1e-12)
        assert math.isclose(e.te_rr, e.nde_rr * e.nie_rr, rel_tol=1e-12)
        assert math.isclose(e.te_rd, e.nde_rd + e.nie_rd, abs_tol=1e-12)


class TestDegenerateAndNullCases:
    def test_no_direct_pathway(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.2, 0.5), m0=(0.75, 0.25), m1=(0.25, 0.75))
        e = observed_effects(model, 0)
        assert e.nde_rr == 1.0
        assert e.nde_rd == 0.0

    def test_no_exposure_mediator_association(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.4, 0.8), m0=(0.75, 0.25), m1=(0.75, 0.25))
        e = observed_effects(model, 0)
        assert e.nie_rr == 1.0
        assert e.nie_rd == 0.0

    def test_outcome_constant_in_mediator(self):
        model = model_from(y0=(0.2, 0.2), y1=(0.45, 0.45), m0=(0.75, 0.25), m1=(0.25, 0.75))
        e = observed_effects(model, 0)
        assert math.isclose(e.nie_rr, 1.0, rel_tol=1e-15)
        assert math.isclose(e.nie_rd, 0.0, abs_tol=1e-15)

    def test_degenerate_mediator_under_control(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.4, 0.8), m0=(0.0, 1.0), m1=(0.25, 0.75))
        e = observed_effects(model, 0)
        assert math.isclose(e.nde_rr, 0.8 / 0.5, rel_tol=1e-12)
        assert math.isclose(e.nde_rd, 0.3, abs_tol=1e-12)

    def test_null_model(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.2, 0.5), m0=(0.6, 0.4), m1=(0.6, 0.4))
        e = observed_effects(model, 0)
        assert (e.nde_rr, e.nie_rr, e.te_rr) == (1.0, 1.0, 1.0)
        assert (e.nde_rd, e.nie_rd, e.te_rd) == (0.0, 0.0, 0.0)

    def test_unknown_stratum_code(self):
        # a negative code must not wrap around to the last stratum
        model = model_from(**WORKED)
        for c in (-1, 1):
            with pytest.raises(BadCode):
                observed_effects(model, c)

    def test_zero_denominator(self):
        model = model_from(y0=(0.0, 0.0), y1=(0.4, 0.8), m0=(0.75, 0.25), m1=(0.25, 0.75))
        with pytest.raises(ZeroDenominator):
            observed_effects(model, 0)


def random_model(rng, m_card=2, mode="probability", y_max=1.0):
    def dist(n):
        raw = rng.uniform(1e-4, 1.0, n)
        return tuple(float(v / raw.sum()) for v in raw)

    y = tuple(tuple(float(v) for v in rng.uniform(1e-4, y_max, m_card)) for _ in (0, 1))
    return model_from(y[0], y[1], dist(m_card), dist(m_card), mode=mode)


class TestDecompositionProperty:
    def test_ten_thousand_random_models(self):
        rng = np.random.default_rng(11)
        for i in range(10_000):
            model = random_model(rng, m_card=2 if i % 2 else 3)
            e = observed_effects(model, 0)
            assert math.isclose(e.te_rr, e.nde_rr * e.nie_rr, rel_tol=1e-12)
            assert math.isclose(e.te_rd, e.nde_rd + e.nie_rd, abs_tol=1e-12)

    def test_mean_mode_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            model = random_model(rng, mode="mean", y_max=5.0)
            e = observed_effects(model, 0)
            assert math.isclose(e.te_rr, e.nde_rr * e.nie_rr, rel_tol=1e-12)
            assert math.isclose(e.te_rd, e.nde_rd + e.nie_rd, abs_tol=5e-12)


class TestRelabelingDuality:
    def test_swapped_codes_exchange_arm_roles(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            model = random_model(rng)
            y, w = model.stratum(0)
            swapped = ConditionalModel(model.y[:, ::-1], model.w[:, ::-1])
            # direct-effect formula with the roles of the arms exchanged
            num = sum(a * b for a, b in zip(y[0], w[1]))
            den = sum(a * b for a, b in zip(y[1], w[1]))
            assert math.isclose(observed_effects(swapped, 0).nde_rr, num / den, rel_tol=1e-12)
            assert math.isclose(
                observed_effects(swapped, 0).te_rr,
                1.0 / observed_effects(model, 0).te_rr,
                rel_tol=1e-12,
            )
