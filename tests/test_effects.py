import math
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import observed_tables, stratum_effects
from medsens.bounds import bound_report, effects_from_sums
from medsens.errors import ZeroDenominator


def model_from(y0, y1, m0, m1):
    return observed_tables(y=[[y0, y1]], w=[[m0, m1]])


def effects(model, mode="probability"):
    """The library's effects of every stratum of ``model``, checked bit for bit against the reference.

    The stratum of a one-stratum model is taken out, so each value is a float.
    """
    got = bound_report(*model, mode=mode)
    strata = len(model[0])
    for c in range(strata):
        assert {name: float(value[c]) for name, value in got.items()} == stratum_effects(model, c)
    return {name: value[0] for name, value in got.items()} if strata == 1 else got


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
        e = effects(model)
        assert math.isclose(e["nde_rr"], 0.5 / 0.275, rel_tol=1e-12)
        assert math.isclose(e["nde_rr"], nde_rr, rel_tol=1e-12)
        assert math.isclose(e["nie_rr"], 1.4, rel_tol=1e-12)
        assert math.isclose(e["nie_rr"], nie_rr, rel_tol=1e-12)
        assert math.isclose(e["nde_rd"], 0.225, abs_tol=1e-12)
        assert math.isclose(e["nie_rd"], 0.2, abs_tol=1e-12)
        assert math.isclose(e["nde_rd"], nde_rd, abs_tol=1e-12)
        assert math.isclose(e["nie_rd"], nie_rd, abs_tol=1e-12)

    def test_bundle_and_total(self):
        e = effects(model_from(**WORKED))
        assert math.isclose(e["te_rr"], 0.7 / 0.275, rel_tol=1e-12)
        assert math.isclose(e["te_rr"], e["nde_rr"] * e["nie_rr"], rel_tol=1e-12)
        assert math.isclose(e["te_rd"], e["nde_rd"] + e["nie_rd"], abs_tol=1e-12)


class TestDegenerateAndNullCases:
    def test_no_direct_pathway(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.2, 0.5), m0=(0.75, 0.25), m1=(0.25, 0.75))
        e = effects(model)
        assert e["nde_rr"] == 1.0
        assert e["nde_rd"] == 0.0

    def test_no_exposure_mediator_association(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.4, 0.8), m0=(0.75, 0.25), m1=(0.75, 0.25))
        e = effects(model)
        assert e["nie_rr"] == 1.0
        assert e["nie_rd"] == 0.0

    def test_outcome_constant_in_mediator(self):
        model = model_from(y0=(0.2, 0.2), y1=(0.45, 0.45), m0=(0.75, 0.25), m1=(0.25, 0.75))
        e = effects(model)
        assert math.isclose(e["nie_rr"], 1.0, rel_tol=1e-15)
        assert math.isclose(e["nie_rd"], 0.0, abs_tol=1e-15)

    def test_degenerate_mediator_under_control(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.4, 0.8), m0=(0.0, 1.0), m1=(0.25, 0.75))
        e = effects(model)
        assert math.isclose(e["nde_rr"], 0.8 / 0.5, rel_tol=1e-12)
        assert math.isclose(e["nde_rd"], 0.3, abs_tol=1e-12)

    def test_null_model(self):
        model = model_from(y0=(0.2, 0.5), y1=(0.2, 0.5), m0=(0.6, 0.4), m1=(0.6, 0.4))
        e = effects(model)
        assert (e["nde_rr"], e["nie_rr"], e["te_rr"]) == (1.0, 1.0, 1.0)
        assert (e["nde_rd"], e["nie_rd"], e["te_rd"]) == (0.0, 0.0, 0.0)

    def test_zero_denominator(self):
        model = model_from(y0=(0.0, 0.0), y1=(0.4, 0.8), m0=(0.75, 0.25), m1=(0.25, 0.75))
        with pytest.raises(ZeroDenominator) as reference:
            stratum_effects(model, 0)
        with pytest.raises(ZeroDenominator, match=f"^{re.escape(str(reference.value))}$"):
            bound_report(*model)

    @pytest.mark.parametrize("y0, y1, w0, message", [
        ((0.0, 0.0), (0.4, 0.8), (0.75, 0.25),
         "outcome marginal pr(Y=1|a=0) is 0 in stratum c=2"),
        ((0.3, 0.5), (0.0, 0.8), (1.0, 0.0),
         "cross-world outcome term for a=1, mediator under a=0, c=2 is 0"),
    ], ids=["n00", "n10"])
    def test_zero_denominator_names_the_one_stratum_that_has_it(self, y0, y1, w0, message):
        y = [[(0.2, 0.5), (0.4, 0.8)], [(0.3, 0.1), (0.6, 0.2)], [y0, y1]]
        w = [[(0.75, 0.25), (0.25, 0.75)], [(0.5, 0.5), (0.1, 0.9)], [w0, (0.25, 0.75)]]
        model = observed_tables(y=y, w=w)
        with pytest.raises(ZeroDenominator, match=f"^{re.escape(message)}$"):
            bound_report(*model)
        with pytest.raises(ZeroDenominator, match=f"^{re.escape(message)}$"):
            stratum_effects(model, 2)
        for c in (0, 1):
            stratum_effects(model, c)


def test_fraction_sums_give_exact_fractions():
    sums = [[Fraction(1, 3), Fraction(2, 7)], [Fraction(1, 5), Fraction(3, 11)],
            [Fraction(4, 9), Fraction(5, 13)]]
    n10, n00, n11 = (np.array(s, dtype=object) for s in sums)
    got = effects_from_sums(n10, n00, n11)
    for c in range(2):
        a, b, d = sums[0][c], sums[1][c], sums[2][c]
        want = {"n10": a, "n00": b, "n11": d, "nde_rr": a / b, "nie_rr": d / a,
                "te_rr": d / b, "nde_rd": a - b, "nie_rd": d - a, "te_rd": d - b}
        assert list(got) == list(want)
        for name, value in want.items():
            assert type(got[name][c]) is Fraction and got[name][c] == value, name


def test_fraction_tables_give_exact_fraction_effects():
    f = Fraction
    y = np.array([[[f(1, 5), f(1, 2)], [f(2, 5), f(4, 5)]]], dtype=object)
    w = np.array([[[f(3, 4), f(1, 4)], [f(1, 4), f(3, 4)]]], dtype=object)
    got = bound_report(y, w)
    n10, n00, n11 = f(1, 2), f(11, 40), f(7, 10)  # sum_m y(a,m) w(b,m) by hand
    want = {"n10": n10, "n00": n00, "n11": n11, "nde_rr": f(20, 11), "nie_rr": f(7, 5),
            "te_rr": f(28, 11), "nde_rd": f(9, 40), "nie_rd": f(1, 5), "te_rd": f(17, 40)}
    assert list(got) == list(want)
    for name, value in want.items():
        assert type(got[name][0]) is Fraction and got[name][0] == value, name


def random_model(rng, m_card=2, y_max=1.0):
    def dist(n):
        raw = rng.uniform(1e-4, 1.0, n)
        return tuple(float(v / raw.sum()) for v in raw)

    y = tuple(tuple(float(v) for v in rng.uniform(1e-4, y_max, m_card)) for _ in (0, 1))
    return model_from(y[0], y[1], dist(m_card), dist(m_card))


def stacked(models):
    """The one-stratum ``models``, all of one mediator cardinality, as the strata of one model."""
    return tuple(np.concatenate(tables) for tables in zip(*models))


def assert_decomposes(e, rd_tol):
    assert np.allclose(e["te_rr"], e["nde_rr"] * e["nie_rr"], rtol=1e-12, atol=0.0)
    assert np.allclose(e["te_rd"], e["nde_rd"] + e["nie_rd"], rtol=0.0, atol=rd_tol)


class TestDecompositionProperty:
    def test_ten_thousand_random_models(self):
        rng = np.random.default_rng(11)
        models = [random_model(rng, m_card=2 if i % 2 else 3) for i in range(10_000)]
        for m_card in (2, 3):  # all strata of one cardinality through one bound_report
            assert_decomposes(effects(stacked([m for m in models if m[0].shape[-1] == m_card])),
                              1e-12)

    def test_mean_mode_identities(self):
        rng = np.random.default_rng(12)
        models = [random_model(rng, y_max=5.0) for _ in range(500)]
        assert_decomposes(effects(stacked(models), mode="mean"), 5e-12)


class TestRelabelingDuality:
    def test_swapped_codes_exchange_arm_roles(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            model = random_model(rng)
            y, w = (table[0] for table in model)
            swapped = tuple(table[:, ::-1] for table in model)
            # direct-effect formula with the roles of the arms exchanged
            num = sum(a * b for a, b in zip(y[0], w[1]))
            den = sum(a * b for a, b in zip(y[1], w[1]))
            assert math.isclose(effects(swapped)["nde_rr"], num / den, rel_tol=1e-12)
            assert math.isclose(
                effects(swapped)["te_rr"],
                1.0 / effects(model)["te_rr"],
                rel_tol=1e-12,
            )
