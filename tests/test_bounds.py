import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plain_bounds, stratum_effects
from medsens.bounds import (
    BOUND_STATS,
    EFFECT_STATS,
    CornfieldThresholds,
    SensitivitySpec,
    adjust,
    bound_report,
    bounding_factor,
    cornfield_rd,
    cornfield_rr,
    required_partner,
    stratum_envelopes,
)
from medsens.errors import BadParameter, BadTarget, Infeasible, ZeroDenominator
from medsens.tables import ConditionalModel, crossworld_sums

params = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


def worked_model():
    return ConditionalModel(
        y=[[[0.2, 0.5], [0.4, 0.8]], [[0.1, 0.3], [0.2, 0.6]]],
        w=[[[0.75, 0.25], [0.25, 0.75]], [[0.5, 0.5], [0.4, 0.6]]],
    )


def worked_sums():
    """(n10, n00, n11) of stratum 0 of the worked model."""
    return [float(s) for s in crossworld_sums(worked_model().y[0], worked_model().w[0])]


class TestBoundingFactor:
    def test_point_values(self):
        assert bounding_factor(SensitivitySpec(2, 3)) == 1.5
        assert math.isclose(bounding_factor(SensitivitySpec(1.4, 8.933)), 1.34, abs_tol=1e-3)

    @given(params)
    def test_unit_parameter_gives_unit_factor(self, x):
        assert bounding_factor(SensitivitySpec(1.0, x)) == 1.0
        assert bounding_factor(SensitivitySpec(x, 1.0)) == 1.0

    def test_infinite_parameter_gives_the_other(self):
        assert bounding_factor(SensitivitySpec(math.inf, 3.5)) == 3.5
        assert bounding_factor(SensitivitySpec(3.5, math.inf)) == 3.5
        assert bounding_factor(SensitivitySpec(math.inf, math.inf)) == math.inf

    @given(params, params)
    def test_symmetry(self, x, y):
        assert bounding_factor(SensitivitySpec(x, y)) == bounding_factor(SensitivitySpec(y, x))

    @given(params, params, st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_each_argument(self, x, y, bump):
        base = bounding_factor(SensitivitySpec(x, y))
        assert bounding_factor(SensitivitySpec(x + bump, y)) >= base - 1e-12 * base
        assert bounding_factor(SensitivitySpec(x, y + bump)) >= base - 1e-12 * base

    @given(params, params)
    def test_capped_by_smaller_parameter(self, x, y):
        bf = bounding_factor(SensitivitySpec(x, y))
        assert bf <= min(x, y) * (1 + 1e-12)
        if min(x, y) > 1.001:
            # equality only with a unit parameter or an infinite partner
            assert bf < min(x, y)

    @pytest.mark.parametrize("x, y, expected", [
        (1e300, 1e300, 5e299),
        (1e200, 1e200, 5e199),
        (1.7976931348623157e308, 2.0, 2.0),
        (2.0, 1.7976931348623157e308, 2.0),
        (1e308, 1e308, 5e307),
    ])
    def test_huge_parameters_do_not_overflow(self, x, y, expected):
        # the product x * y (and for 1e308 the sum) is not finite; the warning is an error here
        assert bounding_factor(SensitivitySpec(x, y)) == expected

    def test_huge_parameters_keep_symmetry_and_the_cap(self):
        # every product overflows, so every value comes from the overflow-safe form
        x = 10.0 ** np.random.default_rng(3).uniform(155.0, 308.0, 2000)
        y = 10.0 ** np.random.default_rng(4).uniform(309.0 - np.log10(x), 308.0)
        bf = bounding_factor(SensitivitySpec(x, y))
        assert (bf == bounding_factor(SensitivitySpec(y, x))).all()
        assert (bf <= np.minimum(x, y)).all()

    def test_huge_parameters_in_an_array(self):
        values = np.array([2.0, 1e300, 1e308]), np.array([3.0, 1e300, 1e308])
        bf = bounding_factor(SensitivitySpec(*values))
        assert bf.tolist() == [1.5, 5e299, 5e307]

    def test_far_apart_parameters_keep_the_cap(self):
        # the product form rounds one ulp above the smaller parameter for this pair
        assert bounding_factor(SensitivitySpec(5.035990038302004e106, 2.047852368294429e40)) \
            == 2.047852368294429e40
        rng = np.random.default_rng(17)
        x = 10.0 ** rng.uniform(100.0, 150.0, 100_000)
        y = 10.0 ** rng.uniform(0.0, 100.0, 100_000)
        bf = bounding_factor(SensitivitySpec(x, y))
        assert (bf <= y).all()
        assert (bf == bounding_factor(SensitivitySpec(y, x))).all()

    def test_rejects_bad_parameters(self):
        for bad in (0.5, -2.0, math.nan):
            with pytest.raises(BadParameter):
                SensitivitySpec(bad, 2.0)

    def test_array_specs_compare_and_hash(self):
        # compared by identity, as Scm and RecordTable are: field-wise == of arrays is no bool
        spec = SensitivitySpec([1.5, 2.0], 3.0)
        assert (spec == SensitivitySpec([1.5, 2.0], 3.0)) is False
        assert (spec == spec) is True
        assert hash(spec) == hash(spec)


def spec_for(bf: float) -> SensitivitySpec:
    """A spec whose bounding factor is exactly ``bf``: an infinite partner gives the other."""
    return SensitivitySpec(math.inf, bf)


def worked_effects() -> dict:
    """The sums of stratum 0 of the worked model, the inputs of the difference-scale bounds."""
    return dict(zip(("n10", "n00", "n11"), worked_sums()))


class TestAdjust:
    def test_unit_factor_is_identity(self):
        out = adjust({"nde_rr": 1.72, "nie_rr": 1.03}, spec_for(1.0))
        assert out == {"bf": 1.0, "nde_rr_lower": 1.72, "nie_rr_upper": 1.03}

    def test_point_values(self):
        out = adjust({"nde_rr": 1.72, "nie_rr": 1.4}, SensitivitySpec(2, 3))
        assert out["bf"] == 1.5
        assert math.isclose(out["nde_rr_lower"], 1.146667, abs_tol=5e-7)
        assert out["nie_rr_upper"] == 1.4 * 1.5

    def test_interval_endpoints_divide_elementwise(self):
        lo, hi = adjust({"nde_rr": np.array([1.34, 2.21])}, spec_for(1.2))["nde_rr_lower"]
        assert math.isclose(lo, 1.116667, abs_tol=5e-7)
        assert math.isclose(hi, 1.841667, abs_tol=5e-7)

    def test_bounds_follow_the_effects_given(self):
        spec = SensitivitySpec(2.0, 3.0)
        assert list(adjust({"nie_rr": 1.3}, spec)) == ["bf", "nie_rr_upper"]
        assert list(adjust(worked_effects(), spec)) == ["bf", "nde_rd_lower", "nie_rd_upper"]
        model = worked_model()
        assert list(adjust(bound_report(model.y, model.w), spec)) == ["bf", *BOUND_STATS]

    def test_overflowing_indirect_upper_bound_is_inf(self):
        # nie_rr * bf passes the float range; +inf is still an upper bound, and no warning
        # is raised (warnings are errors here)
        assert adjust({"nie_rr": 1e300}, SensitivitySpec(1e300, 1e20))["nie_rr_upper"] == math.inf

    def test_rejects_nonpositive_effect(self):
        with pytest.raises(BadParameter, match=r"^observed nde_rr must be positive, got 0\.0 in"):
            adjust({"nde_rr": 0.0}, SensitivitySpec(2.0, 3.0))
        # the first bad entry of a stratum array is named with its stratum, not the array
        with pytest.raises(BadParameter,
                           match=r"^observed nde_rr must be positive, got 0\.0 in stratum c=1$"):
            adjust({"nde_rr": np.array([1.2, 0.0, 1.5])}, SensitivitySpec(2.0, 3.0))
        # n11 = 0, so nie_rr = 0, and at bf = inf its bound would be 0 * inf = NaN
        model = ConditionalModel(y=[[[0.2, 0.4], [0.0, 0.5]]], w=[[[0.5, 0.5], [1.0, 0.0]]])
        effects = bound_report(model.y, model.w)
        assert effects["n11"] == 0.0
        with pytest.raises(BadParameter,
                           match=r"^observed nie_rr must be positive, got 0\.0 in stratum c=0$"):
            adjust(effects, SensitivitySpec(math.inf, math.inf))


class TestRdBounds:
    def test_unit_factor_recovers_observed(self):
        out = adjust(worked_effects(), spec_for(1.0))
        e = stratum_effects(worked_model(), 0)
        assert math.isclose(out["nde_rd_lower"], e["nde_rd"], abs_tol=1e-15)
        assert math.isclose(out["nie_rd_upper"], e["nie_rd"], abs_tol=1e-15)

    def test_hand_value(self):
        out = adjust(worked_effects(), spec_for(1.25))
        assert math.isclose(out["nde_rd_lower"], 0.4 - 0.275, abs_tol=1e-12)
        assert math.isclose(out["nie_rd_upper"], 0.7 - 0.4, abs_tol=1e-12)

    def test_infinite_factor_limit(self):
        out = adjust(worked_effects(), SensitivitySpec(math.inf, math.inf))
        assert math.isclose(out["nde_rd_lower"], -0.275, abs_tol=1e-15)
        assert math.isclose(out["nie_rd_upper"], 0.7, abs_tol=1e-15)

    @given(st.floats(min_value=1.0, max_value=50.0))
    def test_complementarity_matches_total_effect(self, bf):
        out = adjust(worked_effects(), spec_for(bf))
        e = stratum_effects(worked_model(), 0)
        assert math.isclose(out["nde_rd_lower"] + out["nie_rd_upper"], e["te_rd"], abs_tol=1e-12)


class TestCornfieldRr:
    def test_explains_away_point_estimate(self):
        th = cornfield_rr(1.72, 1.0)
        assert th.both_must_exceed == 1.72
        assert math.isclose(th.max_must_exceed, 1.72 + math.sqrt(1.72 * 0.72), rel_tol=1e-15)

    def test_lower_confidence_limit(self):
        th = cornfield_rr(1.34, 1.0)
        assert th.both_must_exceed == 1.34
        assert math.isclose(th.max_must_exceed, 1.34 + math.sqrt(1.34 * 0.34), rel_tol=1e-15)

    def test_nothing_to_explain(self):
        assert cornfield_rr(1.5, 1.5) == CornfieldThresholds(1.0, 1.0)
        assert cornfield_rr(1.2, 2.0) == CornfieldThresholds(1.0, 1.0)

    def test_rejects_bad_target(self):
        with pytest.raises(BadTarget):
            cornfield_rr(1.5, 0.0)
        with pytest.raises(BadTarget):
            cornfield_rr(1.5, -1.0)
        with pytest.raises(BadTarget):
            cornfield_rr(1.5, math.nan)

    @pytest.mark.parametrize("value", [np.int64(2), np.float32(1.5), Fraction(3, 2)],
                             ids=["int64", "float32", "Fraction"])
    def test_takes_any_real(self, value):
        assert cornfield_rr(value) == cornfield_rr(float(value))
        assert cornfield_rr(1.72, value) == cornfield_rr(1.72, float(value))

    @pytest.mark.parametrize("observed", [math.nan, 0.0, -1.5])
    def test_rejects_bad_observed_effect(self, observed):
        with pytest.raises(BadParameter, match="observed effect"):
            cornfield_rr(observed)

    def test_thresholds_keep_their_order(self):
        with pytest.raises(BadParameter, match="ordering"):
            CornfieldThresholds(2.0, 1.0)

    def test_huge_ratios_keep_a_finite_threshold(self):
        # r * (r - 1) is not finite, but the threshold r + sqrt(r) sqrt(r - 1) is
        assert cornfield_rr(1e200).max_must_exceed == 2e200
        th = cornfield_rd(np.array([0.5e200, 1.5]), np.array([0.5, 1e-320]), 0.0)
        assert th.max_must_exceed.tolist() == [2e200, math.inf]  # 1e200, and an overflowed ratio
        # 2e308 is past the float range
        assert cornfield_rr(1e308).max_must_exceed == math.inf

    @settings(max_examples=1000)
    @given(st.floats(min_value=1.0 + 1e-9, max_value=100.0))
    def test_threshold_solves_the_symmetric_equation(self, r):
        # the max threshold t satisfies bf(t, t) = r
        t = cornfield_rr(r, 1.0).max_must_exceed
        assert math.isclose(bounding_factor(SensitivitySpec(t, t)), r, rel_tol=1e-9)


class TestCornfieldRd:
    def test_null_target_matches_ratio_scale(self):
        n10, n00, _ = worked_sums()
        rd = cornfield_rd(n10, n00, 0.0)
        rr = cornfield_rr(0.5 / 0.275, 1.0)
        assert math.isclose(rd.both_must_exceed, rr.both_must_exceed, rel_tol=1e-12)
        assert math.isclose(rd.max_must_exceed, rr.max_must_exceed, rel_tol=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
    def test_null_target_is_the_ratio_scale_bit_for_bit(self, n10, n00):
        # n10 / (0.0 + n00) is n10 / n00, so one result serves both scales at the null
        assert cornfield_rd(n10, n00, 0.0) == cornfield_rr(n10 / n00)

    def test_observed_target_needs_no_confounding(self):
        n10, n00, _ = worked_sums()
        nde_rd = stratum_effects(worked_model(), 0)["nde_rd"]
        assert cornfield_rd(n10, n00, nde_rd) == CornfieldThresholds(1.0, 1.0)

    def test_hand_value(self):
        n10, n00, _ = worked_sums()
        th = cornfield_rd(n10, n00, 0.125)
        assert math.isclose(th.both_must_exceed, 1.25, rel_tol=1e-12)
        assert math.isclose(th.max_must_exceed, 1.809017, abs_tol=5e-7)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            cornfield_rd(*worked_sums()[:2], -0.275)
        with pytest.raises(ZeroDenominator, match=re.escape(
                "stratum c=1: target -0.2 plus pr(Y=1|a=0) = 0.1 is not positive")):
            cornfield_rd(np.array([0.5, 0.5, 0.5]), np.array([0.3, 0.1, 0.2]), -0.2)

    @pytest.mark.parametrize("n10, n00, target, match", [
        (math.nan, 0.2, 0.0, "must be real numbers"),
        (0.5, math.nan, 0.0, "must be real numbers"),
        (math.inf, 0.2, math.inf, "give no real ratio"),  # inf / inf
        (math.inf, math.inf, 0.0, "give no real ratio"),  # cornfield_rr(inf, inf)
        (1.0, math.inf, -math.inf, "give no real ratio"),  # a denominator of inf - inf
    ], ids=["n10", "n00", "inf-target", "inf-over-inf", "inf-minus-inf"])
    def test_nan_sum_rejected(self, n10, n00, target, match):
        # NaN fails both ordering comparisons, so it would pass as thresholds (nan, nan)
        with pytest.raises(BadParameter, match=match):
            cornfield_rd(n10, n00, target)
        with pytest.raises(BadParameter, match=rf"^stratum c=2: n10 = .* {match}"):
            cornfield_rd(np.array([0.5, 0.4, n10]), np.array([0.2, 0.3, n00]),
                         np.array([0.0, 0.0, target]))
        if n10 == n00 == math.inf:  # the ratio scale forms the same ratio, obs / (0.0 + true)
            with pytest.raises(BadParameter, match=match):
                cornfield_rr(n10, n00)

    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        # ratios below 1, at 1 and above it, and 1.5 / 1e-320, which overflows to inf
        n10 = np.array([0.2, 0.3, 0.5, 0.5, 1.5])
        n00 = np.array([0.4, 0.3, 0.275, 0.2, 1e-320])
        for target in (0.0, 0.125, np.array([0.0, 0.1, -0.05, 0.0, 0.0])):
            th = cornfield_rd(n10, n00, target)
            for c, t in enumerate(np.broadcast_to(target, n10.shape).tolist()):
                one = cornfield_rd(float(n10[c]), float(n00[c]), t)
                assert th.both_must_exceed[c] == one.both_must_exceed
                assert th.max_must_exceed[c] == one.max_must_exceed
                # the scalar form of the formula, in Python floats
                r = float(n10[c]) / (t + float(n00[c]))
                assert (one.both_must_exceed, one.max_must_exceed) == (
                    (r, r + math.sqrt(r * (r - 1.0))) if r > 1.0 else (1.0, 1.0))
        assert math.isinf(th.max_must_exceed[-1])
        # the ratio scale is the null target of the same formula
        for obs, true in zip(n10.tolist(), n00.tolist()):
            assert cornfield_rr(obs, true) == cornfield_rd(obs, true, 0.0)


class TestRequiredPartner:
    def test_reproduces_lower_limit_solve(self):
        assert math.isclose(required_partner(1.40, 1.34), 8.93, abs_tol=5e-3)

    def test_unit_target(self):
        assert required_partner(1.0, 1.0) == 1.0
        assert required_partner(7.3, 1.0) == 1.0

    def test_capped_fixed_parameter_is_infeasible(self):
        with pytest.raises(Infeasible):
            required_partner(1.40, 1.72)
        with pytest.raises(Infeasible):
            required_partner(1.72, 1.72)

    def test_infinite_fixed_parameter(self):
        assert required_partner(math.inf, 2.5) == 2.5

    @pytest.mark.parametrize("fixed, target, expected", [
        (1e155, 1e154, 1.1111111111111111e154),
        (1e308, 5e307, 1e308),
    ])
    def test_huge_parameters_do_not_overflow(self, fixed, target, expected):
        # target * (fixed - 1) is not finite; the warning is an error here
        assert required_partner(fixed, target) == expected

    def test_solve_is_within_a_few_ulps(self):
        # not exact: bf(1.40, required_partner(1.40, 1.34)) is 1.3399999999999999
        rng = np.random.default_rng(5)
        target = rng.uniform(1.0, 1e3, 200_000)
        fixed = target * 10.0 ** rng.uniform(1e-9, 3.0, target.size)
        # the overflow form; a fixed parameter of at least twice the target keeps the
        # partner, at most twice the target, in the float range
        huge = 10.0 ** rng.uniform(155.0, 307.0, 200_000)
        huge_fixed = huge * 10.0 ** rng.uniform(np.log10(2.0), 308.0 - np.log10(huge))
        for fixed, target, ulps in ((fixed, target, 4), (huge_fixed, huge, 2)):
            bf = bounding_factor(SensitivitySpec(fixed, required_partner(fixed, target)))
            assert (np.abs(bf - target) <= ulps * np.spacing(target)).all()

    def test_arrays_equal_the_scalar_calls(self):
        # the unit targets, an infinite fixed parameter, then random feasible pairs
        rng = np.random.default_rng(11)
        target = np.concatenate([[1.0, 1.0, 3.0], rng.uniform(1.0, 50.0, 200)])
        fixed = np.concatenate([[1.0, 7.3, math.inf], target[3:] * rng.uniform(1.001, 4.0, 200)])
        scalar = [required_partner(float(f), float(t)) for f, t in zip(fixed, target)]
        assert required_partner(fixed, target).tolist() == scalar
        # every fixed parameter here exceeds 1.001, so a (200, 1) by (2,) grid is feasible
        targets = (1.0, 1.0005)
        grid = required_partner(fixed[3:, None], targets)
        assert grid.tolist() == [[required_partner(f, t) for t in targets] for f in fixed[3:]]

    @pytest.mark.parametrize("fixed, target, named", [
        ([3.0, 1.5, 1.0], [2.0, 2.0, 1.0], "fixed parameter 1.5 caps the bounding factor below "
         "2.0; no finite partner exists (the fixed parameter itself must exceed the target) "
         "(entry [1])"),
        ([[3.0], [4.0]], [2.0, math.inf],
         "no finite bounding factor reaches an infinite target (entry [0, 1])"),
    ], ids=["capped", "infinite-target"])
    def test_first_infeasible_entry_is_named(self, fixed, target, named):
        with pytest.raises(Infeasible, match=f"^{re.escape(named)}$"):
            required_partner(fixed, target)

    @settings(max_examples=500)
    @given(
        st.floats(min_value=1.0 + 1e-6, max_value=1e3),
        st.floats(min_value=1.0 + 1e-9, max_value=1e3),
    )
    def test_inverse_consistency(self, fixed, target):
        try:
            partner = required_partner(fixed, target)
        except Infeasible:
            assert fixed <= target
            return
        bf = bounding_factor(SensitivitySpec(fixed, partner))
        assert math.isclose(bf, target, rel_tol=1e-9, abs_tol=1e-9)

    def test_thousand_random_ratios_match_quadratic(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            r = float(rng.uniform(1.0 + 1e-9, 100.0))
            t = r + math.sqrt(r * (r - 1.0))
            assert math.isclose(bounding_factor(SensitivitySpec(t, t)), r, rel_tol=1e-9)


class TestReportAndEnvelopes:
    def test_report_fields_are_consistent(self):
        model = worked_model()
        rep = bound_report(model.y, model.w)
        rep.update(adjust(rep, SensitivitySpec(2.0, 3.0)))
        assert rep["bf"] == 1.5
        for c in range(model.c_card):
            obs = stratum_effects(model, c)
            assert [rep[name][c] for name in ("n10", "n00", "n11", *EFFECT_STATS)] == [
                obs[name] for name in ("n10", "n00", "n11", *EFFECT_STATS)]
            assert [rep[name][c] for name in BOUND_STATS] == list(plain_bounds(obs, 1.5).values())

    def test_without_spec_only_effects(self):
        model = worked_model()
        assert set(bound_report(model.y, model.w)) == {"n10", "n00", "n11", *EFFECT_STATS}

    def test_grid_by_strata_equals_scalar_path_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            strata, m_card = (int(v) for v in rng.integers(1, 5, size=2))
            w = rng.uniform(0.05, 1.0, (strata, 2, m_card))
            model = ConditionalModel(y=rng.uniform(0.05, 1.0, (strata, 2, m_card)),
                                     w=w / w.sum(axis=-1, keepdims=True))
            au, uy = rng.uniform(1.0, 30.0, (2, 12, 1))
            effects = bound_report(model.y, model.w)
            rep = adjust(effects, SensitivitySpec(au, uy))
            assert rep["nde_rr_lower"].shape == (12, strata)
            for g in range(12):
                bf = bounding_factor(SensitivitySpec(float(au[g, 0]), float(uy[g, 0])))
                assert rep["bf"][g, 0] == bf
                for c in range(strata):
                    want = plain_bounds(stratum_effects(model, c), bf)
                    assert [rep[name][g, c] for name in BOUND_STATS] == list(want.values())
            for c in range(strata):
                r = float(effects["n10"][c] / effects["n00"][c])
                expected = r + math.sqrt(r * (r - 1.0)) if r > 1.0 else 1.0
                th = cornfield_rd(float(effects["n10"][c]), float(effects["n00"][c]), 0.0)
                assert th.max_must_exceed == expected

    def test_zero_denominator_names_the_stratum(self):
        model = ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]], [[0.0, 0.0], [0.2, 0.6]]],
                                 w=[[[0.75, 0.25], [0.25, 0.75]], [[0.5, 0.5], [0.4, 0.6]]])
        with pytest.raises(ZeroDenominator, match="c=1"):
            bound_report(model.y, model.w)

    def test_envelopes_order_min_and_max(self):
        model = worked_model()
        rep = adjust(bound_report(model.y, model.w), SensitivitySpec(2.0, 2.0))
        env = stratum_envelopes(rep)
        lows, ups = rep["nde_rr_lower"].tolist(), rep["nie_rr_upper"].tolist()
        assert env["nde_rr_lower"] == {"heterogeneous": min(lows), "homogeneous": max(lows)}
        assert env["nie_rr_upper"] == {"heterogeneous": max(ups), "homogeneous": min(ups)}
