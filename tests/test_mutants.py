"""The oracle's power, measured with mutants: each one breaks a formula on purpose.

A battery that stays green under a mutant cannot see that bug.  Each mutant
is applied by ``monkeypatch`` and must be killed, at a fixed seed and
budget, by the check that its test names.
"""

from dataclasses import replace

import numpy as np
import pytest

import test_bootstrap
import test_bounds
import test_oracle
from helpers import assert_cornfield_thresholds_attained, enumerated_effects
from medsens import bootstrap, bounds, loglinear, oracle, tables
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


def rr_au_posterior_min(scm):
    """``rr_au_posterior`` with the minimum over the live mediator levels for the maximum."""
    ratios, live = oracle._posterior_ratios(scm)
    return np.where(live, ratios, np.inf).min(axis=-1)


def rr_uy_min(scm):
    """``rr_uy`` with the minimum over m of max_u/min_u pr(Y=1|1,m,u) for the maximum."""
    y1 = scm.y_given[..., 1, :, :]
    return (y1.max(axis=-1) / y1.min(axis=-1)).min(axis=-1)


def rr_uy_level_zero(scm):
    """``rr_uy`` with level u=0 of pr(Y=1|1,m,u) for the minimum over u."""
    y1 = scm.y_given[..., 1, :, :]
    return (y1.max(axis=-1) / y1[..., 0]).max(axis=-1)


#: oracle parameter -> the mutant taking the minimum over mediator levels for the maximum
MINIMUM = {"rr_au_posterior": rr_au_posterior_min, "rr_uy": rr_uy_min}


def overflows(rr_au, rr_uy):
    """Where ``bounding_factor`` takes its overflow form: the product or the sum is not finite."""
    with np.errstate(over="ignore"):
        return ~(np.isfinite(rr_au * rr_uy) & np.isfinite(rr_au + rr_uy - 1.0))


#: mutant name -> (factor, where): ``bounding_factor`` scaled by factor where(rr_au, rr_uy) holds
PARTIAL = {
    "rr_uy_above_rr_au": (0.999, lambda rr_au, rr_uy: rr_uy > rr_au),
    "rr_au_above_5": (0.9999, lambda rr_au, rr_uy: rr_au > 5.0),
    "overflow_form": (0.99, overflows),
    "too_large": (1.00001, lambda rr_au, rr_uy: True),
}


#: function of ``loglinear`` -> a mutant of the closed form it takes part in
CLOSED_FORM = {
    # the marginal intercept beta0 + K(beta3) drops K(beta3)
    "_cumulant_k": lambda t: 0.0,
    # the closed form evaluated with beta1 negated
    "rr_au_loglinear": lambda spec, real=loglinear.rr_au_loglinear: real(
        replace(spec, beta1=-spec.beta1)),
}


def stub_sharpness(monkeypatch):
    """Stub sharpness_search, which raises on every mutant here, to see the other checks' kills."""
    monkeypatch.setattr(oracle, "sharpness_search",
                        lambda seed, iterations: oracle.SharpnessReport(seed, iterations, 0, {}))


def partial_bf(monkeypatch, name, *modules):
    """``bounding_factor`` in ``bounds`` and ``modules`` as its ``PARTIAL`` mutant, floored at 1."""
    factor, where = PARTIAL[name]
    real = bounds.bounding_factor

    def bounding_factor(spec):
        bf = real(spec)
        return np.where(where(spec.rr_au, spec.rr_uy), np.maximum(1.0, factor * bf), bf)[()]

    for module in (bounds, *modules):
        monkeypatch.setattr(module, "bounding_factor", bounding_factor)


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


def test_dependent_bound_validity_kills_unexposed_sums_over_the_exposed_arm(monkeypatch):
    # the true effects among the unexposed averaged over pr(u|A=1) in place of pr(u|A=0)
    real = oracle._unexposed_sums
    monkeypatch.setattr(oracle, "_unexposed_sums", lambda scm: real(
        oracle.Scm(scm.u_given_a[..., [1, 1], :], scm.m_given, scm.y_given, mode=scm.mode)))
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1000, dependent_exposure=True,
                                     ratio_iterations=1)
    assert result["bound_validity"]["violations"] > 0


@pytest.mark.parametrize("name", MINIMUM)
def test_random_battery_kills_a_minimum_over_mediator_levels(name, monkeypatch):
    # the ratio battery's models have one mediator level, where the minimum is the maximum
    mutant = MINIMUM[name]
    monkeypatch.setattr(oracle, name, lambda scm: np.maximum(1.0, mutant(scm))[()])
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1000, ratio_iterations=1)
    assert result["bound_validity"]["violations"] > 0


def test_cornfield_sharpness_kills_the_minus_root(monkeypatch):
    def minus_root(n10, n00, nde_rd_true):
        r = np.maximum(n10 / (nde_rd_true + n00), 1.0)
        return bounds.CornfieldThresholds(r, r - np.sqrt(r * (r - 1.0)))

    # cornfield_rr looks cornfield_rd up in its module: the one formula serves both scales
    monkeypatch.setattr(bounds, "cornfield_rd", minus_root)
    # r - sqrt(r (r - 1)) is below r, and below 1, for every r > 1
    with pytest.raises(BadParameter, match="threshold ordering violated"):
        assert_cornfield_thresholds_attained(1.72, 1.0)


def test_both_batteries_kill_level_zero_for_the_minimum_over_u(monkeypatch):
    monkeypatch.setattr(oracle, "rr_uy", lambda scm: np.maximum(1.0, rr_uy_level_zero(scm))[()])
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1000, ratio_iterations=1000)
    assert result["bound_validity"]["violations"] > 0
    assert result["ratio_bound_dominance"]["violations"] > 0


def test_joint_enumeration_kills_the_exposed_mediator_weight(monkeypatch):
    # n10 weighted by pr(m | a=1) is n11.  The battery's observed and true sides both form
    # their sums with the mutant, so only a reference that does not use it can see it.
    real = tables.crossworld_sums

    def crossworld_sums(y, w):
        _, n00, n11 = real(y, w)
        return n11, n00, n11

    for module in (tables, bounds, oracle):
        monkeypatch.setattr(module, "crossworld_sums", crossworld_sums)
    scm = oracle.sample_scm(np.random.default_rng(37), u_card=3, m_card=3, shape=(100,))
    true, reference = oracle.verify_bounds(scm).true, enumerated_effects(scm)
    assert not np.allclose(true["nde_rr"], reference["nde_rr"], rtol=1e-12, atol=0)


def test_decomposition_identity_kills_te_rr_as_a_sum(monkeypatch):
    # no bound reads te_rr, so every check of the battery holds under this mutant
    real = bounds.effects_from_sums

    def effects_from_sums(n10, n00, n11):
        effects = real(n10, n00, n11)
        return effects | {"te_rr": effects["nde_rr"] + effects["nie_rr"]}

    for module in (bounds, oracle):
        monkeypatch.setattr(module, "effects_from_sums", effects_from_sums)
    report = oracle.verify_bounds(oracle.sample_scm(np.random.default_rng(1), shape=(100,)))
    for effects in (report.observed, report.true):
        assert not np.allclose(effects["te_rr"], effects["nde_rr"] * effects["nie_rr"],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_parametric_cross_check_kills_a_closed_form_mutant(name, monkeypatch):
    # the brute force builds its own predictors, so neither mutant reaches it
    monkeypatch.setattr(loglinear, name, CLOSED_FORM[name])
    with pytest.raises(InternalCheckError, match="at beta0=-2.3, beta1=0.2, beta3=0.1$"):
        loglinear.collider_ratio_grid()


def test_finite_neighbour_example_kills_the_plain_lerp(monkeypatch):
    # numpy's own percentiles, whose lerp gives NaN next to an infinite replicate
    def plain_lerp(stats, level):
        lo_q = 100.0 * (1.0 - level) / 2.0
        with np.errstate(invalid="ignore"):
            return np.percentile(stats, [lo_q, 100.0 - lo_q], axis=0)

    monkeypatch.setattr(bootstrap, "_limits", plain_lerp)
    with pytest.raises(AssertionError):
        test_bootstrap.TestPercentiles().test_a_finite_neighbour_of_an_infinite_replicate_is_kept()


def test_infinite_parameters_kill_the_nan_keeping_cap(monkeypatch):
    # np.minimum keeps the overflow form's NaN at (inf, inf), where np.fmin drops it
    monkeypatch.setattr(bounds.np, "fmin", np.minimum)
    with pytest.raises(AssertionError):
        test_bounds.TestBoundingFactor().test_infinite_parameter_gives_the_other()


def test_sharpness_and_two_batteries_kill_bf_too_small_where_rr_uy_is_larger(monkeypatch):
    # the independent 2 x 2 and the 6 x 8 extreme batteries count 0 violations here
    partial_bf(monkeypatch, "rr_uy_above_rr_au")
    with pytest.raises(InternalCheckError, match="sharpness construction violated"):
        oracle.sharpness_search(seed=2, iterations=50)
    stub_sharpness(monkeypatch)
    result = oracle.validity_battery(seed=1, iterations=1000, dependent_exposure=True,
                                     ratio_iterations=1000)
    assert result["bound_validity"]["violations"] > 0
    assert result["ratio_bound_dominance"]["violations"] > 0


def test_sharpness_alone_kills_bf_too_small_above_rr_au_5(monkeypatch):
    # every battery counts 0 violations here
    partial_bf(monkeypatch, "rr_au_above_5")
    with pytest.raises(InternalCheckError, match="sharpness construction violated"):
        oracle.sharpness_search(seed=2, iterations=50)


def test_bounding_factor_tests_kill_bf_too_small_in_its_overflow_form(monkeypatch):
    # no oracle check draws parameters whose product overflows; an infinite one takes that form too
    partial_bf(monkeypatch, "overflow_form", test_bounds)
    tests = test_bounds.TestBoundingFactor()
    with pytest.raises(AssertionError):
        tests.test_huge_parameters_do_not_overflow(1e300, 1e300, 5e299)
    with pytest.raises(AssertionError):
        tests.test_infinite_parameter_gives_the_other()


def test_two_sided_sharpness_kills_bf_too_large(monkeypatch):
    # a looser bound holds wherever a tighter one does: every one-sided check stays green
    partial_bf(monkeypatch, "too_large")
    with pytest.raises(AssertionError):
        test_oracle.TestSharpnessSearch().test_every_bound_is_attained_within_1e_6()
