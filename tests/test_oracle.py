import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from helpers import (
    assert_cornfield_thresholds_attained,
    bernoulli_instance,
    enumerated_effects,
    rr_au_posterior_per_mediator,
)
from medsens import bounds
from medsens.bounds import SensitivitySpec, adjust, bound_report
from medsens.errors import (
    BadParameter,
    InternalCheckError,
    NotNormalized,
    OutOfRangeProbability,
    UnreachableCell,
    ZeroProbability,
)
from medsens import oracle, tables
from medsens.loglinear import interaction_bound
from medsens.oracle import (
    Scm,
    SharpnessReport,
    _ratio_scm,
    observed_model,
    recipe_scm,
    rr_au_mediator_ratio,
    rr_au_posterior,
    rr_uy,
    sample_ratio_instances,
    sample_scm,
    sharpness_search,
    verify_bounds,
)
from medsens.tables import crossworld_sums


def flat_scm(y_given, m_given, u_given_a=((0.4, 0.6), (0.4, 0.6)), **kw) -> Scm:
    return Scm(u_given_a=u_given_a, m_given=m_given, y_given=y_given, **kw)


def u_irrelevant_scm() -> Scm:
    """Outcome and mediator tables constant in u: no confounding at all."""
    m_row0 = ((0.75, 0.25), (0.75, 0.25))
    m_row1 = ((0.25, 0.75), (0.25, 0.75))
    y0 = ((0.2, 0.2), (0.5, 0.5))
    y1 = ((0.4, 0.4), (0.8, 0.8))
    return flat_scm(y_given=(y0, y1), m_given=(m_row0, m_row1))


def outcome_marginal(scm: Scm, a: int) -> float:
    """pr(Y=1|a) of one model by direct double summation, bypassing the conditional tables."""
    return math.fsum(
        scm.u_given_a[a][u]
        * math.fsum(scm.m_given[a][u][m] * scm.y_given[a][m][u] for m in range(scm.m_card))
        for u in range(scm.u_card)
    )


def assert_tables_close(got, want, tol=1e-15):
    for a in (0, 1):
        for x, y in zip(got[a], want[a]):
            assert math.isclose(x, y, abs_tol=tol)


class TestObservedModel:
    def test_u_irrelevant_matches_flat_tables(self):
        y, w = observed_model(u_irrelevant_scm())
        assert_tables_close(w, ((0.75, 0.25), (0.25, 0.75)))
        assert_tables_close(y, ((0.2, 0.5), (0.4, 0.8)))

    def test_degenerate_prior_picks_one_slice(self):
        scm = flat_scm(
            u_given_a=((0.0, 1.0), (0.0, 1.0)),
            m_given=(((0.5, 0.5), (0.7, 0.3)), ((0.5, 0.5), (0.2, 0.8))),
            y_given=(((0.1, 0.3), (0.2, 0.4)), ((0.3, 0.5), (0.4, 0.9))),
        )
        y, w = observed_model(scm)
        assert_tables_close(w, ((0.7, 0.3), (0.2, 0.8)))
        assert_tables_close(y, ((0.3, 0.4), (0.5, 0.9)))

    def test_uniform_everything_gives_uniform_tables(self):
        half = ((0.5, 0.5), (0.5, 0.5))
        scm = flat_scm(u_given_a=half, m_given=(half, half), y_given=(half, half))
        y, w = observed_model(scm)
        assert w.tolist() == [list(row) for row in half]
        assert y.tolist() == [list(row) for row in half]

    @pytest.mark.parametrize("dependent", [False, True])
    def test_joint_is_formed_once_per_model_and_kept_read_only(self, dependent):
        scm = sample_scm(np.random.default_rng(4), 3, 2, dependent_exposure=dependent, shape=(5,))
        joint, w = scm._mediator_joint
        assert scm._mediator_joint[0] is joint
        for array in (joint, w, scm.u_given_a):
            assert not array.flags.writeable
        other = sample_scm(np.random.default_rng(4), 3, 2, dependent_exposure=dependent, shape=(5,))
        assert other._mediator_joint[0] is not joint

    def test_a_batch_gives_tables_with_its_own_leading_axes(self):
        scm = sample_scm(np.random.default_rng(5), 3, 4, shape=(6,))
        y, w = observed_model(scm)
        assert y.shape == w.shape == (6, 2, 4)
        for b in range(6):
            single = Scm(scm.u_given_a[b], scm.m_given[b], scm.y_given[b])
            for got, want in zip((y[b], w[b]), observed_model(single), strict=True):
                assert np.array_equal(got, want)

    def test_two_summation_orders_agree(self):
        rng = np.random.default_rng(31)
        for i in range(2000):
            scm = sample_scm(rng, u_card=2 + i % 2, m_card=2 + i % 2)
            _, n00, n11 = crossworld_sums(*observed_model(scm))
            y_marg = (n00, n11)  # pr(Y=1|a) from the conditional tables
            for a in (0, 1):
                assert math.isclose(y_marg[a], outcome_marginal(scm, a), abs_tol=1e-12)

    def test_unreachable_cell_raises(self):
        # m=1 possible under a=0 but never under a=1
        scm = flat_scm(
            m_given=(((0.5, 0.5), (0.5, 0.5)), ((1.0, 0.0), (1.0, 0.0))),
            y_given=(((0.1, 0.1), (0.2, 0.2)), ((0.3, 0.3), (0.4, 0.4))),
        )
        with pytest.raises(UnreachableCell):
            observed_model(scm)


class TestTrueEffects:
    def test_no_confounder_means_true_equals_observed(self):
        scm = u_irrelevant_scm()
        true = verify_bounds(scm).true
        obs = bound_report(*observed_model(scm))
        for field in ("nde_rr", "nie_rr", "te_rr", "nde_rd", "nie_rd", "te_rd"):
            assert math.isclose(true[field], obs[field], rel_tol=1e-12, abs_tol=1e-12)

    def test_null_scm(self):
        same_m = ((0.6, 0.4), (0.3, 0.7))
        same_y = ((0.2, 0.5), (0.4, 0.1))
        scm = flat_scm(m_given=(same_m, same_m), y_given=(same_y, same_y))
        true = verify_bounds(scm).true
        assert math.isclose(true["nde_rr"], 1.0, rel_tol=1e-15)
        assert math.isclose(true["nie_rr"], 1.0, rel_tol=1e-15)
        assert math.isclose(true["te_rr"], 1.0, rel_tol=1e-15)
        assert abs(true["nde_rd"]) < 1e-15 and abs(true["nie_rd"]) < 1e-15

    def test_matches_full_joint_enumeration(self):
        # independent oracle: build the joint tensor with numpy and contract it
        rng = np.random.default_rng(37)
        scms = [sample_scm(rng, u_card=3, m_card=3) for _ in range(300)]
        scms.append(sample_scm(rng, u_card=3, m_card=3, shape=(2, 50)))  # one batch of models
        for scm in scms:
            true, reference = verify_bounds(scm).true, enumerated_effects(scm)
            for name in ("nde_rr", "nie_rr"):
                np.testing.assert_allclose(true[name], reference[name], rtol=1e-12, atol=0)
            for name in ("nde_rd", "nie_rd"):
                np.testing.assert_allclose(true[name], reference[name], rtol=0, atol=1e-12)

    def test_loglinear_mediator_scm_agrees_across_modules(self):
        # mediator tables generated by the binary-mediator log-linear model:
        # the posterior-ratio parameter of the joint model must equal the
        # closed form evaluated on the same coefficients
        from medsens.loglinear import LogLinearSpec, rr_au_loglinear

        rng = np.random.default_rng(97)
        for _ in range(200):
            b1 = float(rng.uniform(-1.0, 1.0))
            b3 = float(rng.uniform(-1.0, 1.0))
            b0 = -float(rng.uniform(0.1, 2.5)) - max(b1, 0.0) - max(b3, 0.0)
            spec = LogLinearSpec(beta0=b0, beta1=b1, beta3=b3)
            m_given = tuple(
                tuple(
                    (1.0 - math.exp(b0 + b1 * a + b3 * u), math.exp(b0 + b1 * a + b3 * u))
                    for u in (0, 1)
                )
                for a in (0, 1)
            )
            y_given = tuple(
                tuple(tuple(float(v) for v in rng.uniform(0.05, 0.95, 2)) for _ in (0, 1))
                for _ in (0, 1)
            )
            scm = flat_scm(u_given_a=((0.5, 0.5), (0.5, 0.5)), m_given=m_given, y_given=y_given)
            assert math.isclose(rr_au_posterior(scm), rr_au_loglinear(spec), rel_tol=1e-10)
            report = verify_bounds(scm)
            assert report.all_hold

    def test_decomposition_identities(self):
        rng = np.random.default_rng(41)
        true = verify_bounds(sample_scm(rng, 2, 3, shape=(2000,))).true  # the same 2000 models
        product = true["nde_rr"] * true["nie_rr"]
        assert (np.abs(true["te_rr"] - product)
                <= 1e-12 * np.maximum(np.abs(true["te_rr"]), np.abs(product))).all()
        assert (np.abs(true["te_rd"] - (true["nde_rd"] + true["nie_rd"])) <= 1e-12).all()

    def test_requires_independent_exposure(self):
        # with exposure dependent on u only the effects among the unexposed are true ones
        rng = np.random.default_rng(43)
        report = verify_bounds(sample_scm(rng, dependent_exposure=True))
        assert [c.name for c in report.checks] == [
            "unexposed_nde_rr_lower_vs_true", "unexposed_nde_rd_lower_vs_true"]


class TestSensitivityParameters:
    def test_outcome_constant_in_u(self):
        assert rr_uy(u_irrelevant_scm()) == 1.0

    def test_binary_ratio(self):
        scm = flat_scm(
            m_given=(((0.5, 0.5), (0.5, 0.5)), ((0.4, 0.6), (0.3, 0.7))),
            y_given=(((0.1, 0.1), (0.2, 0.2)), ((0.3, 0.3), (0.2, 0.5))),
        )
        assert math.isclose(rr_uy(scm), 2.5, rel_tol=1e-15)

    def test_zero_outcome_cell_rejected(self):
        scm = flat_scm(
            m_given=(((0.5, 0.5), (0.5, 0.5)), ((0.4, 0.6), (0.3, 0.7))),
            y_given=(((0.1, 0.1), (0.2, 0.2)), ((0.0, 0.3), (0.2, 0.5))),
        )
        with pytest.raises(ZeroProbability):
            rr_uy(scm)

    def test_pairwise_enumeration_matches(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            scm = sample_scm(rng, u_card=3, m_card=3)
            brute = max(
                scm.y_given[1][m][u] / scm.y_given[1][m][v]
                for m in range(3)
                for u in range(3)
                for v in range(3)
            )
            assert math.isclose(rr_uy(scm), brute, rel_tol=1e-12)

    def test_mediator_constant_in_a_gives_one(self):
        same = ((0.6, 0.4), (0.3, 0.7))
        scm = flat_scm(m_given=(same, same), y_given=(((0.2, 0.3), (0.4, 0.1)), ((0.5, 0.2), (0.6, 0.7))))
        assert math.isclose(rr_au_posterior(scm), 1.0, rel_tol=1e-12)
        assert math.isclose(rr_au_mediator_ratio(scm), 1.0, rel_tol=1e-12)

    def test_mediator_constant_in_u_gives_one(self):
        scm = flat_scm(
            m_given=(((0.6, 0.4), (0.6, 0.4)), ((0.3, 0.7), (0.3, 0.7))),
            y_given=(((0.2, 0.3), (0.4, 0.1)), ((0.5, 0.2), (0.6, 0.7))),
        )
        assert math.isclose(rr_au_posterior(scm), 1.0, rel_tol=1e-12)

    def test_two_definitions_agree(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for i in range(2000):
            scm = sample_scm(rng, u_card=2 + i % 2, m_card=2 + i % 2)
            a, b = rr_au_posterior(scm), rr_au_mediator_ratio(scm)
            worst = max(worst, abs(a - b) / max(1.0, a))
        assert worst <= 1e-10

    def test_posterior_form_never_exceeds_interaction_bound(self):
        scm = sample_scm(np.random.default_rng(59), u_card=2, m_card=3, shape=(1000,))
        per_m = rr_au_posterior_per_mediator(scm)
        assert len(per_m) == 3
        for m, values in per_m.items():
            assert (values <= interaction_bound(scm.m_given[..., m]) * (1 + 1e-12)).all()

    def test_mediator_ratio_needs_independent_exposure(self):
        rng = np.random.default_rng(61)
        scm = sample_scm(rng, dependent_exposure=True)
        with pytest.raises(BadParameter):
            rr_au_mediator_ratio(scm)


class TestVerifyBounds:
    def test_thousand_random_scms_hold(self):
        rng = np.random.default_rng(67)
        for i in range(1000):
            report = verify_bounds(sample_scm(rng, 2, 2 + i % 2))
            assert report.all_hold, report.checks
            # the adjusted quantities themselves never cross the truth
            obs = report.observed
            tol = 1e-10 * max(1.0, obs["bf"])
            assert report.true["nde_rr"] >= obs["nde_rr"] / obs["bf"] - tol
            assert report.true["nie_rr"] <= obs["nie_rr"] * obs["bf"] + tol

    def test_u_irrelevant_bounds_are_tight(self):
        report = verify_bounds(u_irrelevant_scm())
        assert report.observed["bf"] == 1.0
        for check in report.checks:
            assert math.isclose(check.attainment, 1.0, rel_tol=1e-12), check.name
        assert math.isclose(report.observed["nde_rd_lower"], report.true["nde_rd"], abs_tol=1e-12)
        assert math.isclose(report.observed["nie_rd_upper"], report.true["nie_rd"], abs_tol=1e-12)

    def test_observed_side_reuses_identification_bit_for_bit(self):
        rng = np.random.default_rng(71)
        scm = sample_scm(rng)
        report = verify_bounds(scm)
        y, w = observed_model(scm)  # as a table of one stratum, the shape estimation returns
        spec = SensitivitySpec(rr_au=[rr_au_posterior(scm)], rr_uy=[rr_uy(scm)])
        want = bound_report(y[None], w[None])
        want.update(adjust(want, spec))
        assert report.observed.keys() == want.keys()
        for name, value in want.items():
            assert report.observed[name] == value[0]

    def test_recipe_scm_attains_the_bound(self):
        report = verify_bounds(recipe_scm(2.5, 3.5, posterior_mass=0.999))
        assert report.all_hold
        assert report.checks[0].name == "nde_rr_lower_vs_true"
        assert report.checks[0].attainment >= 0.999

    def test_recipe_parameters_are_exact(self):
        scm = recipe_scm(2.5, 3.5, posterior_mass=0.999)
        assert math.isclose(rr_au_posterior(scm), 2.5, rel_tol=1e-12)
        assert math.isclose(rr_uy(scm), 3.5, rel_tol=1e-12)


def sharpness_reference(seed: int, iterations: int) -> SharpnessReport:
    """The search drawn one scalar at a time and checked one model at a time."""
    rng = np.random.default_rng(seed)
    best = {"nde_rr": 0.0, "nie_rr": 0.0, "nde_rd": 0.0, "nie_rd": 0.0}
    evaluated = 0
    for _ in range(iterations):
        rr_au = float(rng.uniform(1.2, 6.0))
        rr_uy = float(rng.uniform(1.2, 6.0))
        ceiling = float(rng.uniform(0.3, 0.9))
        target = float(rng.uniform(1.3, 3.0))
        anchor = float(rng.uniform(0.5, 0.95))
        jitter = 1.0 + float(rng.uniform(-0.05, 0.05))
        mass_extra = float(rng.uniform(0.99, 0.999999))
        for mass in (0.999, 0.9999, 0.99999, 0.999999, mass_extra):
            for x, y in ((rr_au, rr_uy), (rr_au * jitter, rr_uy / jitter)):
                report = verify_bounds(recipe_scm(max(1.0, x), max(1.0, y), mass, anchor=anchor,
                                                  outcome_ceiling=ceiling, target_nde_rr=target))
                assert report.all_hold
                evaluated += 1
                obs, true = report.observed, report.true
                values = {
                    "nde_rr": obs["nde_rr"] / obs["bf"] / true["nde_rr"],
                    "nie_rr": true["nie_rr"] / (obs["nie_rr"] * obs["bf"]),
                }
                if true["nde_rd"] > 0.0 and obs["nde_rd_lower"] > 0.0:
                    values["nde_rd"] = obs["nde_rd_lower"] / true["nde_rd"]
                if true["nie_rd"] > 0.0 and obs["nie_rd_upper"] > 0.0:
                    values["nie_rd"] = true["nie_rd"] / obs["nie_rd_upper"]
                for key, value in values.items():
                    best[key] = max(best[key], float(value))
    return SharpnessReport(seed, iterations, evaluated, best_attainment=best)


class TestSharpnessSearch:
    def test_deterministic(self):
        assert sharpness_search(seed=5, iterations=20) == sharpness_search(seed=5, iterations=20)

    def test_attainment_close_below_one(self):
        report = sharpness_search(seed=5, iterations=50)
        for value in report.best_attainment.values():
            assert 0.999 <= value <= 1.0 + 1e-10

    def test_every_bound_is_attained_within_1e_6(self):
        # two-sided: a bounding factor too large by 1e-5 passes every one-sided check
        report = sharpness_search(seed=2, iterations=50)
        assert min(report.best_attainment.values()) >= 1.0 - 1e-6, report.best_attainment

    @pytest.mark.parametrize("iterations", [1, 7, 50])
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_per_model_reference(self, seed, iterations):
        assert sharpness_search(seed, iterations) == sharpness_reference(seed, iterations)

    def test_batches_continue_the_stream(self, monkeypatch):
        monkeypatch.setattr(tables, "BATCH_CELLS", 3 * 10 * 8)  # three iterations of 10 models
        assert sharpness_search(2, 7) == sharpness_reference(2, 7)

    def test_violation_raises(self, monkeypatch):
        # a bounding factor shrunk by 1% is crossed by the models that attain the bound
        real = bounds.bounding_factor
        monkeypatch.setattr(bounds, "bounding_factor",
                            lambda spec: np.maximum(1.0, 0.99 * real(spec)))
        with pytest.raises(InternalCheckError, match="nde_rr_lower_vs_true"):
            sharpness_search(0, 3)

    def test_recipe_batch_matches_single_models(self):
        rr_au, rr_uy = np.array([1.0, 2.5, 4.0]), np.array([[3.5], [1.2]])
        batch = recipe_scm(rr_au, rr_uy, posterior_mass=1.0, anchor=0.7)
        assert batch.batch_shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            single = recipe_scm(float(rr_au[j]), float(rr_uy[i, 0]), 1.0, anchor=0.7)
            for name in ("u_given_a", "m_given", "y_given"):
                assert np.array_equal(getattr(batch, name)[i, j], getattr(single, name))

    def test_recipe_rejects_any_bad_entry(self):
        with pytest.raises(BadParameter):
            recipe_scm([2.0, 0.5], 2.0, 0.999)
        with pytest.raises(BadParameter):
            recipe_scm(2.0, 2.0, [0.999, 1.5])


def ratio_report(scm: Scm):
    """The report of a :func:`_ratio_scm` instance, its ratio sum(r f1) / sum(r f0) and its cap bf.

    The true NDE_rr of the instance is 1, so its ``nde_rr_lower`` check is
    the ratio, divided by the cap, against 1.
    """
    report = verify_bounds(scm)
    assert report.checks[0].name.endswith("nde_rr_lower_vs_true")
    assert np.all(report.true["nde_rr"] == 1.0)
    return report, report.observed["nde_rr"], report.observed["bf"]


class TestRatioBound:
    """The scalar inequality under every bound, checked as :func:`_ratio_scm` models."""

    def test_constant_weight(self):
        report, ratio, cap = ratio_report(_ratio_scm(f0=(0.3, 0.7), f1=(0.6, 0.4), r=(2.0, 2.0)))
        assert report.rr_uy == 1.0 and cap == 1.0
        assert abs(ratio - 1.0) <= 1e-15
        assert report.all_hold

    def test_equal_measures(self):
        report, ratio, _ = ratio_report(_ratio_scm(f0=(0.3, 0.7), f1=(0.3, 0.7), r=(1.0, 5.0)))
        assert ratio == 1.0 and report.rr_au == 1.0
        assert report.all_hold

    def test_model_has_the_instance_as_its_exposure_posteriors(self):
        f0, f1, r = (0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (1.5, 4.0, 0.5)
        scm = _ratio_scm(f0, f1, r)
        assert not scm.a_independent_u and scm.m_card == 1
        assert np.array_equal(scm.u_given_a, (f0, f1))
        report = verify_bounds(scm)
        assert report.rr_au == pytest.approx(3.0, rel=1e-15)  # max f1/f0, at u=0
        assert report.rr_uy == 8.0
        assert report.true["nde_rr"] == 1.0

    def test_bernoulli_family_attains_equality(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            density_ratio = float(rng.uniform(1.0, 20.0))
            spread = float(rng.uniform(1.0, 20.0))
            report, ratio, cap = ratio_report(bernoulli_instance(density_ratio, spread))
            assert abs(ratio - cap) <= 1e-12 * max(1.0, cap)
            assert report.all_hold

    def test_huge_density_ratio_holds_with_equality(self):
        # pr(u|A=0) is stored as given, so its 1/density_ratio is not lost to rounding
        report, ratio, cap = ratio_report(bernoulli_instance(1e200, 1e200))
        assert report.all_hold
        assert ratio == cap == 5e199

    @pytest.mark.parametrize("density_ratio", [1e6, 1e10, 1e15])
    def test_collider_parameter_is_the_density_ratio_to_the_ulp(self, density_ratio):
        got = rr_au_posterior(bernoulli_instance(density_ratio, 2.0))
        assert abs(got - density_ratio) <= np.spacing(density_ratio)

    @pytest.mark.parametrize("density_ratio, spread", [(math.nan, 2.0), (2.0, math.nan),
                                                       (0.5, 2.0)])
    def test_bernoulli_family_rejects_nan_or_below_one(self, density_ratio, spread):
        with pytest.raises(BadParameter, match="at least 1"):
            bernoulli_instance(density_ratio, spread)

    def test_density_ratio_rounding_below_one_counts_as_one(self):
        f1 = (0.5 - 2.5e-13, 0.5 - 2.5e-13)  # a distribution within tolerance, below f0 everywhere
        report, _, cap = ratio_report(_ratio_scm(f0=(0.5, 0.5), f1=f1, r=(1.0, 3.0)))
        assert report.rr_au == 1.0
        assert cap == 1.0 and report.all_hold

    def test_arm_off_one_by_more_than_sum_tol_is_refused(self):
        f1 = (0.5 - 1e-12, 0.5 - 1e-12)  # sums to 1 - 2e-12
        with pytest.raises(NotNormalized, match=re.escape("pr(u|A=1) sums to 0.999999999998")):
            _ratio_scm(f0=(0.5, 0.5), f1=f1, r=(1.0, 3.0))

    def test_random_instances_hold_strictly(self):
        # non-degenerate instances never attain the bound; equality needs
        # the two-point structure
        rng = np.random.default_rng(79)
        report, ratio, cap = ratio_report(sample_ratio_instances(rng, 2000))
        assert report.checks[0].holds.shape == (2000,)
        assert report.all_hold
        assert (ratio < cap).all()

    def test_batch_draws_match_per_instance_draws(self):
        # each instance takes one block of 19 uniforms: its size, then six cells of f0, f1 and r
        rng, rng_single = np.random.default_rng(107), np.random.default_rng(107)
        batch = sample_ratio_instances(rng, 300)
        singles = [sample_ratio_instances(rng_single, 1) for _ in range(300)]
        assert rng.bit_generator.state == rng_single.bit_generator.state
        for name in ("u_given_a", "m_given", "y_given"):
            for b, scm in enumerate(singles):
                assert np.array_equal(getattr(batch, name)[b], getattr(scm, name)[0])
        blocks = np.random.default_rng(107).random((300, 19))
        sizes = 2 + np.floor(5.0 * blocks[:, 0])
        assert set(sizes) == {2, 3, 4, 5, 6}
        assert ((batch.u_given_a > 0.0).sum(axis=-1) == sizes[:, None]).all()
        r = 0.1 + (10.0 - 0.1) * blocks[:, 13:]
        past = np.arange(6) >= sizes[:, None]
        assert np.array_equal(batch.y_given[:, 1, 0], np.where(past, r[:, :1], r))

    def test_batch_matches_fsum_reference(self):
        rng = np.random.default_rng(109)
        sizes = rng.integers(2, 7, 5000)
        pad = np.arange(6) >= sizes[:, None]
        f0, f1 = (np.where(pad, 0.0, rng.uniform(0.05, 1.0, (5000, 6))) for _ in range(2))
        f0, f1 = f0 / f0.sum(axis=-1, keepdims=True), f1 / f1.sum(axis=-1, keepdims=True)
        r = rng.uniform(0.1, 10.0, (5000, 6))
        report, ratio, cap = ratio_report(_ratio_scm(f0, f1, np.where(pad, r[:, :1], r)))
        for b in range(5000):
            n = int(sizes[b])
            f0_b, f1_b, r_b = f0[b, :n].tolist(), f1[b, :n].tolist(), r[b, :n].tolist()
            lhs = math.fsum(w * p for w, p in zip(r_b, f1_b)) / math.fsum(
                w * p for w, p in zip(r_b, f0_b))
            g = max(p1 / p0 for p0, p1 in zip(f0_b, f1_b))
            d = max(r_b) / min(r_b)
            rhs = g * d / (g + d - 1.0)
            # the model holds f0 and f1 as given; its sums and bf round a few times each
            assert abs(ratio[b] - lhs) <= 1e-14 * lhs
            assert abs(cap[b] - rhs) <= 1e-14 * rhs
        assert report.all_hold

    def test_padding_changes_nothing(self):
        plain = _ratio_scm(f0=(0.2, 0.3, 0.5), f1=(0.6, 0.1, 0.3), r=(1.5, 4.0, 0.5))
        padded = _ratio_scm(
            f0=(0.2, 0.3, 0.5, 0.0, 0.0), f1=(0.6, 0.1, 0.3, 0.0, 0.0), r=(1.5, 4.0, 0.5, 1.5, 1.5)
        )
        for got, want in zip(verify_bounds(padded).checks, verify_bounds(plain).checks,
                             strict=True):
            assert astuple(got) == astuple(want)

    def test_one_bad_instance_in_a_batch_raises(self):
        f0 = ((0.5, 0.5), (1.0, 0.0))
        f1 = ((0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ZeroProbability, match=re.escape("pr(u|a=0,m) = 0")):
            verify_bounds(_ratio_scm(f0=f0, f1=f1, r=((1.0, 2.0), (1.0, 2.0))))
        with pytest.raises(ZeroProbability, match="has a zero cell"):
            verify_bounds(_ratio_scm(f0=f1, f1=f1, r=((1.0, 2.0), (0.0, 2.0))))

    def test_absolute_continuity_required(self):
        scm = _ratio_scm(f0=(1.0, 0.0), f1=(0.5, 0.5), r=(1.0, 2.0))
        with pytest.raises(ZeroProbability, match=re.escape("pr(u|a=0,m) = 0 while pr(u|a=1,m) > 0 "
                                                            "at u=1,m=0")):
            verify_bounds(scm)

    def test_zero_minimum_weight_rejected_when_nonconstant(self):
        scm = _ratio_scm(f0=(0.5, 0.5), f1=(0.5, 0.5), r=(0.0, 2.0))
        with pytest.raises(ZeroProbability, match=re.escape("pr(Y=1|a=1,m=0,u) has a zero cell")):
            verify_bounds(scm)


class TestUnexposedBound:
    def test_vanishing_dependence_keeps_the_direct_checks(self):
        scm = sample_scm(np.random.default_rng(83))
        prior = scm.u_given_a[0]
        nearly = Scm((prior, prior + (1e-9, -1e-9)), scm.m_given, scm.y_given)
        assert scm.a_independent_u and not nearly.a_independent_u
        overall, unexposed = verify_bounds(scm), verify_bounds(nearly)
        assert [c.name for c in overall.checks] == [
            "nde_rr_lower_vs_true", "nie_rr_true_vs_upper", "nde_rd_lower_vs_true",
            "nie_rd_true_vs_upper"]
        assert [c.name for c in unexposed.checks] == [
            "unexposed_nde_rr_lower_vs_true", "unexposed_nde_rd_lower_vs_true"]
        for want, got in zip(overall.checks[::2], unexposed.checks, strict=True):
            for side in ("lhs", "rhs"):
                assert abs(getattr(got, side) - getattr(want, side)) <= 1e-8

    def test_batch_with_one_varying_exposure_is_dependent(self):
        scm = sample_scm(np.random.default_rng(97), shape=(2,))
        u_given_a = np.array(scm.u_given_a)
        u_given_a[1, 1] = (0.2, 0.8)  # the second model's exposed arm only
        mixed = Scm(u_given_a, scm.m_given, scm.y_given)
        assert not mixed.a_independent_u
        report = verify_bounds(mixed)
        assert [c.name for c in report.checks] == [
            "unexposed_nde_rr_lower_vs_true", "unexposed_nde_rd_lower_vs_true"]
        assert report.all_hold

    @pytest.mark.parametrize("u_card", [3, 9])  # 9: numpy sums the u axis pairwise
    def test_dependent_models_store_bayes_rule_of_their_draws(self, u_card):
        # each model's block starts with u_card uniforms for pr(u), then u_card for pr(A=1|u)
        scm = sample_scm(np.random.default_rng(113), u_card, 2, dependent_exposure=True,
                         shape=(200,))
        blocks = np.random.default_rng(113).random((200, 2 * u_card + 8 * u_card))
        for b in range(200):
            cells = [x * (1.0 - 1e-4) + 1e-4 for x in blocks[b, :u_card].tolist()]
            prior = [c / math.fsum(cells) for c in cells]
            exposed = [x * (0.95 - 0.05) + 0.05 for x in blocks[b, u_card:2 * u_card].tolist()]
            for a in (0, 1):
                joint = [p * (e if a else 1.0 - e) for p, e in zip(prior, exposed)]
                want = [j / math.fsum(joint) for j in joint]
                assert np.allclose(scm.u_given_a[b, a], want, rtol=0.0, atol=1e-15), (b, a)

    def test_thousand_dependent_scms_hold(self):
        rng = np.random.default_rng(89)
        report = verify_bounds(sample_scm(rng, dependent_exposure=True, shape=(1000,)))
        assert len(report.checks) == 2
        for check in report.checks:
            assert check.holds.all(), (check.name, check.slack.max())

    def test_strong_dependence_with_u_irrelevant_to_y_is_tight(self):
        scm = flat_scm(
            u_given_a=((0.95, 0.05), (0.05, 0.95)),
            m_given=(((0.8, 0.2), (0.3, 0.7)), ((0.5, 0.5), (0.1, 0.9))),
            y_given=(((0.2, 0.2), (0.5, 0.5)), ((0.4, 0.4), (0.7, 0.7))),
        )
        assert not scm.a_independent_u
        report = verify_bounds(scm)
        assert report.observed["bf"] == 1.0
        for check in report.checks:
            assert abs(check.slack) < 1e-12
        assert report.all_hold


class TestBatches:
    def test_batch_matches_unbatched_calls(self):
        fields = ("u_given_a", "m_given", "y_given")
        for dependent in (False, True):
            rng, rng_single = np.random.default_rng(101), np.random.default_rng(101)
            batch = sample_scm(rng, 3, 4, floor=0.0, dependent_exposure=dependent, shape=(40,))
            singles = [sample_scm(rng_single, 3, 4, floor=0.0, dependent_exposure=dependent)
                       for _ in range(40)]
            # the same models, drawn from the same stream
            for b, scm in enumerate(singles):
                for name in fields:
                    assert np.array_equal(getattr(batch, name)[b], getattr(scm, name))
            assert rng.bit_generator.state == rng_single.bit_generator.state
            # the same checks, model for model
            batched = verify_bounds(batch).checks
            assert len(batched) == (2 if dependent else 4)
            for b, scm in enumerate(singles):
                for got, want in zip(batched, verify_bounds(scm).checks, strict=True):
                    assert got.name == want.name
                    assert got.lhs[b] == want.lhs and got.rhs[b] == want.rhs
                    assert got.holds[b] == want.holds

    @pytest.mark.parametrize("dependent", [False, True])
    def test_batch_of_wide_models_matches_unbatched_calls(self, dependent):
        # sums over 8 or more entries: numpy adds a contiguous run of them pairwise
        rng, rng_single = np.random.default_rng(103), np.random.default_rng(103)
        batch = sample_scm(rng, 9, 9, floor=0.0, dependent_exposure=dependent, shape=(40,))
        singles = [sample_scm(rng_single, 9, 9, floor=0.0, dependent_exposure=dependent)
                   for _ in range(40)]
        for name in ("u_given_a", "m_given", "y_given"):
            table = getattr(batch, name)
            assert table.strides[0] == table.itemsize == min(table.strides)  # models innermost
            for b, scm in enumerate(singles):
                assert np.array_equal(table[b], getattr(scm, name))
        batched = verify_bounds(batch).checks
        assert len(batched) == (2 if dependent else 4)
        for b, scm in enumerate(singles):
            for got, want in zip(batched, verify_bounds(scm).checks, strict=True):
                assert got.name == want.name
                assert got.lhs[b] == want.lhs and got.rhs[b] == want.rhs
                assert got.holds[b] == want.holds

    @pytest.mark.parametrize("build", [
        lambda: sample_scm(np.random.default_rng(105), 3, 9, floor=0.0, shape=(4, 5)),
        lambda: sample_scm(np.random.default_rng(105), 3, 2, dependent_exposure=True,
                           shape=(4, 5)),
        lambda: sample_scm(np.random.default_rng(105), 2, 3, mode="mean", shape=(4, 5)),
        lambda: oracle._recipe_batch(np.random.default_rng(107), 2),  # [iteration, mass, pair]
    ], ids=["independent", "dependent", "mean", "recipe"])
    def test_a_batch_of_any_shape_matches_the_flat_batch(self, build):
        scm = build()
        shape = scm.batch_shape
        flat = Scm(*(table.reshape(-1, *table.shape[len(shape):])
                     for table in (scm.u_given_a, scm.m_given, scm.y_given)), mode=scm.mode)
        got, want = verify_bounds(scm), verify_bounds(flat)
        for side in ("observed", "true"):
            assert getattr(got, side).keys() == getattr(want, side).keys()
            for name, value in getattr(want, side).items():
                assert np.array_equal(getattr(got, side)[name], value.reshape(shape)), name
        assert np.array_equal(got.rr_au, want.rr_au.reshape(shape))
        for g, w in zip(got.checks, want.checks, strict=True):
            assert g.name == w.name
            assert np.array_equal(g.slack, w.slack.reshape(shape))
            assert np.array_equal(g.holds, w.holds.reshape(shape))

    def test_battery_blocks_continue_the_stream(self, monkeypatch):
        totals = dict(iterations=50, ratio_iterations=50, sharpness_iterations=5)
        whole = oracle.validity_battery(3, **totals)
        real = oracle.verify_bounds

        def counted(scm):
            stage = ("sharpness" if len(scm.batch_shape) == 3 else
                     "ratio" if scm.m_card == 1 else "random")
            batches[stage].append(scm.batch_shape[0])
            return real(scm)

        monkeypatch.setattr(oracle, "verify_bounds", counted)
        # items per batch of the random battery (u=m=2: 8 cells of pr(m|a,u) per model), the
        # scalar inequality (12 cells per instance) and the sharpness search (80 cells per
        # iteration); a budget of one cell is below any item's and still takes one (battery: 8)
        for budget, sizes in ((160, (20, 13, 2)), (1, (8, 1, 1))):
            batches = {"random": [], "ratio": [], "sharpness": []}
            monkeypatch.setattr(tables, "BATCH_CELLS", budget)
            assert oracle.validity_battery(3, **totals) == whole
            for (stage, got), size, total in zip(batches.items(), sizes, totals.values(),
                                                 strict=True):
                assert got == [min(size, total - start) for start in range(0, total, size)], stage
                assert len(got) >= 2

    def test_random_battery_batch_for_every_cardinality(self, monkeypatch):
        # the rule of one budget gives the random battery max(8, 8192 // (u_card * m_card))
        class Drawn(Exception):
            pass

        def first_batch(*args, shape, **kwargs):
            raise Drawn(shape[0])

        monkeypatch.setattr(oracle, "sample_scm", first_batch)
        for cells in range(1, oracle.MAX_CARD_PRODUCT + 1):
            for u_card, m_card in ((1, cells), (cells, 1)):
                with pytest.raises(Drawn) as drawn:
                    oracle.validity_battery(0, 10**6, u_card, m_card)
                assert drawn.value.args == (max(8, 8192 // cells),)


class TestCornfieldSharpness:
    @pytest.mark.parametrize("obs, target", [(1.72, 1.0), (1.72, 1.3), (1.34, 1.0), (3.0, 1.2)])
    def test_thresholds_are_attained_in_the_limit(self, obs, target):
        assert_cornfield_thresholds_attained(obs, target)


#: the cell of each table that a test corrupts, with its name
SCM_CELLS = {
    "u_given_a": ((1, 1), "pr(u=1|A=1)"),
    "m_given": ((1, 0, 1), "pr(m=1|a=1,u=0)"),
    "y_given": ((1, 0, 1), "pr(Y=1|a=1,m=0,u=1)"),
}


def scm_tables(batch: int = 0) -> dict[str, np.ndarray]:
    """Writable copies of the tables of :func:`u_irrelevant_scm`, stacked ``batch`` times."""
    scm = u_irrelevant_scm()
    return {name: np.array([getattr(scm, name)] * batch if batch else getattr(scm, name))
            for name in SCM_CELLS}


class TestTableValidation:
    # a NaN entry and a row off one are checked with every other table in test_tables
    @pytest.mark.parametrize("batch", [0, 3])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    @pytest.mark.parametrize("name", list(SCM_CELLS))
    def test_bad_scm_entry_is_named(self, name, value, batch):
        index, cell = SCM_CELLS[name]
        tables = scm_tables(batch)
        tables[name][(batch - 1,) * bool(batch) + index] = value  # the last model of a batch
        with pytest.raises(OutOfRangeProbability, match=f"^{re.escape(f'{cell} = {value!r}')}$"):
            Scm(**tables)

    def test_mismatched_shapes_are_named(self):
        # three levels of u in y_given, not two; then a 0-d table, which has no level axis
        for changed, named in (({"y_given": np.ones((2, 2, 3))}, "(2, 2), (2, 2, 2), (2, 2, 3)"),
                               ({"u_given_a": 0.5}, "(), (2, 2, 2), (2, 2, 2)"),
                               ({"m_given": np.float64(0.5)}, "(2, 2), (), (2, 2, 2)")):
            with pytest.raises(BadParameter, match=f"got shapes {re.escape(named)}$"):
                Scm(**scm_tables() | changed)

    def test_row_off_one_by_more_than_sum_tol_is_named_at_construction(self):
        # the model's own row is named, not the observed pr(m|a,c) formed from it later
        tables = scm_tables()
        tables["m_given"][0, 0, 0] += 5e-10
        with pytest.raises(NotNormalized, match=r"^pr\(m\|a=0,u=0\) sums to 1\.0000000005"):
            Scm(**tables)

    @pytest.mark.parametrize("rr_au, rr_uy, named", [
        (0.5, 2.0, "rr_au must be >= 1 (or +inf), got 0.5"),
        (2.0, math.nan, "rr_uy must be >= 1 (or +inf), got nan"),
    ], ids=["rr_au", "rr_uy"])
    def test_recipe_parameter_below_one_is_named(self, rr_au, rr_uy, named):
        with pytest.raises(BadParameter, match=f"^{re.escape(named)}$"):
            recipe_scm(rr_au, rr_uy, 0.999)

    def test_mean_outcome_may_exceed_one_but_not_be_infinite(self):
        tables = scm_tables()
        tables["y_given"][1, 0, 1] = 5.0
        assert Scm(**tables, mode="mean").y_given[1, 0, 1] == 5.0
        tables["y_given"][1, 0, 1] = math.inf
        with pytest.raises(OutOfRangeProbability, match=re.escape("E[Y|a=1,m=0,u=1] = inf")):
            Scm(**tables, mode="mean")

    def test_sampler_floor_below_one(self):
        with pytest.raises(BadParameter, match="floor"):
            sample_scm(np.random.default_rng(0), floor=1.0)

    @pytest.mark.parametrize("sampler, args, named", [
        (sharpness_search, (1, -5), "iterations must be at least 1, got -5"),
        (sharpness_search, (1, 0), "iterations must be at least 1, got 0"),
        (sample_ratio_instances, (np.random.default_rng(0), -1), "count must be at least 1, got -1"),
        (sample_ratio_instances, (np.random.default_rng(0), 0), "count must be at least 1, got 0"),
        (sample_scm, (np.random.default_rng(0), -1), "u_card must be at least 1, got -1"),
        (sample_scm, (np.random.default_rng(0), 0), "u_card must be at least 1, got 0"),
        (sample_scm, (np.random.default_rng(0), 2, 0), "m_card must be at least 1, got 0"),
    ], ids=["sharpness-negative", "sharpness-zero", "ratio-negative", "ratio-zero",
            "u-card-negative", "u-card-zero", "m-card-zero"])
    def test_samplers_refuse_counts_below_one(self, sampler, args, named):
        with pytest.raises(BadParameter, match=f"^{named}$"):
            sampler(*args)

    def test_recipe_anchor_below_one(self):
        with pytest.raises(BadParameter, match="anchor"):
            recipe_scm(2.0, 2.0, 0.999, anchor=1.0)


class TestZeroProbability:
    def test_zero_exposure_arm(self):
        # an arm with no mass has no pr(u|A=a): its row is empty, not a distribution
        tables = scm_tables() | {"u_given_a": ((1.0, 0.0), (0.0, 0.0))}
        with pytest.raises(NotNormalized, match=re.escape("pr(u|A=1) sums to 0.0, not 1")):
            Scm(**tables)

    @pytest.mark.parametrize("form", [rr_au_posterior, rr_au_mediator_ratio])
    def test_no_mediator_level_in_both_arms(self, form):
        scm = flat_scm(m_given=(((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))),
                       y_given=u_irrelevant_scm().y_given)
        with pytest.raises(ZeroProbability, match="no mediator level is reachable"):
            form(scm)

    @pytest.mark.parametrize("form, named", [
        (rr_au_posterior, "pr(u|a=0,m) = 0 while pr(u|a=1,m) > 0 at u=0,m=1"),
        (rr_au_mediator_ratio, "pr(m|a=0,u) = 0 while pr(m|a=1,u) > 0 at u=0,m=1"),
    ], ids=["posterior", "mediator-ratio"])
    def test_unexposed_posterior_zero_where_exposed_is_not(self, form, named):
        # level m=1 is live in both arms, but under a=0 only u=1 reaches it
        scm = flat_scm(m_given=(((1.0, 0.0), (0.5, 0.5)), ((0.5, 0.5), (0.5, 0.5))),
                       y_given=u_irrelevant_scm().y_given)
        with pytest.raises(ZeroProbability, match=re.escape(named)):
            form(scm)

    def test_ratio_bound_zero_denominator(self):
        scm = _ratio_scm(f0=(0.5, 0.5), f1=(0.5, 0.5), r=(0.0, 0.0))
        with pytest.raises(ZeroProbability, match=re.escape("pr(Y=1|a=1,m=0,u) has a zero cell")):
            verify_bounds(scm)
