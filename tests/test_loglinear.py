import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from medsens import loglinear
from medsens.cli import main
from medsens.errors import (
    BadParameter,
    Infeasible,
    InternalCheckError,
    OutOfRangeProbability,
    ZeroProbability,
)
from medsens.loglinear import (
    DEFAULT_CONFOUNDER_COEFFS,
    DEFAULT_INTERCEPT_EXPOSURE_PAIRS,
    LogLinearSpec,
    _cumulant_k,
    _rr_au_loglinear_bruteforce,
    collider_ratio_grid,
    interaction_bound,
    rr_au_loglinear,
)


class TestCumulant:
    def test_zero(self):
        assert _cumulant_k(0.0) == 0.0

    def test_half(self):
        # frozen from a 50-digit evaluation of log((1 + e^0.5)/2)
        assert math.isclose(_cumulant_k(0.5), 0.2809298036201614, abs_tol=1e-15)

    def test_negative_limit(self):
        assert math.isclose(_cumulant_k(-50.0), -math.log(2.0), abs_tol=1e-15)

    def test_large_argument_stable(self):
        assert math.isclose(_cumulant_k(800.0), 800.0 - math.log(2.0), rel_tol=1e-15)

    def test_infinite_arguments_are_the_formula_limits(self):
        # exp(-inf) is 0.0, so the general formula gives inf and 0.0 - log(2), bit for bit
        assert _cumulant_k(math.inf) == math.inf
        assert _cumulant_k(-math.inf).hex() == (-math.log(2.0)).hex() == "-0x1.62e42fefa39efp-1"

    def test_nan_rejected(self):
        with pytest.raises(BadParameter, match="real number"):
            _cumulant_k(math.nan)

    @given(st.floats(min_value=-30, max_value=30))
    def test_reflection_identity(self, t):
        assert math.isclose(_cumulant_k(t), t + _cumulant_k(-t), abs_tol=1e-12)

    @pytest.mark.parametrize("name", ["beta0", "beta1", "beta3", "beta_c"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, "2", "x", None, [0.1, "a"],
                                       [0.1, math.nan]])
    def test_spec_rejects_non_finite_coefficients(self, name, value):
        coeffs = {"beta0": -2.3, "beta1": 0.2, "beta3": 0.1} | {name: value}
        with pytest.raises(BadParameter, match=f"{name} must be a finite real"):
            LogLinearSpec(**coeffs)

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), Fraction(1, 2)],
                             ids=["int64", "float32", "Fraction"])
    def test_spec_takes_any_real(self, value):
        spec = LogLinearSpec(beta0=-2.3, beta1=0.2, beta3=value)
        want = LogLinearSpec(beta0=-2.3, beta1=0.2, beta3=float(value))
        # stored as float: a float32 would keep the closed form in single precision
        assert type(spec.beta3) is float
        assert astuple(spec) == astuple(want) and rr_au_loglinear(spec) == rr_au_loglinear(want)

    def test_array_specs_compare_and_hash(self):
        # compared by identity, as Scm and RecordTable are: field-wise == of arrays is no bool
        spec = LogLinearSpec([-2.3, -2.0], 0.2, 0.1)
        assert (spec == LogLinearSpec([-2.3, -2.0], 0.2, 0.1)) is False
        assert (spec == spec) is True
        assert hash(spec) == hash(spec)


def sample_feasible_spec(rng) -> LogLinearSpec:
    b1 = float(rng.uniform(-1.5, 1.5))
    b3 = float(rng.uniform(-1.5, 1.5))
    margin = float(rng.uniform(0.05, 3.0))
    b0 = -margin - max(b1, 0.0) - max(b3, 0.0)
    return LogLinearSpec(beta0=b0, beta1=b1, beta3=b3)


class TestClosedFormAgainstBruteForce:
    def test_ten_thousand_random_specs(self):
        rng = np.random.default_rng(23)
        specs = [sample_feasible_spec(rng) for _ in range(10_000)]
        coeffs = np.array([(s.beta0, s.beta1, s.beta3) for s in specs])
        closed = rr_au_loglinear(LogLinearSpec(*coeffs.T))
        brute = _rr_au_loglinear_bruteforce(*coeffs.T)
        assert brute.shape == (10_000,)
        assert (np.abs(closed - brute) <= 1e-10 * np.maximum(1.0, brute)).all()

    def test_opposite_sign_branch(self):
        spec = LogLinearSpec(beta0=-2.0, beta1=0.5, beta3=-0.8)
        assert math.isclose(rr_au_loglinear(spec), _rr_au_loglinear_bruteforce(-2.0, 0.5, -0.8),
                            rel_tol=1e-12)
        spec = LogLinearSpec(beta0=-2.0, beta1=-0.5, beta3=0.8)
        assert math.isclose(rr_au_loglinear(spec), _rr_au_loglinear_bruteforce(-2.0, -0.5, 0.8),
                            rel_tol=1e-12)

    def test_no_confounder_effect(self):
        assert rr_au_loglinear(LogLinearSpec(beta0=-2.0, beta1=0.4, beta3=0.0)) == 1.0

    def test_no_exposure_effect(self):
        assert rr_au_loglinear(LogLinearSpec(beta0=-2.0, beta1=0.0, beta3=0.4)) == 1.0

    def test_infeasible_coefficients_rejected(self):
        with pytest.raises(Infeasible):
            rr_au_loglinear(LogLinearSpec(beta0=-0.1, beta1=0.5, beta3=0.5))
        with pytest.raises(Infeasible, match="cell a=0, u=1: linear predictor 0.4 gives"):
            _rr_au_loglinear_bruteforce(-0.1, 0.5, 0.5)
        with pytest.raises(Infeasible, match="cell a=1, u=1"):
            _rr_au_loglinear_bruteforce([-2.0, -2.0, -0.1], [0.2, 0.7, 0.5], [0.1, 0.6, 0.5], 0.8)

    @pytest.mark.parametrize("beta0, cell", [(-0.5, "a=0, u=1"), (-0.55, "a=1, u=1")])
    def test_closed_form_checks_both_confounder_levels(self, beta0, cell):
        # beta1 * beta3 > 0 puts the worst case at u=0, yet pr(M=1|a,u=1) reaches 1
        spec = LogLinearSpec(beta0=beta0, beta1=0.1, beta3=0.5)
        with pytest.raises(Infeasible, match=f"^cell {cell}: linear predictor .* >= 1$"):
            rr_au_loglinear(spec)
        with pytest.raises(Infeasible, match=f"^cell {cell}: "):
            _rr_au_loglinear_bruteforce(beta0, 0.1, 0.5)

    def test_array_spec_matches_scalar_specs_bit_for_bit(self):
        rng = np.random.default_rng(31)
        specs = [sample_feasible_spec(rng) for _ in range(400)]
        coeffs = np.array([(s.beta0, s.beta1, s.beta3) for s in specs]).reshape(20, 20, 3)
        # about half the specs have beta1 * beta3 < 0, whose worst confounder level is u=1
        assert 0 < (coeffs[..., 1] * coeffs[..., 2] < 0).mean() < 1
        offsets = np.array([0.0, -0.3])[:, None, None]  # beta_c broadcast against the grid
        closed = rr_au_loglinear(LogLinearSpec(*np.moveaxis(coeffs, -1, 0), offsets))
        assert closed.shape == (2, 20, 20)
        scalar = [[rr_au_loglinear(LogLinearSpec(*c, beta_c=bc)) for c in coeffs.reshape(-1, 3)]
                  for bc in (0.0, -0.3)]
        assert closed.reshape(2, -1).tolist() == scalar

    def test_array_spec_names_the_first_infeasible_cell(self):
        spec = LogLinearSpec(beta0=[-2.0, -0.5], beta1=[0.2, -0.1], beta3=[True, 0.5])
        assert spec.beta3.tolist() == [1.0, 0.5]
        with pytest.raises(Infeasible, match="^cell a=0, u=1: linear predictor 0.0 gives"):
            rr_au_loglinear(spec)


class TestReferenceGridValues:
    def test_first_row_first_column(self):
        spec = LogLinearSpec(beta0=-2.3, beta1=0.2, beta3=0.1)
        rr = rr_au_loglinear(spec)
        assert math.isclose(rr / math.exp(0.1), 0.91, abs_tol=5e-3)
        assert math.isclose(rr / math.exp(0.2), 0.82, abs_tol=5e-3)

    def test_mid_grid_value(self):
        rr = rr_au_loglinear(LogLinearSpec(beta0=-2.0, beta1=0.2, beta3=0.5))
        assert math.isclose(rr / math.exp(0.5), 0.62, abs_tol=5e-3)

    def test_ratios_below_unity_across_grid(self):
        for row in collider_ratio_grid():
            assert row["ratio_to_exp_beta3"] < 1.0
            assert row["ratio_to_exp_beta1"] < 1.0

    def test_parameter_increases_with_confounder_coefficient(self):
        rows = collider_ratio_grid()
        for b0, b1 in DEFAULT_INTERCEPT_EXPOSURE_PAIRS:
            series = [r["rr_au"] for r in rows if r["beta0"] == b0 and r["beta1"] == b1]
            assert len(series) == len(DEFAULT_CONFOUNDER_COEFFS)
            assert all(a < b for a, b in zip(series, series[1:]))
            assert all(v >= 1.0 for v in series)

    @pytest.mark.parametrize("scale, fails", [(1 + 1e-9, True), (1 + 1e-11, False)])
    def test_cross_check_tolerance(self, monkeypatch, capsys, scale, fails):
        # a closed form off by 1e-9 fails the 1e-10 cross-check; one off by 1e-11 passes
        closed_form = loglinear.rr_au_loglinear
        monkeypatch.setattr(loglinear, "rr_au_loglinear", lambda spec: scale * closed_form(spec))
        if fails:
            with pytest.raises(InternalCheckError, match="beta0=-2.3, beta1=0.2, beta3=0.1"):
                collider_ratio_grid()
            assert main(["parametric"]) == 4
            assert capsys.readouterr().out == ""
        else:
            assert len(collider_ratio_grid()) == 42
            assert main(["parametric"]) == 0


class TestInteractionBound:
    def test_multiplicative_grid_has_no_interaction(self):
        # p[a][u] = f(a) g(u): all cross ratios cancel
        assert interaction_bound([[0.1, 0.3], [0.2, 0.6]]) == 1.0

    def test_hand_enumeration(self):
        assert math.isclose(interaction_bound([[0.2, 0.4], [0.3, 0.9]]), 1.5, rel_tol=1e-15)

    def test_single_confounder_level(self):
        assert interaction_bound([[0.4], [0.7]]) == 1.0

    def test_batch_gives_one_bound_per_grid(self):
        grids = [[[0.1, 0.3], [0.2, 0.6]], [[0.2, 0.4], [0.3, 0.9]]]
        assert interaction_bound(grids).tolist() == [interaction_bound(g) for g in grids]

    def test_dominates_exact_collider_ratio_for_any_prior(self):
        # exact posterior-ratio parameter by Bayes, exposure independent of u
        rng = np.random.default_rng(29)
        for _ in range(2000):
            k = int(rng.integers(2, 5))
            p0 = tuple(float(v) for v in rng.uniform(0.05, 0.95, k))
            p1 = tuple(float(v) for v in rng.uniform(0.05, 0.95, k))
            prior = rng.uniform(0.05, 1.0, k)
            prior = prior / prior.sum()
            bound = interaction_bound((p0, p1))
            marg0 = float(sum(c * w for c, w in zip(p0, prior)))
            marg1 = float(sum(c * w for c, w in zip(p1, prior)))
            exact = max(
                (p1[u] * prior[u] / marg1) / (p0[u] * prior[u] / marg0) for u in range(k)
            )
            assert exact <= bound * (1 + 1e-12)

    def test_rejects_zero_cells(self):
        with pytest.raises(ZeroProbability, match=r"pr\(m\|a=0,u=0\)"):
            interaction_bound([[0.0, 0.4], [0.3, 0.9]])
        with pytest.raises(OutOfRangeProbability, match=r"pr\(m\|a=0,u=0\) = 1.2"):
            interaction_bound([[1.2, 0.4], [0.3, 0.9]])
        with pytest.raises(OutOfRangeProbability, match=r"pr\(m\|a=1,u=1\)"):
            interaction_bound([[[0.2, 0.4], [0.3, 0.9]], [[0.2, 0.4], [0.3, math.nan]]])

    def test_negative_cell_is_out_of_range(self):
        with pytest.raises(OutOfRangeProbability, match=r"^pr\(m\|a=1,u=0\) = -0\.3$"):
            interaction_bound([[0.2, 0.4], [-0.3, 0.9]])

    @pytest.mark.parametrize("grid", [[0.2, 0.4], [[0.2, 0.4]], [[], []]],
                             ids=["one-axis", "one-row", "no-levels"])
    def test_rejects_a_grid_without_two_rows(self, grid):
        with pytest.raises(BadParameter, match="rows for a=0 and a=1"):
            interaction_bound(grid)
