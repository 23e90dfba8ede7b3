"""Ground-truth engine for validity and sharpness of the sensitivity bounds.

An :class:`Scm` is a fully specified discrete factorization over
(A, M, Y, U) within one covariate stratum:

    pr(u), pr(A=1|u), pr(m|a,u), pr(Y=1|a,m,u)

From it everything is computable exactly: the observed conditional tables
(marginalizing U by Bayes' rule), the true natural effects (averaging over
the confounder before mediator weighting), and the two sensitivity
parameters by their definitions.  :func:`verify_bounds` then asserts that
the observed effects, pushed through the bound formulas with the exact
parameters, never cross the true effects.  A violation is a bug somewhere,
never a property of the inputs.

The maxima defining the collider parameter are taken over mediator levels
reachable under both exposure arms; unreachable levels condition on null
events and carry no weight in any bound.  Degenerate mediator distributions
under a=0 are therefore legal, which the sharpness construction exploits:
:func:`recipe_scm` builds the two-point configuration that drives the
direct-effect bound to equality as its posterior-mass parameter approaches
one, and :func:`sharpness_search` reports the best attainment found.

:func:`check_ratio_bound` verifies the scalar inequality underlying all of the
bounds (the weighted-mean ratio capped by the bounding factor) on explicit
discrete instances, including the two-point family that attains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bounds import SensitivitySpec, adjust_nie_rr, bound_nde_rd, bound_nie_rd, bounding_factor
from .effects import Effects, observed_effects
from .errors import (
    BadParameter,
    InternalCheckError,
    UnreachableCell,
    ZeroDenominator,
    ZeroProbability,
)
from .tables import ConditionalModel, StratumTable, validate

#: inequality checks allow this much relative slack for float rounding
VALIDITY_TOL = 1e-10
#: the two definitions of the collider parameter must agree within this
EQUIV_TOL = 1e-10
#: discrete instances must satisfy the scalar bound within this
RATIO_BOUND_TOL = 1e-12

_DIST_TOL = 1e-9  # constructed distributions must sum to one within this


def _check_dist(values: tuple[float, ...], what: str) -> None:
    if any(not math.isfinite(v) or v < 0.0 for v in values):
        raise BadParameter(f"{what} has a negative or non-finite entry: {values!r}")
    total = math.fsum(values)
    if abs(total - 1.0) > _DIST_TOL:
        raise BadParameter(f"{what} sums to {total!r}, not 1")


@dataclass(frozen=True)
class Scm:
    """Synthetic joint model over (A, M, Y, U) for one covariate stratum.

    Index conventions: ``m_given[a][u][m]`` and ``y_given[a][m][u]``.
    With ``a_independent_u`` set, pr(A=1|u) must be constant in u and the
    true-effect formulas apply; without it only the unexposed-population
    bound check is meaningful.
    """

    u_prior: tuple[float, ...]
    a_given_u: tuple[float, ...]
    m_given: tuple[tuple[tuple[float, ...], ...], ...]
    y_given: tuple[tuple[tuple[float, ...], ...], ...]
    a_independent_u: bool = True
    mode: Literal["probability", "mean"] = "probability"

    def __post_init__(self) -> None:
        nu = len(self.u_prior)
        _check_dist(self.u_prior, "u_prior")
        if len(self.a_given_u) != nu:
            raise BadParameter("a_given_u must have one entry per confounder level")
        for u, p in enumerate(self.a_given_u):
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise BadParameter(f"pr(A=1|u={u}) = {p!r}")
        if self.a_independent_u and max(self.a_given_u) - min(self.a_given_u) > 1e-12:
            raise BadParameter("a_independent_u set but pr(A=1|u) varies with u")
        if len(self.m_given) != 2 or len(self.y_given) != 2:
            raise BadParameter("need tables for both exposure arms")
        nm = len(self.m_given[0][0])
        for a in (0, 1):
            if len(self.m_given[a]) != nu:
                raise BadParameter("m_given must have one row per confounder level")
            for u in range(nu):
                _check_dist(self.m_given[a][u], f"pr(m|a={a},u={u})")
                if len(self.m_given[a][u]) != nm:
                    raise BadParameter("mediator cardinality must be consistent")
            if len(self.y_given[a]) != nm:
                raise BadParameter("y_given must have one row per mediator level")
            for m in range(nm):
                if len(self.y_given[a][m]) != nu:
                    raise BadParameter("y_given rows must cover every confounder level")
                for u, v in enumerate(self.y_given[a][m]):
                    if not math.isfinite(v) or v < 0.0 or (self.mode == "probability" and v > 1.0):
                        raise BadParameter(f"y_given[a={a}][m={m}][u={u}] = {v!r}")

    @property
    def u_card(self) -> int:
        return len(self.u_prior)

    @property
    def m_card(self) -> int:
        return len(self.m_given[0][0])


def _exposure_posterior(scm: Scm, a: int) -> tuple[float, ...]:
    """pr(u | A=a); equals the prior when exposure is independent of u."""
    if scm.a_independent_u:
        return scm.u_prior
    weights = [
        (scm.a_given_u[u] if a == 1 else 1.0 - scm.a_given_u[u]) * scm.u_prior[u]
        for u in range(scm.u_card)
    ]
    total = math.fsum(weights)
    if total <= 0.0:
        raise UnreachableCell(f"exposure arm a={a} has zero probability")
    return tuple(w / total for w in weights)


def _mediator_marginals(scm: Scm) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(pr(m|a=0), pr(m|a=1)) marginalized over the confounder."""
    out = []
    for a in (0, 1):
        pu = _exposure_posterior(scm, a)
        out.append(
            tuple(
                math.fsum(scm.m_given[a][u][m] * pu[u] for u in range(scm.u_card))
                for m in range(scm.m_card)
            )
        )
    return out[0], out[1]


def observed_model(scm: Scm) -> ConditionalModel:
    """Exact marginal tables pr(Y=1|a,m) and pr(m|a) as a one-stratum model.

    Outcome cells for (a, m) pairs that no downstream formula weights are
    filled with 0.0.  A mediator level reachable under a=0 but not under
    a=1 makes the direct-effect formulas undefined and raises
    :class:`UnreachableCell`.
    """
    m0, m1 = _mediator_marginals(scm)
    for m in range(scm.m_card):
        if m0[m] > 0.0 and m1[m] == 0.0:
            raise UnreachableCell(
                f"mediator level m={m} reachable under a=0 but not under a=1"
            )
    y_prob = []
    for a, marg in ((0, m0), (1, m1)):
        pu = _exposure_posterior(scm, a)
        row = []
        for m in range(scm.m_card):
            if marg[m] > 0.0:
                joint = math.fsum(
                    scm.y_given[a][m][u] * scm.m_given[a][u][m] * pu[u]
                    for u in range(scm.u_card)
                )
                row.append(joint / marg[m])
            else:
                row.append(0.0)
        y_prob.append(tuple(row))
    table = StratumTable(c=0, y_prob=(y_prob[0], y_prob[1]), m_prob=(m0, m1))
    return validate(ConditionalModel(strata=(table,), mode=scm.mode))


def outcome_marginal(scm: Scm, a: int) -> float:
    """pr(Y=1|a) by direct double summation, bypassing the conditional tables."""
    pu = _exposure_posterior(scm, a)
    return math.fsum(
        pu[u]
        * math.fsum(scm.m_given[a][u][m] * scm.y_given[a][m][u] for m in range(scm.m_card))
        for u in range(scm.u_card)
    )


def true_effects(scm: Scm) -> Effects:
    """Exact natural effects with the confounder integrated out correctly.

    The cross-world term pr(Y_{1,M_0}=1) averages pr(Y=1|1,m,u) against the
    mediator distribution under a=0 *within* each confounder level before
    averaging over the prior; this is exactly where ignoring U goes wrong.
    Requires exposure independent of the confounder.
    """
    if not scm.a_independent_u:
        raise BadParameter("true natural effects need exposure independent of the confounder")
    prior = scm.u_prior

    def crossworld(a_out: int, a_med: int) -> float:
        return math.fsum(
            prior[u]
            * math.fsum(
                scm.y_given[a_out][m][u] * scm.m_given[a_med][u][m]
                for m in range(scm.m_card)
            )
            for u in range(scm.u_card)
        )

    n10 = crossworld(1, 0)
    n00 = crossworld(0, 0)
    n11 = crossworld(1, 1)
    if n00 == 0.0:
        raise ZeroDenominator("pr(Y_{0,M_0}=1) = 0")
    if n10 == 0.0:
        raise ZeroDenominator("pr(Y_{1,M_0}=1) = 0")
    return Effects(
        c=0,
        nde_rr=n10 / n00,
        nie_rr=n11 / n10,
        te_rr=(n10 / n00) * (n11 / n10),
        nde_rd=n10 - n00,
        nie_rd=n11 - n10,
        te_rd=(n10 - n00) + (n11 - n10),
    )


def rr_uy(scm: Scm) -> float:
    """Confounder-outcome parameter: max over m of max_u/min_u pr(Y=1|1,m,u)."""
    best = 1.0
    for m in range(scm.m_card):
        row = scm.y_given[1][m]
        low = min(row)
        if low <= 0.0:
            raise ZeroProbability(f"pr(Y=1|a=1,m={m},u) has a zero cell")
        best = max(best, max(row) / low)
    return best


def _both_arm_mediators(scm: Scm) -> tuple[tuple[float, ...], tuple[float, ...], list[int]]:
    m0, m1 = _mediator_marginals(scm)
    live = [m for m in range(scm.m_card) if m0[m] > 0.0 and m1[m] > 0.0]
    if not live:
        raise ZeroProbability("no mediator level is reachable under both exposure arms")
    return m0, m1, live


def rr_au_posterior_per_mediator(scm: Scm) -> dict[int, float]:
    """Collider parameter per mediator level, posterior form.

    For each m reachable under both arms: max over u of
    pr(u|A=1,m) / pr(u|A=0,m), computed by Bayes' rule.  Works with or
    without exposure-confounder dependence.
    """
    m0, m1, live = _both_arm_mediators(scm)
    pu0 = _exposure_posterior(scm, 0)
    pu1 = _exposure_posterior(scm, 1)
    out: dict[int, float] = {}
    for m in live:
        best = 0.0
        for u in range(scm.u_card):
            post1 = scm.m_given[1][u][m] * pu1[u] / m1[m]
            post0 = scm.m_given[0][u][m] * pu0[u] / m0[m]
            if post0 == 0.0:
                if post1 == 0.0:
                    continue
                raise ZeroProbability(
                    f"pr(u={u}|a=0,m={m}) = 0 while pr(u={u}|a=1,m={m}) > 0"
                )
            best = max(best, post1 / post0)
        out[m] = best
    return out


def rr_au_posterior(scm: Scm) -> float:
    """Collider parameter: max over mediator levels of the posterior form."""
    return max(rr_au_posterior_per_mediator(scm).values())


def rr_au_mediator_ratio(scm: Scm) -> float:
    """Collider parameter, alternative form via mediator relative risks.

    max over (m, u) of [pr(m|1,u)/pr(m|0,u)] / [pr(m|1)/pr(m|0)].  Equals
    the posterior form exactly when exposure is independent of the
    confounder, which this form requires.
    """
    if not scm.a_independent_u:
        raise BadParameter("the mediator-ratio form needs exposure independent of the confounder")
    m0, m1, live = _both_arm_mediators(scm)
    best = 0.0
    for m in live:
        marg_ratio = m1[m] / m0[m]
        for u in range(scm.u_card):
            den = scm.m_given[0][u][m]
            num = scm.m_given[1][u][m]
            if den == 0.0:
                if num == 0.0:
                    continue
                raise ZeroProbability(
                    f"pr(m={m}|a=0,u={u}) = 0 while pr(m={m}|a=1,u={u}) > 0"
                )
            best = max(best, (num / den) / marg_ratio)
    return best


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs <= rhs with its signed slack (negative is good)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


def _check(name: str, lhs: float, rhs: float, tol: float) -> InequalityCheck:
    slack = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return InequalityCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, holds=slack <= tol * scale)


@dataclass(frozen=True)
class ValidityReport:
    """Exact sensitivity parameters and all four bound checks for one model."""

    observed: Effects
    true: Effects
    rr_au: float
    rr_uy: float
    bf: float
    nde_rd_lower: float
    nie_rd_upper: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def nde_rr_attainment(self) -> float:
        """How much of the ratio-scale direct-effect bound is used, in (0, 1]."""
        return (self.observed.nde_rr / self.true.nde_rr) / self.bf


def verify_bounds(scm: Scm, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Check all four bounds against the exact truth of one synthetic model.

    The observed side is produced by the same estimation-facing code paths
    users run (marginal tables -> effect formulas -> bound formulas); only
    the sensitivity parameters and the true effects come from the joint
    model.  Any failed check indicates a bug, not an unlucky draw.
    """
    model = observed_model(scm)
    obs = observed_effects(model, 0)
    true = true_effects(scm)
    rau = rr_au_posterior(scm)
    ruy = rr_uy(scm)
    bf = bounding_factor(SensitivitySpec(rr_au=rau, rr_uy=ruy))
    lower_rd = bound_nde_rd(model, 0, bf)
    upper_rd = bound_nie_rd(model, 0, bf)
    checks = (
        _check("nde_rr_ratio_vs_bf", obs.nde_rr / true.nde_rr, bf, tol),
        _check("nie_rr_true_vs_upper", true.nie_rr, adjust_nie_rr(obs.nie_rr, bf), tol),
        _check("nde_rd_lower_vs_true", lower_rd, true.nde_rd, tol),
        _check("nie_rd_true_vs_upper", true.nie_rd, upper_rd, tol),
    )
    return ValidityReport(
        observed=obs,
        true=true,
        rr_au=rau,
        rr_uy=ruy,
        bf=bf,
        nde_rd_lower=lower_rd,
        nie_rd_upper=upper_rd,
        checks=checks,
    )


@dataclass(frozen=True)
class UnexposedReport:
    """Bound checks for the direct effect among the unexposed population.

    This is the version of the direct-effect bounds that survives
    exposure-confounder dependence: the true effects condition every
    confounder average on a=0.
    """

    observed: Effects
    nde_rr_unexposed: float
    nde_rd_unexposed: float
    rr_au: float
    rr_uy: float
    bf: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def unexposed_nde_check(scm: Scm, tol: float = VALIDITY_TOL) -> UnexposedReport:
    """Check the direct-effect bounds against the unexposed-population truth.

    Valid for any pr(A=1|u); when exposure is independent of the confounder
    the unexposed effects coincide with the overall ones and this reduces
    to the corresponding checks of :func:`verify_bounds`.
    """
    model = observed_model(scm)
    obs = observed_effects(model, 0)
    pu0 = _exposure_posterior(scm, 0)

    def crossworld(a_out: int) -> float:
        return math.fsum(
            pu0[u]
            * math.fsum(
                scm.y_given[a_out][m][u] * scm.m_given[0][u][m] for m in range(scm.m_card)
            )
            for u in range(scm.u_card)
        )

    num = crossworld(1)
    den = crossworld(0)
    if den == 0.0:
        raise ZeroDenominator("pr(Y_{0,M_0}=1 | a=0) = 0")
    nde_rr_unexp = num / den
    nde_rd_unexp = num - den
    rau = rr_au_posterior(scm)
    ruy = rr_uy(scm)
    bf = bounding_factor(SensitivitySpec(rr_au=rau, rr_uy=ruy))
    checks = (
        _check("unexposed_nde_rr_ratio_vs_bf", obs.nde_rr / nde_rr_unexp, bf, tol),
        _check("unexposed_nde_rd_lower_vs_true", bound_nde_rd(model, 0, bf), nde_rd_unexp, tol),
    )
    return UnexposedReport(
        observed=obs,
        nde_rr_unexposed=nde_rr_unexp,
        nde_rd_unexposed=nde_rd_unexp,
        rr_au=rau,
        rr_uy=ruy,
        bf=bf,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# The scalar inequality on explicit discrete instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteRatioInstance:
    """Two probability vectors and a nonnegative weight function on a finite domain."""

    f0: tuple[float, ...]
    f1: tuple[float, ...]
    r: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.f0)
        if n == 0 or len(self.f1) != n or len(self.r) != n:
            raise BadParameter("f0, f1, r must share one nonempty domain")
        _check_dist(self.f0, "f0")
        _check_dist(self.f1, "f1")
        if any(not math.isfinite(v) or v < 0.0 for v in self.r):
            raise BadParameter(f"r must be nonnegative and finite: {self.r!r}")

    def max_density_ratio(self) -> float:
        """Largest f1/f0 over the domain; needs f1 absolutely continuous w.r.t. f0."""
        best = 0.0
        for x in range(len(self.f0)):
            if self.f1[x] == 0.0:
                continue
            if self.f0[x] == 0.0:
                raise ZeroDenominator(f"f1 puts mass on x={x} where f0 has none")
            best = max(best, self.f1[x] / self.f0[x])
        return best

    def weight_spread(self) -> float:
        """max r / min r; 1 for any constant r."""
        high, low = max(self.r), min(self.r)
        if high == low:
            return 1.0
        if low <= 0.0:
            raise BadParameter("non-constant r needs a strictly positive minimum")
        return high / low


@dataclass(frozen=True)
class RatioBoundResult:
    lhs: float
    rhs: float
    density_ratio: float
    weight_spread: float
    holds: bool


def check_ratio_bound(inst: DiscreteRatioInstance, tol: float = RATIO_BOUND_TOL) -> RatioBoundResult:
    """Evaluate the weighted-mean ratio sum(r f1)/sum(r f0) against its cap.

    The cap is the bounding-factor combination of the maximal density ratio
    and the weight spread; this scalar inequality is what every effect
    bound in this package reduces to.
    """
    num = math.fsum(a * b for a, b in zip(inst.r, inst.f1))
    den = math.fsum(a * b for a, b in zip(inst.r, inst.f0))
    if den == 0.0:
        raise ZeroDenominator("sum of r against f0 is zero")
    g = inst.max_density_ratio()
    d = inst.weight_spread()
    lhs = num / den
    rhs = g * d / (g + d - 1.0)
    return RatioBoundResult(lhs=lhs, rhs=rhs, density_ratio=g, weight_spread=d, holds=lhs <= rhs + tol)


def bernoulli_instance(density_ratio: float, weight_spread: float) -> DiscreteRatioInstance:
    """The two-point family attaining the ratio bound with equality.

    f1 concentrates on x=1, f0 gives that point mass 1/density_ratio, and
    r spreads by weight_spread; the weighted-mean ratio then equals the cap
    exactly.
    """
    if (
        density_ratio < 1.0
        or weight_spread < 1.0
        or math.isnan(density_ratio)
        or math.isnan(weight_spread)
    ):
        raise BadParameter("density_ratio and weight_spread must be at least 1")
    return DiscreteRatioInstance(
        f0=(1.0 - 1.0 / density_ratio, 1.0 / density_ratio),
        f1=(0.0, 1.0),
        r=(1.0, weight_spread),
    )


# ---------------------------------------------------------------------------
# Samplers and the sharpness construction
# ---------------------------------------------------------------------------


def sample_scm(
    rng: np.random.Generator,
    u_card: int = 2,
    m_card: int = 2,
    *,
    floor: float = 1e-4,
    mode: Literal["probability", "mean"] = "probability",
    y_max: float = 1.0,
    dependent_exposure: bool = False,
) -> Scm:
    """Random synthetic model; cells drawn uniformly then normalized.

    ``floor`` keeps drawn cells away from zero so ratio parameters stay
    moderate; pass 0.0 for stress tests.  ``y_max`` above 1 requires mean
    mode.  Exposure is a constant 1/2 unless ``dependent_exposure``.
    """
    if mode == "probability" and y_max > 1.0:
        raise BadParameter("probability mode caps outcome cells at 1")
    if floor < 0.0 or floor >= 1.0:
        raise BadParameter("floor must be in [0, 1)")

    def dist(n: int) -> tuple[float, ...]:
        raw = rng.uniform(floor, 1.0, n)
        total = raw.sum()
        return tuple(float(v / total) for v in raw)

    u_prior = dist(u_card)
    a_given_u = (
        tuple(float(v) for v in rng.uniform(0.05, 0.95, u_card))
        if dependent_exposure
        else (0.5,) * u_card
    )
    m_given = tuple(tuple(dist(m_card) for _ in range(u_card)) for _ in (0, 1))
    y_low = floor * y_max if floor > 0.0 else 1e-12
    y_given = tuple(
        tuple(
            tuple(float(v) for v in rng.uniform(y_low, y_max, u_card))
            for _ in range(m_card)
        )
        for _ in (0, 1)
    )
    return Scm(
        u_prior=u_prior,
        a_given_u=a_given_u,
        m_given=m_given,
        y_given=y_given,
        a_independent_u=not dependent_exposure,
        mode=mode,
    )


def sample_ratio_instance(rng: np.random.Generator, size: int) -> DiscreteRatioInstance:
    """Random discrete instance with strictly positive densities and weights."""
    if size < 1:
        raise BadParameter("domain size must be at least 1")

    def dist(n: int) -> tuple[float, ...]:
        raw = rng.uniform(0.05, 1.0, n)
        total = raw.sum()
        return tuple(float(v / total) for v in raw)

    return DiscreteRatioInstance(
        f0=dist(size),
        f1=dist(size),
        r=tuple(float(v) for v in rng.uniform(0.1, 10.0, size)),
    )


def recipe_scm(
    rr_au: float,
    rr_uy: float,
    posterior_mass: float,
    *,
    anchor: float = 0.8,
    outcome_ceiling: float = 0.6,
    target_nde_rr: float = 2.0,
) -> Scm:
    """The configuration that attains the direct-effect bound in the limit.

    Binary confounder, binary mediator.  The mediator is degenerate at
    level 1 under a=0 for every confounder level, so conditioning on it
    leaves the prior untouched in the a=0 arm; under a=1 the confounder
    level u=1 is driven to the given posterior mass.  The outcome ratio
    over u at the degenerate level is exactly ``rr_uy`` and the posterior
    ratio exactly ``rr_au``, aligned at the same mediator level, so the
    bias of the observed direct effect approaches the bounding factor as
    the posterior mass approaches 1.

    ``outcome_ceiling`` is the largest outcome value used,
    ``target_nde_rr`` the true ratio-scale direct effect to aim for, and
    ``anchor`` the mediator probability for u=1 under a=1.
    """
    if not 0.0 < posterior_mass <= 1.0:
        raise BadParameter("posterior_mass must be in (0, 1]")
    if rr_au < 1.0 or rr_uy < 1.0:
        raise BadParameter("rr_au and rr_uy must be at least 1")
    if not 0.0 < anchor < 1.0 or not 0.0 < outcome_ceiling <= 1.0 or target_nde_rr < 1.0:
        raise BadParameter("need 0 < anchor < 1, 0 < outcome_ceiling <= 1, target_nde_rr >= 1")
    prior_mass = posterior_mass / rr_au
    if prior_mass > 1.0:
        raise BadParameter("posterior_mass/rr_au must not exceed 1")
    p = posterior_mass
    anchor_other = (
        0.0 if p == 1.0 else anchor * prior_mass * (1.0 - p) / (p * (1.0 - prior_mass))
    )
    y_base = outcome_ceiling / rr_uy
    y_other_level = outcome_ceiling + 0.5 * (1.0 - outcome_ceiling)
    y_control = y_base * (prior_mass * rr_uy + 1.0 - prior_mass) / target_nde_rr
    return Scm(
        u_prior=(1.0 - prior_mass, prior_mass),
        a_given_u=(0.5, 0.5),
        m_given=(
            ((0.0, 1.0), (0.0, 1.0)),
            ((1.0 - anchor_other, anchor_other), (1.0 - anchor, anchor)),
        ),
        y_given=(
            ((0.5 * y_control, 0.5 * y_control), (y_control, y_control)),
            ((y_other_level, y_other_level), (y_base, y_base * rr_uy)),
        ),
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Best attainment found per bound; all four approach 1 under the recipe."""

    seed: int
    iterations: int
    evaluated: int
    nde_rr: float
    nie_rr: float
    nde_rd: float
    nie_rd: float


def _attainments(report: ValidityReport) -> dict[str, float]:
    out = {"nde_rr": report.nde_rr_attainment}
    out["nie_rr"] = report.true.nie_rr / adjust_nie_rr(report.observed.nie_rr, report.bf)
    if report.true.nde_rd > 0.0 and report.nde_rd_lower > 0.0:
        out["nde_rd"] = report.nde_rd_lower / report.true.nde_rd
    if report.true.nie_rd > 0.0 and report.nie_rd_upper > 0.0:
        out["nie_rd"] = report.true.nie_rd / report.nie_rd_upper
    return out


_POSTERIOR_MASS_GRID = (0.999, 0.9999, 0.99999, 0.999999)


def sharpness_search(seed: int, iterations: int = 200) -> SharpnessReport:
    """Drive every bound toward equality; deterministic given the seed.

    Sweeps the recipe over random parameter draws and a fixed grid of
    posterior-mass values approaching 1, plus jittered variants, and
    returns the supremum attainment seen per bound.  Every evaluated model
    must also pass :func:`verify_bounds`; a violation raises
    :class:`InternalCheckError`.
    """
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
        for mass in _POSTERIOR_MASS_GRID + (mass_extra,):
            for x, y in ((rr_au, rr_uy), (rr_au * jitter, rr_uy / jitter)):
                scm = recipe_scm(
                    max(1.0, x),
                    max(1.0, y),
                    mass,
                    anchor=anchor,
                    outcome_ceiling=ceiling,
                    target_nde_rr=target,
                )
                report = verify_bounds(scm)
                if not report.all_hold:
                    raise InternalCheckError(
                        f"sharpness construction violated a bound: {report.checks!r}"
                    )
                evaluated += 1
                for key, value in _attainments(report).items():
                    if value > best[key]:
                        best[key] = value
    return SharpnessReport(
        seed=seed,
        iterations=iterations,
        evaluated=evaluated,
        nde_rr=best["nde_rr"],
        nie_rr=best["nie_rr"],
        nde_rd=best["nde_rd"],
        nie_rd=best["nie_rd"],
    )


# ---------------------------------------------------------------------------
# Batch verification for the command line
# ---------------------------------------------------------------------------


def validity_battery(
    seed: int,
    iterations: int = 1000,
    u_card: int = 2,
    m_card: int = 2,
    *,
    extreme: bool = False,
    mode: Literal["probability", "mean"] = "probability",
    dependent_exposure: bool = False,
    ratio_iterations: int = 1000,
    sharpness_iterations: int = 50,
) -> dict:
    """Run the full verification battery and summarize it as a plain dict.

    Deterministic given the seed.  ``violations`` counts must be zero for a
    healthy build; the CLI turns nonzero counts into exit code 4.
    """
    for name, value in (("iterations", iterations), ("u_card", u_card), ("m_card", m_card)):
        if value < 1:
            raise BadParameter(f"{name} must be at least 1, got {value}")
    rng = np.random.default_rng(seed)
    floor = 0.0 if extreme else 1e-4
    y_max = 5.0 if mode == "mean" else 1.0

    worst_slack: dict[str, float] = {}
    violations = 0
    equiv_max = 0.0
    equiv_violations = 0
    for _ in range(iterations):
        scm = sample_scm(
            rng,
            u_card,
            m_card,
            floor=floor,
            mode=mode,
            y_max=y_max,
            dependent_exposure=dependent_exposure,
        )
        if dependent_exposure:
            report_u = unexposed_nde_check(scm)
            checks = report_u.checks
        else:
            report_t = verify_bounds(scm)
            checks = report_t.checks
            diff = abs(rr_au_posterior(scm) - rr_au_mediator_ratio(scm))
            rel = diff / max(1.0, rr_au_posterior(scm))
            equiv_max = max(equiv_max, rel)
            if rel > EQUIV_TOL:
                equiv_violations += 1
        for check in checks:
            worst_slack[check.name] = max(worst_slack.get(check.name, -math.inf), check.slack)
            if not check.holds:
                violations += 1

    ratio_violations = 0
    ratio_max_excess = -math.inf
    for _ in range(ratio_iterations):
        inst = sample_ratio_instance(rng, int(rng.integers(2, 7)))
        res = check_ratio_bound(inst)
        ratio_max_excess = max(ratio_max_excess, res.lhs - res.rhs)
        if not res.holds:
            ratio_violations += 1

    sharp = sharpness_search(seed=seed + 1, iterations=sharpness_iterations)

    return {
        "config": {
            "seed": seed,
            "iterations": iterations,
            "u_card": u_card,
            "m_card": m_card,
            "extreme": extreme,
            "mode": mode,
            "dependent_exposure": dependent_exposure,
            "ratio_iterations": ratio_iterations,
            "sharpness_iterations": sharpness_iterations,
        },
        "bound_validity": {
            "iterations": iterations,
            "violations": violations,
            "worst_slack": {k: worst_slack[k] for k in sorted(worst_slack)},
        },
        "definition_equivalence": (
            None
            if dependent_exposure
            else {"max_relative_difference": equiv_max, "violations": equiv_violations}
        ),
        "ratio_bound_dominance": {
            "iterations": ratio_iterations,
            "violations": ratio_violations,
            "max_excess": ratio_max_excess,
        },
        "sharpness": {
            "seed": sharp.seed,
            "iterations": sharp.iterations,
            "evaluated": sharp.evaluated,
            "best_attainment": {
                "nde_rr": sharp.nde_rr,
                "nie_rr": sharp.nie_rr,
                "nde_rd": sharp.nde_rd,
                "nie_rd": sharp.nie_rd,
            },
        },
    }
