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
one, and :func:`sharpness_search` reports the best attainment found over
batches of recipe models.

:func:`check_ratio_bound` verifies the scalar inequality underlying all of the
bounds (the weighted-mean ratio capped by the bounding factor) on explicit
discrete instances, one or a padded batch at a time, including the
two-point family that attains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bounds import SensitivitySpec, bound_report, bounding_factor
from .effects import Effects
from .errors import (
    BadParameter,
    InternalCheckError,
    UnreachableCell,
    ZeroDenominator,
    ZeroProbability,
)
from .tables import ConditionalModel, crossworld_sums

#: inequality checks allow this much relative slack for float rounding
VALIDITY_TOL = 1e-10
#: two forms of the collider parameter (also the log-linear closed form) must agree within this
EQUIV_TOL = 1e-10
#: discrete instances must satisfy the scalar bound within this
RATIO_BOUND_TOL = 1e-12

_DIST_TOL = 1e-9  # constructed distributions must sum to one within this
#: models checked at once by :func:`validity_battery`; bounds its peak memory
BATTERY_BATCH = 256
#: iterations of :func:`sharpness_search` checked at once, 10 models each; bounds its peak memory
SHARPNESS_BATCH = 1000
#: scalar-inequality instances checked at once by :func:`validity_battery`
RATIO_BATCH = 4096
#: largest u_card * m_card of :func:`validity_battery`; one batch at the cap adds 100-190 MB
MAX_CARD_PRODUCT = 4096
_SCM_TABLES = ("u_prior", "a_given_u", "m_given", "y_given")


def _cell(what: str, mask: np.ndarray) -> str:
    """``what`` filled with the trailing indices of the first True entry of ``mask``."""
    index = np.argwhere(mask)[0]
    return what.format(*index[index.size - what.count("{}"):])


def _check_dist(values, what: str) -> None:
    """Each row over the last axis must be a distribution; ``what`` names a row by its indices."""
    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values >= 0.0)).all(axis=-1)
    if bad.any():
        raise BadParameter(f"{_cell(what, bad)} has a negative or non-finite entry")
    total = values.sum(axis=-1)
    bad = ~(np.abs(total - 1.0) <= _DIST_TOL)
    if bad.any():
        raise BadParameter(f"{_cell(what, bad)} sums to {float(total[bad][0])!r}, not 1")


@dataclass(frozen=True, eq=False)
class Scm:
    """Synthetic joint model over (A, M, Y, U) for one covariate stratum.

    Fields are read-only float arrays ``u_prior[..., u]``,
    ``a_given_u[..., u]`` = pr(A=1|u), ``m_given[..., a, u, m]`` = pr(m|a,u)
    and ``y_given[..., a, m, u]`` = pr(Y=1|a,m,u), so one model is indexed
    ``m_given[a][u][m]`` and ``y_given[a][m][u]``.  Optional leading axes,
    the same on every field, make the Scm a batch of models that every
    function here evaluates at once, returning one value per model.
    With ``a_independent_u`` set, pr(A=1|u) must be constant in u and the
    true-effect formulas apply; without it :func:`verify_bounds` checks the
    direct-effect bounds among the unexposed only.
    """

    u_prior: np.ndarray
    a_given_u: np.ndarray
    m_given: np.ndarray
    y_given: np.ndarray
    a_independent_u: bool = True
    mode: Literal["probability", "mean"] = "probability"

    def __post_init__(self) -> None:
        tables = {name: np.array(getattr(self, name), dtype=float) for name in _SCM_TABLES}
        prior, a_given, m_given, y_given = tables.values()
        batch, nu = prior.shape[:-1], prior.shape[-1]
        nm = m_given.shape[-1]
        if (
            a_given.shape != (*batch, nu)
            or m_given.shape != (*batch, 2, nu, nm)
            or y_given.shape != (*batch, 2, nm, nu)
        ):
            raise BadParameter(
                f"need u_prior[..., u], a_given_u[..., u], m_given[..., a, u, m] and "
                f"y_given[..., a, m, u]; got shapes {prior.shape}, {a_given.shape}, "
                f"{m_given.shape}, {y_given.shape}"
            )
        _check_dist(prior, "u_prior")
        bad = ~((a_given >= 0.0) & (a_given <= 1.0))
        if bad.any():
            raise BadParameter(f"{_cell('pr(A=1|u={})', bad)} = {float(a_given[bad][0])!r}")
        if self.a_independent_u and (np.ptp(a_given, axis=-1) > 1e-12).any():
            raise BadParameter("a_independent_u set but pr(A=1|u) varies with u")
        _check_dist(m_given, "pr(m|a={},u={})")
        top = 1.0 if self.mode == "probability" else np.inf
        bad = ~(np.isfinite(y_given) & (y_given >= 0.0) & (y_given <= top))
        if bad.any():
            cell = _cell("y_given[a={}][m={}][u={}]", bad)
            raise BadParameter(f"{cell} = {float(y_given[bad][0])!r}")
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.u_prior.shape[:-1]

    @property
    def u_card(self) -> int:
        return self.u_prior.shape[-1]

    @property
    def m_card(self) -> int:
        return self.m_given.shape[-1]


def _exposure_posteriors(scm: Scm) -> np.ndarray:
    """pr(u | A=a) as ``[..., a, u]``; the prior in both arms when exposure is independent of u."""
    if scm.a_independent_u:
        return np.repeat(scm.u_prior[..., None, :], 2, axis=-2)
    joint = np.stack([1.0 - scm.a_given_u, scm.a_given_u], axis=-2) * scm.u_prior[..., None, :]
    total = joint.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        arm = _cell("a={}", total[..., 0] <= 0.0)
        raise UnreachableCell(f"exposure arm {arm} has zero probability")
    return joint / total


def _mediator_joint(scm: Scm) -> tuple[np.ndarray, np.ndarray]:
    """pr(u, m | a) as ``[..., a, u, m]`` and its marginal pr(m | a) as ``[..., a, m]``."""
    joint = _exposure_posteriors(scm)[..., None] * scm.m_given
    return joint, joint.sum(axis=-2)


def observed_model(scm: Scm) -> ConditionalModel:
    """Exact marginal tables pr(Y=1|a,m) and pr(m|a), one stratum per model.

    Outcome cells for (a, m) pairs that no downstream formula weights are
    filled with 0.0.  A mediator level reachable under a=0 but not under
    a=1 makes the direct-effect formulas undefined and raises
    :class:`UnreachableCell`.
    """
    joint, w = _mediator_joint(scm)
    unreachable = (w[..., 0, :] > 0.0) & (w[..., 1, :] == 0.0)
    if unreachable.any():
        raise UnreachableCell(
            f"mediator level {_cell('m={}', unreachable)} reachable under a=0 but not under a=1"
        )
    y_joint = (joint * np.swapaxes(scm.y_given, -1, -2)).sum(axis=-2)
    y = np.zeros(w.shape)
    np.divide(y_joint, w, out=y, where=w > 0.0)
    shape = (-1, 2, scm.m_card)
    return ConditionalModel(y.reshape(shape), w.reshape(shape), mode=scm.mode)


def _unexposed_sums(scm: Scm) -> tuple:
    """``(n10, n00, n11)`` of the tables within each confounder level, averaged over pr(u | A=0).

    Averaging over the confounder *after* the mediator weighting is exactly
    where ignoring U goes wrong; with exposure independent of U these are
    the true cross-world sums.
    """
    per_u = crossworld_sums(np.moveaxis(scm.y_given, -1, -3), np.swapaxes(scm.m_given, -3, -2))
    pu0 = _exposure_posteriors(scm)[..., 0, :]
    return tuple((s * pu0).sum(axis=-1)[()] for s in per_u)


def true_effects(scm: Scm) -> Effects:
    """Exact natural effects with the confounder integrated out correctly.

    The cross-world term pr(Y_{1,M_0}=1) averages pr(Y=1|1,m,u) against the
    mediator distribution under a=0 *within* each confounder level before
    averaging over the prior.  Requires exposure independent of the
    confounder.
    """
    if not scm.a_independent_u:
        raise BadParameter("true natural effects need exposure independent of the confounder")
    return Effects.from_sums(*_unexposed_sums(scm))


def rr_uy(scm: Scm) -> float:
    """Confounder-outcome parameter: max over m of max_u/min_u pr(Y=1|1,m,u)."""
    y1 = scm.y_given[..., 1, :, :]
    low = y1.min(axis=-1)
    if (low <= 0.0).any():
        raise ZeroProbability(f"{_cell('pr(Y=1|a=1,m={},u)', low <= 0.0)} has a zero cell")
    return (y1.max(axis=-1) / low).max(axis=-1)[()]


def _live_mediators(w: np.ndarray) -> np.ndarray:
    """Mask ``[..., m]`` of mediator levels reachable under both exposure arms."""
    live = (w[..., 0, :] > 0.0) & (w[..., 1, :] > 0.0)
    if not live.any(axis=-1).all():
        raise ZeroProbability("no mediator level is reachable under both exposure arms")
    return live


def _posterior_ratios(scm: Scm) -> tuple[np.ndarray, np.ndarray]:
    """max_u pr(u|A=1,m) / pr(u|A=0,m) as ``[..., m]``, and the mask of live levels m.

    Levels not reachable under both arms hold 0, which never wins a maximum.
    """
    joint, w = _mediator_joint(scm)
    live = _live_mediators(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = joint / w[..., None, :]
        ratio = post[..., 1, :, :] / post[..., 0, :, :]
    zero = live[..., None, :] & (post[..., 0, :, :] == 0.0)
    if (zero & (post[..., 1, :, :] > 0.0)).any():
        where = _cell("u={},m={}", zero & (post[..., 1, :, :] > 0.0))
        raise ZeroProbability(f"pr(u|a=0,m) = 0 while pr(u|a=1,m) > 0 at {where}")
    ratio = np.where(live[..., None, :] & ~zero, ratio, 0.0)
    return ratio.max(axis=-2), live


def rr_au_posterior_per_mediator(scm: Scm) -> dict[int, float]:
    """Collider parameter per mediator level, posterior form.

    For each m reachable under both arms: max over u of
    pr(u|A=1,m) / pr(u|A=0,m), computed by Bayes' rule.  Works with or
    without exposure-confounder dependence.  For a batch, the keys are the
    levels reachable in some model, with 0 for the models where they are not.
    """
    per_m, live = _posterior_ratios(scm)
    return {m: per_m[..., m][()] for m in range(scm.m_card) if live[..., m].any()}


def rr_au_posterior(scm: Scm) -> float:
    """Collider parameter: max over mediator levels of the posterior form."""
    return _posterior_ratios(scm)[0].max(axis=-1)[()]


def rr_au_mediator_ratio(scm: Scm) -> float:
    """Collider parameter, alternative form via mediator relative risks.

    max over (m, u) of [pr(m|1,u)/pr(m|0,u)] / [pr(m|1)/pr(m|0)], over the
    mediator levels reachable under both arms.  Equals the posterior form
    exactly when exposure is independent of the confounder, which this
    form requires.
    """
    if not scm.a_independent_u:
        raise BadParameter("the mediator-ratio form needs exposure independent of the confounder")
    _, w = _mediator_joint(scm)
    live = _live_mediators(w)[..., None, :]
    m0, m1 = scm.m_given[..., 0, :, :], scm.m_given[..., 1, :, :]
    zero = live & (m0 == 0.0)
    if (zero & (m1 > 0.0)).any():
        where = _cell("u={},m={}", zero & (m1 > 0.0))
        raise ZeroProbability(f"pr(m|a=0,u) = 0 while pr(m|a=1,u) > 0 at {where}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (m1 / m0) / (w[..., None, 1, :] / w[..., None, 0, :])
    return np.where(live & ~zero, ratio, 0.0).max(axis=(-2, -1))[()]


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs <= rhs with its signed slack (negative is good).

    For a batch of models every field holds one entry per model.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


def _check(name: str, lhs, rhs, tol: float) -> InequalityCheck:
    slack = lhs - rhs
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return InequalityCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, holds=slack <= tol * scale)


@dataclass(frozen=True)
class ValidityReport:
    """Exact sensitivity parameters and the bound checks, per model.

    ``observed`` is the :func:`~medsens.bounds.bound_report` of the model's
    observed tables under its exact parameters, each entry shaped like the
    batch; ``true`` holds the effects among the unexposed, which are the
    natural effects when exposure is independent of the confounder.
    """

    observed: dict
    true: Effects
    rr_au: float
    rr_uy: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(bool(np.all(c.holds)) for c in self.checks)

    @property
    def nde_rr_attainment(self) -> float:
        """How much of the ratio-scale direct-effect bound is used, in (0, 1]."""
        return (self.observed["nde_rr"] / self.true.nde_rr) / self.observed["bf"]


def verify_bounds(scm: Scm, tol: float = VALIDITY_TOL) -> ValidityReport:
    """Check the bounds against the exact truth of a synthetic model or batch.

    The observed side is one :func:`~medsens.bounds.bound_report` call on
    the marginal tables, the code path users run, with the models on its
    stratum axis; only the sensitivity parameters and the true effects come
    from the joint model.  The direct-effect bounds are checked against the
    effects among the unexposed, which survive exposure-confounder
    dependence; those checks are named ``unexposed_...`` when exposure
    depends on the confounder, and the indirect-effect bounds are checked
    only when it does not.  Any failed check indicates a bug, not an
    unlucky draw.
    """
    model = observed_model(scm)
    rau, ruy = rr_au_posterior(scm), rr_uy(scm)
    spec = SensitivitySpec(rr_au=np.ravel(rau), rr_uy=np.ravel(ruy))
    report = bound_report(model.y, model.w, spec)  # one "stratum" per model
    obs = {name: value.reshape(scm.batch_shape)[()] for name, value in report.items()}
    true = Effects.from_sums(*_unexposed_sums(scm))
    prefix = "" if scm.a_independent_u else "unexposed_"
    checks = (
        _check(f"{prefix}nde_rr_ratio_vs_bf", obs["nde_rr"] / true.nde_rr, obs["bf"], tol),
        _check(f"{prefix}nde_rd_lower_vs_true", obs["nde_rd_lower"], true.nde_rd, tol),
    )
    if scm.a_independent_u:
        checks += (
            _check("nie_rr_true_vs_upper", true.nie_rr, obs["nie_rr_upper"], tol),
            _check("nie_rd_true_vs_upper", true.nie_rd, obs["nie_rd_upper"], tol),
        )
    return ValidityReport(observed=obs, true=true, rr_au=rau, rr_uy=ruy, checks=checks)


# ---------------------------------------------------------------------------
# The scalar inequality on explicit discrete instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteRatioInstance:
    """Two probability vectors and a nonnegative weight function on a finite domain.

    Fields are read-only float arrays ``f0[..., x]``, ``f1[..., x]`` and
    ``r[..., x]``.  Optional leading axes, the same on every field, make a
    batch of instances that the methods here and :func:`check_ratio_bound`
    evaluate at once, one value per instance.  Instances of different
    domain sizes share a batch when padded with ``f0 = f1 = 0`` and
    ``r = r[..., 0]``: the padding changes no sum, no density ratio and no
    weight spread.
    """

    f0: np.ndarray
    f1: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        f0, f1, r = (np.array(getattr(self, name), dtype=float) for name in ("f0", "f1", "r"))
        if f0.ndim == 0 or f0.shape[-1] == 0 or f1.shape != f0.shape or r.shape != f0.shape:
            raise BadParameter("f0, f1, r must share one nonempty domain")
        _check_dist(f0, "f0")
        _check_dist(f1, "f1")
        bad = ~(np.isfinite(r) & (r >= 0.0))
        if bad.any():
            raise BadParameter(f"r must be nonnegative and finite, got {float(r[bad][0])!r}")
        for name, values in (("f0", f0), ("f1", f1), ("r", r)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def max_density_ratio(self) -> float:
        """Largest f1/f0 over the domain; needs f1 absolutely continuous w.r.t. f0."""
        mass = self.f1 > 0.0
        orphan = mass & (self.f0 == 0.0)
        if orphan.any():
            raise ZeroDenominator(f"f1 puts mass on {_cell('x={}', orphan)} where f0 has none")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mass, self.f1 / self.f0, 0.0).max(axis=-1)[()]

    def weight_spread(self) -> float:
        """max r / min r; 1 for any constant r."""
        high, low = self.r.max(axis=-1), self.r.min(axis=-1)
        constant = high == low
        if (~constant & (low <= 0.0)).any():
            raise BadParameter("non-constant r needs a strictly positive minimum")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(constant, 1.0, high / low)[()]


@dataclass(frozen=True)
class RatioBoundResult:
    """The scalar inequality on one instance, or one entry per instance of a batch."""

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
    num = (inst.r * inst.f1).sum(axis=-1)
    den = (inst.r * inst.f0).sum(axis=-1)
    if (den == 0.0).any():
        raise ZeroDenominator("sum of r against f0 is zero")
    g = inst.max_density_ratio()
    d = inst.weight_spread()
    lhs = (num / den)[()]
    # a density ratio that rounds just below its floor of 1 is taken as 1
    rhs = bounding_factor(SensitivitySpec(rr_au=np.maximum(g, 1.0), rr_uy=d))
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
    shape: tuple[int, ...] = (),
) -> Scm:
    """Random synthetic model, or a batch of models of the given ``shape``.

    Cells are drawn uniformly then normalized.  ``floor`` keeps drawn cells
    away from zero so ratio parameters stay moderate; pass 0.0 for stress
    tests.  ``y_max`` above 1 requires mean mode.  Exposure is a constant
    1/2 unless ``dependent_exposure``.  Each model takes one consecutive
    block of the generator's stream, so a batch of B models is the same B
    models, and leaves the generator in the same state, as B unbatched
    calls.
    """
    if mode == "probability" and y_max > 1.0:
        raise BadParameter("probability mode caps outcome cells at 1")
    if floor < 0.0 or floor >= 1.0:
        raise BadParameter("floor must be in [0, 1)")
    nu, nm = u_card, m_card
    sizes = [nu, nu if dependent_exposure else 0, 2 * nu * nm, 2 * nm * nu]
    u_raw, a_raw, m_raw, y_raw = np.split(
        rng.random((*shape, sum(sizes))), np.cumsum(sizes)[:-1], axis=-1
    )

    def dist(raw: np.ndarray) -> np.ndarray:
        cells = floor + (1.0 - floor) * raw  # uniform(floor, 1), as rng.uniform draws it
        return cells / cells.sum(axis=-1, keepdims=True)

    y_low = floor * y_max if floor > 0.0 else 1e-12
    return Scm(
        u_prior=dist(u_raw),
        a_given_u=0.05 + (0.95 - 0.05) * a_raw if dependent_exposure else np.full((*shape, nu), 0.5),
        m_given=dist(m_raw.reshape(*shape, 2, nu, nm)),
        y_given=y_low + (y_max - y_low) * y_raw.reshape(*shape, 2, nm, nu),
        a_independent_u=not dependent_exposure,
        mode=mode,
    )


def sample_ratio_instances(rng: np.random.Generator, count: int) -> DiscreteRatioInstance:
    """A batch of ``count`` random instances with strictly positive densities and weights.

    Each instance draws its domain size from ``rng.integers(2, 7)``, then f0
    and f1 from uniform(0.05, 1) normalized, and r from uniform(0.1, 10), so
    the batch takes the stream of drawing its instances one by one.  It is
    padded to the widest domain, 6.
    """
    raw = np.full((count, 3, 6), np.nan)
    for row in raw:
        size = rng.integers(2, 7)
        row[:, :size] = rng.random((3, size))  # one uniform(size) draw each for f0, f1, r
    pad = np.isnan(raw[:, 0])
    f = np.where(pad[:, None], 0.0, 0.05 + (1.0 - 0.05) * raw[:, :2])
    f /= f.sum(axis=-1, keepdims=True)
    r = 0.1 + (10.0 - 0.1) * raw[:, 2]
    return DiscreteRatioInstance(f0=f[:, 0], f1=f[:, 1], r=np.where(pad, r[:, :1], r))


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
    ``anchor`` the mediator probability for u=1 under a=1.  Every parameter
    may be an array; they broadcast to the batch shape of the returned Scm,
    one model per entry.
    """
    rr_au, rr_uy, p, anchor, ceiling, target = np.broadcast_arrays(
        rr_au, rr_uy, posterior_mass, anchor, outcome_ceiling, target_nde_rr
    )
    if not np.all((0.0 < p) & (p <= 1.0)):
        raise BadParameter("posterior_mass must be in (0, 1]")
    if not np.all((rr_au >= 1.0) & (rr_uy >= 1.0)):
        raise BadParameter("rr_au and rr_uy must be at least 1")
    if not np.all((0.0 < anchor) & (anchor < 1.0) & (0.0 < ceiling) & (ceiling <= 1.0)
                  & (target >= 1.0)):
        raise BadParameter("need 0 < anchor < 1, 0 < outcome_ceiling <= 1, target_nde_rr >= 1")
    prior_mass = p / rr_au
    if (prior_mass > 1.0).any():
        raise BadParameter("posterior_mass/rr_au must not exceed 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        anchor_other = np.where(
            p == 1.0, 0.0, anchor * prior_mass * (1.0 - p) / (p * (1.0 - prior_mass))
        )
    y_base = ceiling / rr_uy
    y_other_level = ceiling + 0.5 * (1.0 - ceiling)
    y_control = y_base * (prior_mass * rr_uy + 1.0 - prior_mass) / target
    zero = np.zeros(p.shape)
    one = zero + 1.0

    def table(nested, ndim: int) -> np.ndarray:
        """The nesting of ``nested`` as trailing axes after the batch axes."""
        return np.moveaxis(np.array(nested), range(ndim), range(-ndim, 0))

    return Scm(
        u_prior=table((1.0 - prior_mass, prior_mass), 1),
        a_given_u=np.full((*p.shape, 2), 0.5),
        m_given=table(
            (((zero, one), (zero, one)),
             ((1.0 - anchor_other, anchor_other), (1.0 - anchor, anchor))),
            3,
        ),
        y_given=table(
            (((0.5 * y_control, 0.5 * y_control), (y_control, y_control)),
             ((y_other_level, y_other_level), (y_base, y_base * rr_uy))),
            3,
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


def _attainments(report: ValidityReport) -> dict[str, np.ndarray]:
    """Attainment of each bound per model; rd ones are 0 where an effect or bound is <= 0."""
    true, obs = report.true, report.observed
    lower, upper = obs["nde_rd_lower"], obs["nie_rd_upper"]
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "nde_rr": report.nde_rr_attainment,
            "nie_rr": true.nie_rr / obs["nie_rr_upper"],
            "nde_rd": np.where((true.nde_rd > 0.0) & (lower > 0.0), lower / true.nde_rd, 0.0),
            "nie_rd": np.where((true.nie_rd > 0.0) & (upper > 0.0), true.nie_rd / upper, 0.0),
        }


_POSTERIOR_MASS_GRID = (0.999, 0.9999, 0.99999, 0.999999)
#: uniform ranges of the per-iteration draws of :func:`sharpness_search`, in draw order:
#: rr_au, rr_uy, outcome ceiling, target, anchor, jitter - 1, extra posterior mass
_SHARPNESS_RANGES = np.array(
    [(1.2, 6.0), (1.2, 6.0), (0.3, 0.9), (1.3, 3.0), (0.5, 0.95), (-0.05, 0.05), (0.99, 0.999999)]
)


def _recipe_batch(rng: np.random.Generator, iterations: int) -> Scm:
    """The recipe models of the next ``iterations`` draws, one batch ``[iteration, mass, pair]``."""
    low, high = _SHARPNESS_RANGES.T
    draws = low + (high - low) * rng.random((iterations, len(low)))  # as rng.uniform scales
    rr_au, rr_uy, ceiling, target, anchor, jitter, mass_extra = draws.T[..., None, None]
    jitter = 1.0 + jitter
    mass = np.concatenate(
        [np.broadcast_to(np.array(_POSTERIOR_MASS_GRID)[:, None], (iterations, 4, 1)), mass_extra],
        axis=1,
    )
    return recipe_scm(
        np.maximum(1.0, np.concatenate([rr_au, rr_au * jitter], axis=-1)),
        np.maximum(1.0, np.concatenate([rr_uy, rr_uy / jitter], axis=-1)),
        mass,
        anchor=anchor,
        outcome_ceiling=ceiling,
        target_nde_rr=target,
    )


def sharpness_search(seed: int, iterations: int = 200) -> SharpnessReport:
    """Drive every bound toward equality; deterministic given the seed.

    Sweeps the recipe over random parameter draws and a fixed grid of
    posterior-mass values approaching 1, plus jittered variants, and
    returns the supremum attainment seen per bound.  Each iteration draws
    seven uniforms and builds 10 models: 5 posterior masses times the
    drawn and the jittered parameter pair.  Up to ``SHARPNESS_BATCH``
    iterations form one :class:`Scm` batch, checked by one
    :func:`verify_bounds` call; a violation raises
    :class:`InternalCheckError`.
    """
    rng = np.random.default_rng(seed)
    best = dict.fromkeys(("nde_rr", "nie_rr", "nde_rd", "nie_rd"), 0.0)
    for start in range(0, iterations, SHARPNESS_BATCH):
        report = verify_bounds(_recipe_batch(rng, min(SHARPNESS_BATCH, iterations - start)))
        if not report.all_hold:
            bad = np.argwhere(~np.logical_and.reduce([c.holds for c in report.checks]))[0]
            slacks = {c.name: float(c.slack[tuple(bad)]) for c in report.checks}
            raise InternalCheckError(
                f"sharpness construction violated a bound at (iteration, mass, pair) "
                f"{(start + int(bad[0]), int(bad[1]), int(bad[2]))}: slacks {slacks!r}"
            )
        for key, value in _attainments(report).items():
            best[key] = max(best[key], float(value.max()))
    return SharpnessReport(seed=seed, iterations=iterations, evaluated=10 * iterations, **best)


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
    for name, value in (
        ("iterations", iterations),
        ("u_card", u_card),
        ("m_card", m_card),
        ("ratio_iterations", ratio_iterations),
        ("sharpness_iterations", sharpness_iterations),
    ):
        if value < 1:
            raise BadParameter(f"{name} must be at least 1, got {value}")
    if u_card * m_card > MAX_CARD_PRODUCT:
        raise BadParameter(
            f"u_card * m_card (--u-card times --m-card) must be at most {MAX_CARD_PRODUCT}, "
            f"got {u_card} * {m_card}"
        )
    rng = np.random.default_rng(seed)
    floor = 0.0 if extreme else 1e-4
    y_max = 5.0 if mode == "mean" else 1.0

    worst_slack: dict[str, float] = {}
    violations = 0
    equiv_max = 0.0
    equiv_violations = 0
    for start in range(0, iterations, BATTERY_BATCH):
        scm = sample_scm(
            rng,
            u_card,
            m_card,
            floor=floor,
            mode=mode,
            y_max=y_max,
            dependent_exposure=dependent_exposure,
            shape=(min(BATTERY_BATCH, iterations - start),),
        )
        report = verify_bounds(scm)
        if not dependent_exposure:
            rel = np.abs(report.rr_au - rr_au_mediator_ratio(scm)) / np.maximum(1.0, report.rr_au)
            equiv_max = max(equiv_max, float(rel.max()))
            equiv_violations += int(np.count_nonzero(rel > EQUIV_TOL))
        for check in report.checks:
            worst = float(check.slack.max())
            worst_slack[check.name] = max(worst_slack.get(check.name, -math.inf), worst)
            violations += int(np.count_nonzero(~check.holds))

    ratio_violations, ratio_max_excess = 0, -math.inf
    for start in range(0, ratio_iterations, RATIO_BATCH):
        count = min(RATIO_BATCH, ratio_iterations - start)
        ratio = check_ratio_bound(sample_ratio_instances(rng, count))
        ratio_violations += int(np.count_nonzero(~ratio.holds))
        ratio_max_excess = max(ratio_max_excess, float(np.max(ratio.lhs - ratio.rhs)))

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
