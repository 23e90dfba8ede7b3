"""Ground-truth engine for validity and sharpness of the sensitivity bounds.

An :class:`Scm` is a fully specified discrete model of (M, Y, U) given
exposure A within one covariate stratum:

    pr(u|A=a), pr(m|a,u), pr(Y=1|a,m,u)

Every natural effect and both sensitivity parameters condition on exposure,
so pr(A) enters none of them and the model does not hold it.  From the
model everything is computable exactly: the observed conditional tables
(marginalizing U within each arm), the true natural effects (averaging over
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
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tables
from .bounds import BOUND_STATS, SensitivitySpec, adjust, bound_report, effects_from_sums
from .errors import BadParameter, InternalCheckError, UnreachableCell, ZeroProbability
from .tables import (ConditionalModel, OutcomeMode, _check_outcomes, c_order_sum, check_table,
                     crossworld_sums, first_cell)

#: inequality checks allow this much relative slack for float rounding
VALIDITY_TOL = 1e-10
#: two forms of the collider parameter (also the log-linear closed form) must agree within this
EQUIV_TOL = 1e-10

#: largest u_card * m_card of :func:`validity_battery`
MAX_CARD_PRODUCT = 4096
_SCM_TABLES = ("u_given_a", "m_given", "y_given")


@dataclass(frozen=True, eq=False)
class Scm:
    """Synthetic model of (M, Y, U) given exposure A, for one covariate stratum.

    Fields are read-only float arrays ``u_given_a[..., a, u]`` = pr(u|A=a),
    ``m_given[..., a, u, m]`` = pr(m|a,u) and ``y_given[..., a, m, u]`` =
    pr(Y=1|a,m,u), so one model is indexed ``u_given_a[a][u]``,
    ``m_given[a][u][m]`` and ``y_given[a][m][u]``.  Optional leading axes,
    the same on every field, make the Scm a batch of models that every
    function here evaluates at once, returning one value per model.  The
    fields are stored with the model axes innermost in memory, so that each
    array operation runs one long loop over the models.
    Whether exposure is independent of the confounder is read from
    pr(u|A=a) (:attr:`a_independent_u`): if it is, the true-effect formulas
    apply; if not, :func:`verify_bounds` checks the direct-effect bounds
    among the unexposed only.  Mismatched shapes and an outcome mode other
    than ``probability`` or ``mean`` raise :class:`BadParameter`, an entry
    that is not finite or outside [0, 1] (outcome means in mean mode:
    [0, inf)) :class:`OutOfRangeProbability`, and a pr(u|A=a) or pr(m|a,u)
    that does not sum to 1 within ``tables.SUM_TOL`` :class:`NotNormalized`,
    so an exposure arm with no mass is refused as an empty row.
    """

    u_given_a: np.ndarray
    m_given: np.ndarray
    y_given: np.ndarray
    mode: OutcomeMode = "probability"

    def __post_init__(self) -> None:
        tables = {name: np.asarray(getattr(self, name), dtype=float) for name in _SCM_TABLES}
        u_given, m_given, y_given = tables.values()
        # each level count as a tuple, empty for a 0-d table, which then cannot match
        batch, nu, nm = u_given.shape[:-2], u_given.shape[-1:], m_given.shape[-1:]
        if (u_given.shape, m_given.shape, y_given.shape) != (
                (*batch, 2, *nu), (*batch, 2, *nu, *nm), (*batch, 2, *nm, *nu)):
            raise BadParameter(
                f"need u_given_a[..., a, u], m_given[..., a, u, m] and y_given[..., a, m, u]; "
                f"got shapes {u_given.shape}, {m_given.shape}, {y_given.shape}")
        check_table(u_given, "pr(u={1}|A={0})", rows="pr(u|A={})")
        check_table(m_given, "pr(m={2}|a={0},u={1})", rows="pr(m|a={},u={})")
        _check_outcomes(y_given, self.mode, "a={},m={},u={}")
        models = len(batch)
        for name, table in tables.items():  # a read-only copy, the model axes innermost
            own = table.ndim - models
            table = np.array(table.transpose(*range(models, table.ndim), *range(models)), order="C")
            table.setflags(write=False)
            object.__setattr__(self, name, table.transpose(*range(own, table.ndim), *range(own)))

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.u_given_a.shape[:-2]

    @property
    def u_card(self) -> int:
        return self.u_given_a.shape[-1]

    @property
    def m_card(self) -> int:
        return self.m_given.shape[-1]

    @functools.cached_property
    def a_independent_u(self) -> bool:
        """True when pr(u|A=1) equals pr(u|A=0), within 1e-12, in every model of the batch."""
        return bool((np.ptp(self.u_given_a, axis=-2) <= 1e-12).all())

    @functools.cached_property
    def _mediator_joint(self) -> tuple[np.ndarray, np.ndarray]:
        """pr(u, m | a) as ``[..., a, u, m]`` and its marginal pr(m | a) as ``[..., a, m]``."""
        joint = self.u_given_a[..., None] * self.m_given
        w = c_order_sum(joint, axis=-2)
        joint.flags.writeable = w.flags.writeable = False
        return joint, w


def observed_model(scm: Scm) -> ConditionalModel:
    """Exact marginal tables pr(Y=1|a,m) and pr(m|a), one stratum per model.

    Outcome cells for (a, m) pairs that no downstream formula weights are
    filled with 0.0.  A mediator level reachable under a=0 but not under
    a=1 makes the direct-effect formulas undefined and raises
    :class:`UnreachableCell`.
    """
    joint, w = scm._mediator_joint
    unreachable = (w[..., 0, :] > 0.0) & (w[..., 1, :] == 0.0)
    if unreachable.any():
        level = first_cell("m={}", unreachable)
        raise UnreachableCell(f"mediator level {level} reachable under a=0 but not under a=1")
    y_joint = c_order_sum(joint * np.swapaxes(scm.y_given, -1, -2), axis=-2)
    y = np.zeros_like(w)
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
    pu0 = scm.u_given_a[..., 0, :]
    return tuple(c_order_sum(s * pu0)[()] for s in per_u)


def rr_uy(scm: Scm) -> float:
    """Confounder-outcome parameter: max over m of max_u/min_u pr(Y=1|1,m,u)."""
    y1 = scm.y_given[..., 1, :, :]
    low = y1.min(axis=-1)
    if (low <= 0.0).any():
        raise ZeroProbability(f"{first_cell('pr(Y=1|a=1,m={},u)', low <= 0.0)} has a zero cell")
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
    joint, w = scm._mediator_joint
    live = _live_mediators(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = joint / w[..., None, :]
        ratio = post[..., 1, :, :] / post[..., 0, :, :]
    zero = live[..., None, :] & (post[..., 0, :, :] == 0.0)
    if (zero & (post[..., 1, :, :] > 0.0)).any():
        where = first_cell("u={},m={}", zero & (post[..., 1, :, :] > 0.0))
        raise ZeroProbability(f"pr(u|a=0,m) = 0 while pr(u|a=1,m) > 0 at {where}")
    ratio = np.where(live[..., None, :] & ~zero, ratio, 0.0)
    return ratio.max(axis=-2), live


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
    _, w = scm._mediator_joint
    live = _live_mediators(w)[..., None, :]
    m0, m1 = scm.m_given[..., 0, :, :], scm.m_given[..., 1, :, :]
    zero = live & (m0 == 0.0)
    if (zero & (m1 > 0.0)).any():
        where = first_cell("u={},m={}", zero & (m1 > 0.0))
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

    @property
    def attainment(self) -> float:
        """How much of the bound is used, lhs / rhs, where both sides are positive; else 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((self.lhs > 0.0) & (self.rhs > 0.0), self.lhs / self.rhs, 0.0)[()]


def _check(name: str, lhs, rhs) -> InequalityCheck:
    slack = lhs - rhs
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    holds = slack <= VALIDITY_TOL * scale
    return InequalityCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, holds=holds)


@dataclass(frozen=True)
class ValidityReport:
    """Exact sensitivity parameters and the bound checks, per model.

    ``observed`` holds the effects of the model's observed tables and their
    bounds under its exact parameters, each entry shaped like the batch;
    ``true`` holds, under the same keys, the effects among the unexposed,
    which are the natural effects when exposure is independent of the
    confounder.
    """

    observed: dict
    true: dict
    rr_au: float
    rr_uy: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(bool(np.all(c.holds)) for c in self.checks)


def verify_bounds(scm: Scm) -> ValidityReport:
    """Check the bounds against the exact truth of a synthetic model or batch.

    The observed side is the code path users run, ``bounds.bound_report``
    then ``bounds.adjust`` on the marginal tables, with the models on the
    stratum axis; only the sensitivity parameters and the true effects come
    from the synthetic model.  Each bound of ``bounds.BOUND_STATS``, in that
    order, is one check: a ``*_lower`` bound must not exceed the true effect
    of its name, and the true effect must not exceed a ``*_upper`` bound.
    The direct-effect bounds are checked against the effects among the
    unexposed, which survive exposure-confounder dependence; those checks
    are named ``unexposed_...`` when exposure depends on the confounder, and
    the indirect-effect bounds are checked only when it does not.  Any
    failed check indicates a bug, not an unlucky draw.
    """
    model = observed_model(scm)
    rau, ruy = rr_au_posterior(scm), rr_uy(scm)
    report = bound_report(model.y, model.w)  # one "stratum" per model
    report.update(adjust(report, SensitivitySpec(rr_au=np.ravel(rau), rr_uy=np.ravel(ruy))))
    obs = {name: value.reshape(scm.batch_shape)[()] for name, value in report.items()}
    true = effects_from_sums(*_unexposed_sums(scm))
    prefix = "" if scm.a_independent_u else "unexposed_"
    checks = []
    for bound in BOUND_STATS:  # the lower bounds are the direct-effect ones
        effect, side = bound.rsplit("_", 1)
        if side == "lower":
            checks.append(_check(f"{prefix}{bound}_vs_true", obs[bound], true[effect]))
        elif scm.a_independent_u:
            checks.append(_check(f"{effect}_true_vs_upper", true[effect], obs[bound]))
    return ValidityReport(observed=obs, true=true, rr_au=rau, rr_uy=ruy, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Samplers and the sharpness construction
# ---------------------------------------------------------------------------


def sample_scm(
    rng: np.random.Generator,
    u_card: int = 2,
    m_card: int = 2,
    *,
    floor: float = 1e-4,
    mode: OutcomeMode = "probability",
    dependent_exposure: bool = False,
    shape: tuple[int, ...] = (),
) -> Scm:
    """Random synthetic model, or a batch of models of the given ``shape``.

    Cells are drawn uniformly then normalized.  ``floor`` keeps drawn cells
    away from zero so ratio parameters stay moderate; pass 0.0 for stress
    tests.  Outcome cells are drawn up to 1, or up to 5 in mean mode.
    pr(u|A=a) is the drawn pr(u) in both arms unless ``dependent_exposure``;
    then it is formed by Bayes' rule from pr(u) and a drawn pr(A=1|u) in
    [0.05, 0.95].  Each model takes one consecutive block of the
    generator's stream, so a batch of B models is the same B models, and
    leaves the generator in the same state, as B unbatched calls.
    """
    if floor < 0.0 or floor >= 1.0:
        raise BadParameter("floor must be in [0, 1)")
    nu, nm = u_card, m_card
    sizes = [nu, nu if dependent_exposure else 0, 2 * nu * nm, 2 * nm * nu]
    # cell-major, so that the tables below have the model axes innermost in memory
    raw = np.moveaxis(rng.random((*shape, sum(sizes))), -1, 0).copy()
    u_raw, a_raw, m_raw, y_raw = np.split(raw, np.cumsum(sizes)[:-1])

    def table(cells: np.ndarray, *axes: int) -> np.ndarray:
        """``cells`` as ``[..., *axes]``, the leading axes the models."""
        return np.moveaxis(cells.reshape(*axes, *shape), range(len(axes)), range(-len(axes), 0))

    def uniform(cells: np.ndarray, low: float, high: float) -> np.ndarray:
        """``low + (high - low) * cells`` in place, as rng.uniform scales its draws."""
        cells *= high - low
        cells += low
        return cells

    def dist(cells: np.ndarray) -> np.ndarray:
        cells = uniform(cells, floor, 1.0)
        cells /= c_order_sum(cells, keepdims=True)
        return cells

    prior = dist(table(u_raw, nu))  # in place, so u_raw holds it cell-major
    if dependent_exposure:  # Bayes' rule over the cell-major block, the models innermost
        exposed = uniform(a_raw, 0.05, 0.95)
        joint = table(np.stack([1.0 - exposed, exposed]) * u_raw, 2, nu)
        u_given_a = joint / c_order_sum(joint, keepdims=True)
    else:
        u_given_a = np.broadcast_to(prior[..., None, :], (*shape, 2, nu))
    y_max = 5.0 if mode == "mean" else 1.0
    y_low = floor * y_max if floor > 0.0 else 1e-12
    return Scm(
        u_given_a=u_given_a,
        m_given=dist(table(m_raw, 2, nu, nm)),
        y_given=uniform(table(y_raw, 2, nm, nu), y_low, y_max),
        mode=mode,
    )


def _ratio_scm(f0, f1, r) -> Scm:
    """The scalar inequality under every bound as a model, or a batch over the leading axes.

    f0 and f1 are distributions over the confounder levels ``[..., u]`` and
    r positive weights on them.  One mediator level and outcome means ``r``
    in both arms, with pr(u|A=0) = f0 and pr(u|A=1) = f1, make the model's
    collider parameter max f1/f0 and its confounder-outcome one
    max r / min r, its observed ``nde_rr`` sum(r f1) / sum(r f0) and its
    true one 1, so the first check of :func:`verify_bounds`, ``nde_rr_lower``
    against the truth, is the inequality sum(r f1) / sum(r f0) <= bf.  Levels
    with f0 = f1 = 0 pad a batch to one width; to keep the spread of r, they
    take a weight already present.
    """
    r = np.asarray(r, dtype=float)
    arms = (*r.shape[:-1], 2, 1, r.shape[-1])  # [..., a, m, u]
    return Scm(
        u_given_a=np.stack([f0, f1], axis=-2),
        m_given=np.ones(arms).swapaxes(-1, -2),
        y_given=np.broadcast_to(r[..., None, None, :], arms),
        mode="mean",
    )


def sample_ratio_instances(rng: np.random.Generator, count: int) -> Scm:
    """A batch of ``count`` random instances of the scalar inequality, as :func:`_ratio_scm` models.

    Each instance takes one block of 19 uniforms from the stream, so a batch
    of B instances is the same B instances, and leaves the generator in the
    same state, as B batches of one.  The block's first uniform gives the
    domain size, 2 to 6; the next 18 give f0 and f1 from uniform(0.05, 1)
    normalized, and r from uniform(0.1, 10), six cells each, of which those
    past the size are padding.
    """
    raw = rng.random((count, 19))
    pad = np.arange(6) >= 2 + (5.0 * raw[:, :1]).astype(int)
    cells = raw[:, 1:].reshape(count, 3, 6)
    f = np.where(pad[:, None], 0.0, 0.05 + (1.0 - 0.05) * cells[:, :2])
    f /= f.sum(axis=-1, keepdims=True)
    r = 0.1 + (10.0 - 0.1) * cells[:, 2]
    return _ratio_scm(f[:, 0], f[:, 1], np.where(pad, r[:, :1], r))


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
    SensitivitySpec(rr_au, rr_uy)  # names a parameter below 1, or NaN
    if not np.all((0.0 < anchor) & (anchor < 1.0) & (0.0 < ceiling) & (ceiling <= 1.0)
                  & (target >= 1.0)):
        raise BadParameter("need 0 < anchor < 1, 0 < outcome_ceiling <= 1, target_nde_rr >= 1")
    prior_mass = p / rr_au
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
        u_given_a=table(((1.0 - prior_mass, prior_mass),) * 2, 2),
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
    """Best attainment found per bound, by effect; all four approach 1 under the recipe."""

    seed: int
    iterations: int
    evaluated: int
    best_attainment: dict[str, float]


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


def sharpness_search(seed: int, iterations: int) -> SharpnessReport:
    """Drive every bound toward equality; deterministic given the seed.

    Sweeps the recipe over random parameter draws and a fixed grid of
    posterior-mass values approaching 1, plus jittered variants, and
    returns the supremum attainment of each check, by the effect it
    bounds.  Each iteration draws seven uniforms and builds 10 models: 5
    posterior masses times the drawn and the jittered parameter pair.
    Consecutive iterations whose models hold at most ``tables.BATCH_CELLS``
    cells of pr(m | a, u), 8 per model, form one :class:`Scm` batch, checked
    by one :func:`verify_bounds` call; a violation raises :class:`InternalCheckError`.
    """
    rng = np.random.default_rng(seed)
    best = dict.fromkeys((bound.rsplit("_", 1)[0] for bound in BOUND_STATS), 0.0)
    batch = max(1, tables.BATCH_CELLS // (10 * 8))  # 10 models of 2 x 2 x 2 cells per iteration
    for start in range(0, iterations, batch):
        report = verify_bounds(_recipe_batch(rng, min(batch, iterations - start)))
        if not report.all_hold:
            bad = np.argwhere(~np.logical_and.reduce([c.holds for c in report.checks]))[0]
            slacks = {c.name: float(c.slack[tuple(bad)]) for c in report.checks}
            raise InternalCheckError(
                f"sharpness construction violated a bound at (iteration, mass, pair) "
                f"{(start + int(bad[0]), int(bad[1]), int(bad[2]))}: slacks {slacks!r}"
            )
        for key, check in zip(best, report.checks, strict=True):  # both follow BOUND_STATS
            best[key] = max(best[key], float(check.attainment.max()))
    return SharpnessReport(seed=seed, iterations=iterations, evaluated=10 * iterations,
                           best_attainment=best)


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
    mode: OutcomeMode = "probability",
    dependent_exposure: bool = False,
    ratio_iterations: int = 1000,
    sharpness_iterations: int = 50,
) -> dict:
    """Run the full verification battery and summarize it as a plain dict.

    Deterministic given the seed.  ``violations`` counts must be zero for a
    healthy build; the CLI turns nonzero counts into exit code 4.  The
    report's ``config`` holds every parameter, in signature order.
    """
    config = dict(locals())
    for name in ("iterations", "u_card", "m_card", "ratio_iterations", "sharpness_iterations"):
        if config[name] < 1:
            raise BadParameter(f"{name} must be at least 1, got {config[name]}")
    if u_card * m_card > MAX_CARD_PRODUCT:
        raise BadParameter(
            f"u_card * m_card (--u-card times --m-card) must be at most {MAX_CARD_PRODUCT}, "
            f"got {u_card} * {m_card}"
        )
    rng = np.random.default_rng(seed)
    floor = 0.0 if extreme else 1e-4

    worst_slack: dict[str, float] = {}
    violations = 0
    equiv_max = 0.0
    equiv_violations = 0
    compared = False  # whether any batch had exposure independent of the confounder
    # at least 8 models, or the loops over the innermost model axis grow too short to pay
    batch = max(8, tables.BATCH_CELLS // (2 * u_card * m_card))
    for start in range(0, iterations, batch):
        scm = sample_scm(rng, u_card, m_card, floor=floor, mode=mode,
                         dependent_exposure=dependent_exposure,
                         shape=(min(batch, iterations - start),))
        other_form = rr_au_mediator_ratio(scm) if scm.a_independent_u else None
        report = verify_bounds(scm)
        if other_form is not None:
            compared = True
            rel = np.abs(report.rr_au - other_form) / np.maximum(1.0, report.rr_au)
            equiv_max = max(equiv_max, float(rel.max()))
            equiv_violations += int(np.count_nonzero(rel > EQUIV_TOL))
        for check in report.checks:
            worst = float(check.slack.max())
            worst_slack[check.name] = max(worst_slack.get(check.name, -math.inf), worst)
            violations += int(np.count_nonzero(~check.holds))
        del scm, report, other_form, check  # before the next batch is drawn

    ratio_violations, ratio_max_excess = 0, -math.inf
    batch = max(1, tables.BATCH_CELLS // (2 * 6))  # six confounder levels, one mediator level
    for start in range(0, ratio_iterations, batch):
        report = verify_bounds(sample_ratio_instances(rng, min(batch, ratio_iterations - start)))
        ratio_violations += sum(int(np.count_nonzero(~check.holds)) for check in report.checks)
        # the first check, nde_rr_lower against the truth, is the scalar inequality
        ratio_max_excess = max(ratio_max_excess, float(report.checks[0].slack.max()))
        del report

    return {
        "config": config,
        "bound_validity": {
            "iterations": iterations,
            "violations": violations,
            "worst_slack": {k: worst_slack[k] for k in sorted(worst_slack)},
        },
        "definition_equivalence": (
            {"max_relative_difference": equiv_max, "violations": equiv_violations}
            if compared
            else None
        ),
        "ratio_bound_dominance": {
            "iterations": ratio_iterations,
            "violations": ratio_violations,
            "max_excess": ratio_max_excess,
        },
        "sharpness": asdict(sharpness_search(seed=seed + 1, iterations=sharpness_iterations)),
    }
