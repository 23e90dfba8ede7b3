"""Sensitivity bounds and Cornfield-type thresholds for natural effects.

Two nonnegative sensitivity parameters describe a hypothesized unmeasured
mediator-outcome confounder U within a covariate stratum:

    rr_uy : maximal risk ratio of U on the outcome among the exposed,
            within any mediator level (how strongly U moves Y),
    rr_au : maximal ratio of the U-posterior between exposure arms within
            mediator levels, i.e. the collider-bias magnitude induced by
            conditioning on the mediator (how strongly U and A associate
            once M is held fixed).

Their combination

    bf(x, y) = x * y / (x + y - 1)

is the bounding factor: the largest multiplicative bias the confounding can
inflict on the observed ratio-scale natural direct effect.  It is symmetric,
nondecreasing in each argument on [1, inf)^2, and never exceeds either
parameter.  The adjusted quantities

    nde_rr_obs / bf   (lower bound on the true direct effect, ratio scale)
    nie_rr_obs * bf   (upper bound on the true indirect effect)

are sharp: some admissible confounder attains them (see the oracle module's
sharpness search).  Difference-scale analogues divide only the cross-world
term sum_m pr(Y=1|1,m,c) pr(m|0,c) by bf.

Inverting the bound gives Cornfield-type thresholds: to push an observed
direct effect down to a hypothesized true value, both parameters must exceed
the ratio r = observed/true, and the larger must exceed r + sqrt(r (r - 1)).

With y(a,m) = pr(Y=1|a,m,c) and w(a,m) = pr(m|a,c), every effect is a
ratio or a difference of three sums n_ab = sum_m y(a,m) w(b,m), formed
over the trailing (a, m) axes of the (..., 2, M) tables by
:func:`~medsens.tables.crossworld_sums`:

    nde_rr = n10 / n00        nie_rr = n11 / n10
    nde_rd = n10 - n00        nie_rd = n11 - n10

:func:`effects_from_sums` is the one place these are formed, for observed
tables and for the oracle's true sums alike.  It forms te_rr = nde_rr *
nie_rr and te_rd = nde_rd + nie_rd, so the decomposition identities hold
exactly by construction.  The observed effects ignore the unmeasured
confounder; they are the true conditional effects only when the measured
covariates control mediator-outcome confounding.  Mean-mode tables, whose
y entries are nonnegative outcome means, give the same identities.

Everything here is a pure function of floats, arrays and small frozen
dataclasses.  Every caller forms the bounds in two steps:
:func:`bound_report` forms every stratum's effects at once, as arrays over
the strata, and :func:`adjust` forms ``bf`` and the bounds from them (or
from published estimates) under a spec, for one grid point or a grid.
When an observed effect is below its null (protective direction), relabel
the exposure first; the CLI exposes a flag for that.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BadParameter, BadTarget, Infeasible, ZeroDenominator
from .tables import crossworld_sums, first_cell

#: effects of :func:`effects_from_sums` and bounds of :func:`adjust`, in output order
EFFECT_STATS = ("nde_rr", "nie_rr", "te_rr", "nde_rd", "nie_rd", "te_rd")
BOUND_STATS = ("nde_rr_lower", "nie_rr_upper", "nde_rd_lower", "nie_rd_upper")


def _check_param(value, name: str):
    value = np.asarray(value, dtype=float)
    bad = value[np.isnan(value) | (value < 1.0)]
    if bad.size:
        raise BadParameter(f"{name} must be >= 1 (or +inf), got {float(bad[0])!r}")
    return value[()]


def _positive(effects: Mapping, key: str):
    """``effects[key]``, a ratio-scale effect, checked positive; the first bad entry is named."""
    value = np.atleast_1d(effects[key])
    bad = ~(value.astype(float) > 0)
    if bad.any():
        raise BadParameter(f"observed {key} must be positive, got {float(value[bad][0])!r} in "
                           f"stratum {first_cell('c={}', bad)}")
    return effects[key]


@dataclass(frozen=True, eq=False)
class SensitivitySpec:
    """The two sensitivity parameters; either may be +inf (unconstrained).

    Each is a float, or an array of values evaluated elementwise (a sweep
    grid, or the exact parameters of a batch of synthetic models).
    """

    rr_au: float
    rr_uy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rr_au", _check_param(self.rr_au, "rr_au"))
        object.__setattr__(self, "rr_uy", _check_param(self.rr_uy, "rr_uy"))


@dataclass(frozen=True)
class CornfieldThresholds:
    """Minimal confounder strength needed to explain an effect down to a target.

    ``both_must_exceed`` applies to each sensitivity parameter separately,
    ``max_must_exceed`` to the larger of the two; each is a float, or an array
    over the strata.  Degenerate targets (nothing to explain) give (1, 1).
    """

    both_must_exceed: float
    max_must_exceed: float

    def __post_init__(self) -> None:
        if np.any(self.max_must_exceed < self.both_must_exceed):
            raise BadParameter("threshold ordering violated")


def bounding_factor(spec: SensitivitySpec) -> float:
    """Maximal multiplicative bias bf = rr_au*rr_uy / (rr_au + rr_uy - 1).

    If either parameter is 1 the result is exactly 1.  Where the product or
    the sum overflows, the equal form lo / (1 + (lo - 1) / hi) of the smaller
    parameter lo and the larger hi is used instead: lo exactly at hi = +inf.
    The result is capped at lo, which the product form can exceed by rounding
    when hi is far above lo; the cap drops that form's NaN at lo = hi = +inf.
    """
    x, y = spec.rr_au, spec.rr_uy
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    with np.errstate(over="ignore", invalid="ignore"):  # replaced below: overflow, and inf/inf
        product, total = x * y, x + y - 1.0
        bf = np.where(np.isfinite(product) & np.isfinite(total), product / total,
                      lo / (1.0 + (lo - 1.0) / hi))
    return np.where(lo == 1.0, 1.0, np.fmin(bf, lo))[()]


def cornfield_rr(nde_rr_obs: float, nde_rr_true: float = 1.0) -> CornfieldThresholds:
    """Thresholds to reduce an observed ratio-scale direct effect to a target.

    With r = observed/true, both parameters must exceed r and the larger
    must exceed r + sqrt(r (r - 1)); targets at or above the observed value
    need no confounding at all and give (1, 1).
    """
    if not (isinstance(nde_rr_true, numbers.Real) and nde_rr_true > 0):
        raise BadTarget(f"target effect must be a positive real, got {nde_rr_true!r}")
    if not (isinstance(nde_rr_obs, numbers.Real) and nde_rr_obs > 0):
        raise BadParameter(f"observed effect must be a positive real, got {nde_rr_obs!r}")
    return cornfield_rd(nde_rr_obs, nde_rr_true, 0.0)  # obs / (0.0 + true) is obs / true


def cornfield_rd(n10, n00, nde_rd_true) -> CornfieldThresholds:
    """Thresholds to reduce the observed difference-scale direct effect.

    The bounding factor must exceed Delta = n10 / (target + n00), with the
    cross-world term n10 = sum_m pr(Y=1|1,m,c) pr(m|0,c) and the outcome
    marginal n00 = pr(Y=1|0,c), and the thresholds follow from Delta
    exactly as on the ratio scale.  Where r (r - 1) overflows, its root is
    sqrt(r) sqrt(r - 1), so a threshold within the float range is finite.
    A target of zero recovers the ratio-scale thresholds at the null: both
    scales then demand the same confounder strength.
    Arrays broadcast, so one call gives every stratum's thresholds; the
    first stratum with a NaN sum, a nonpositive denominator or an undefined
    ratio (inf / inf, or a denominator of inf - inf) is named.
    """
    n10, n00, target = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                             for v in (n10, n00, nde_rd_true)))
    if np.isnan(target).any():
        raise BadTarget("target effect must be a real number")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below, or kept
        denom = target + n00
        ratio = n10 / denom  # n10 / tiny overflows to inf, which is kept
    bad = np.isnan(ratio) | (denom <= 0.0)  # NaN sums make the ratio NaN
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        where = f"stratum {first_cell('c={}', bad)}: " if bad.ndim else ""
        sums = f"n10 = {float(n10[i])!r} and pr(Y=1|a=0) = {float(n00[i])!r}"
        if np.isnan(n10[i]) or np.isnan(n00[i]):
            raise BadParameter(f"{where}{sums} must be real numbers")
        if denom[i] <= 0.0:
            raise ZeroDenominator(f"{where}target {float(target[i])!r} plus pr(Y=1|a=0) = "
                                  f"{float(n00[i])!r} is not positive")
        raise BadParameter(f"{where}{sums} at target {float(target[i])!r} give no real ratio")
    r = np.maximum(ratio, 1.0)  # a ratio at or below 1 has nothing to explain: (1, 1)
    with np.errstate(over="ignore"):  # r * (r - 1) overflows where its root need not
        square = r * (r - 1.0)
        root = np.where(np.isfinite(square), np.sqrt(square), np.sqrt(r) * np.sqrt(r - 1.0))
        return CornfieldThresholds(r[()], (r + root)[()])


def required_partner(fixed, target_bf):
    """Smallest partner value y with bf(fixed, y) >= target_bf, elementwise over arrays.

    The bounding factor is capped strictly below the fixed parameter for
    any finite partner, so a target at or above the fixed parameter is
    unattainable and raises :class:`Infeasible`, naming the first such
    entry of an array.  Where t (f - 1) of the target t and the fixed f
    overflows, the equal form t / (1 - (t - 1) / (f - 1)) is used: t exactly
    at f = +inf.  The solve rounds: on seeded draws bf(fixed, result) was
    within 4 ulps of the target, and within 2 in the overflow form.
    """
    fixed, target_bf = np.broadcast_arrays(_check_param(fixed, "fixed"),
                                           _check_param(target_bf, "target_bf"))
    infinite = np.isinf(target_bf)
    bad = infinite | ((fixed <= target_bf) & (target_bf != 1.0))
    if bad.any():
        first = tuple(np.argwhere(bad)[0].tolist())
        entry = f" (entry {list(first)})" if bad.ndim else ""
        if infinite[first]:
            raise Infeasible("no finite bounding factor reaches an infinite target" + entry)
        raise Infeasible(
            f"fixed parameter {fixed[first]} caps the bounding factor below {target_bf[first]}; "
            f"no finite partner exists (the fixed parameter itself must exceed the target){entry}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the range; 0 / 0 at t = 1
        product = target_bf * (fixed - 1.0)
        partner = np.where(np.isfinite(product), product / (fixed - target_bf),
                           target_bf / (1.0 - (target_bf - 1.0) / (fixed - 1.0)))
    return np.where(target_bf == 1.0, 1.0, partner)[()]


def effects_from_sums(n10, n00, n11) -> dict:
    """``n10``, ``n00``, ``n11`` and each of ``EFFECT_STATS``, from the sums of ``crossworld_sums``.

    The sums are floats or arrays of one shape, exact ``Fraction`` objects
    included.  A zero denominator is reported once, for the first entry
    that has one, naming its stratum: its index on the last axis.
    """
    zero = np.atleast_1d((n00 == 0.0) | (n10 == 0.0))
    if zero.any():
        first = np.unravel_index(np.argmax(zero), zero.shape)
        c = first[-1]
        if np.atleast_1d(n00)[first] == 0.0:
            raise ZeroDenominator(f"outcome marginal pr(Y=1|a=0) is 0 in stratum c={c}")
        raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
    nde_rr, nie_rr = n10 / n00, n11 / n10
    nde_rd, nie_rd = n10 - n00, n11 - n10
    return {"n10": n10, "n00": n00, "n11": n11, "nde_rr": nde_rr, "nie_rr": nie_rr,
            "te_rr": nde_rr * nie_rr, "nde_rd": nde_rd, "nie_rd": nie_rd, "te_rd": nde_rd + nie_rd}


def bound_report(y: np.ndarray, w: np.ndarray) -> dict:
    """Observed effects of every stratum of tables ``y``, ``w``: the first of the two steps.

    The tables are ``y[..., c, a, m]`` and ``w[..., c, a, m]``.  The result
    is :func:`effects_from_sums` of their sums, each an array ``[..., c]``,
    ready for :func:`adjust`.
    """
    return effects_from_sums(*crossworld_sums(y, w))


def adjust(effects: Mapping, spec: SensitivitySpec) -> dict:
    """``bf`` and each of ``BOUND_STATS`` that ``effects`` allows: the second of the two steps.

    ``nde_rr`` gives ``nde_rr_lower`` and ``nie_rr`` gives ``nie_rr_upper``;
    ``n10``, ``n00`` and ``n11`` give ``nde_rd_lower`` and ``nie_rd_upper``.
    ``effects`` may be a :func:`bound_report` or observed estimates alone.
    The spec's arrays broadcast against the effects, so a grid of shape
    (G, 1) gives bounds of shape (G, C).  A ratio-scale effect must be
    positive: at ``bf = inf`` a zero one would give 0 * inf.
    """
    bf = bounding_factor(spec)
    out = {"bf": bf}
    if "nde_rr" in effects:
        out["nde_rr_lower"] = _positive(effects, "nde_rr") / bf
    if "nie_rr" in effects:
        with np.errstate(over="ignore"):  # an upper bound of +inf still holds
            out["nie_rr_upper"] = _positive(effects, "nie_rr") * bf
    if "n10" in effects:
        cross = effects["n10"] / bf
        out["nde_rd_lower"] = cross - effects["n00"]
        out["nie_rd_upper"] = effects["n11"] - cross
    return out


def stratum_envelopes(report: dict) -> dict[str, dict[str, float]]:
    """Envelopes of the ratio-scale bounds of an :func:`adjust` across its strata.

    The population-level direct effect is at least the minimum of the
    per-stratum lower bounds ("heterogeneous" case) and, when one common
    stratum effect is assumed, at least the maximum ("homogeneous" case).
    The indirect-effect upper bound flips accordingly.
    """
    low, up = report["nde_rr_lower"], report["nie_rr_upper"]
    return {
        "nde_rr_lower": {"heterogeneous": low.min(axis=-1), "homogeneous": low.max(axis=-1)},
        "nie_rr_upper": {"heterogeneous": up.max(axis=-1), "homogeneous": up.min(axis=-1)},
    }
