"""Observed natural direct, indirect, and total effects per covariate stratum.

The four stratum-level formulas, with y(a,m) = pr(Y=1|a,m,c) and
w(a,m) = pr(m|a,c):

    nde_rr = sum_m y(1,m) w(0,m)  /  sum_m y(0,m) w(0,m)
    nie_rr = sum_m y(1,m) w(1,m)  /  sum_m y(1,m) w(0,m)
    nde_rd = sum_m {y(1,m) - y(0,m)} w(0,m)
    nie_rd = sum_m y(1,m) {w(1,m) - w(0,m)}

Total effects decompose exactly: te_rr = nde_rr * nie_rr and
te_rd = nde_rd + nie_rd.  These identities are algebraic consequences of
the formulas above and are asserted on every constructed bundle.

These are the confounding-ignoring ("observed") effects: they are the true
conditional effects only when the measured covariates suffice to control
mediator-outcome confounding.  The `bounds` module quantifies how far they
can be from the truth under a hypothesized unmeasured confounder.

All functions are pure and accept mean-mode models, whose y entries are
nonnegative outcome means rather than probabilities; every identity here
holds on that scale unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BadParameter, InternalCheckError, ZeroDenominator
from .tables import ConditionalModel, StratumTable

#: decomposition identities must hold within this (relative for products,
#: absolute for sums of bounded quantities)
DECOMP_TOL = 1e-12


@dataclass(frozen=True)
class Effects:
    """Natural direct/indirect/total effects on both scales for one stratum.

    Used both for observed effects computed from a :class:`ConditionalModel`
    and for ground-truth effects computed from a fully specified synthetic
    model (see the oracle module).
    """

    c: int
    nde_rr: float
    nie_rr: float
    te_rr: float
    nde_rd: float
    nie_rd: float
    te_rd: float

    def __post_init__(self) -> None:
        prod = self.nde_rr * self.nie_rr
        if not math.isclose(self.te_rr, prod, rel_tol=DECOMP_TOL, abs_tol=1e-300):
            raise InternalCheckError(
                f"te_rr {self.te_rr!r} != nde_rr*nie_rr {prod!r} for c={self.c}"
            )
        total = self.nde_rd + self.nie_rd
        if not math.isclose(self.te_rd, total, rel_tol=DECOMP_TOL, abs_tol=DECOMP_TOL):
            raise InternalCheckError(
                f"te_rd {self.te_rd!r} != nde_rd+nie_rd {total!r} for c={self.c}"
            )


def _sums(table: StratumTable) -> tuple[float, float, float]:
    """(sum y1*w0, sum y0*w0, sum y1*w1) for one stratum."""
    y0, y1 = table.y_prob
    w0, w1 = table.m_prob
    n10 = math.fsum(a * b for a, b in zip(y1, w0))
    n00 = math.fsum(a * b for a, b in zip(y0, w0))
    n11 = math.fsum(a * b for a, b in zip(y1, w1))
    return n10, n00, n11


def nde_rr_obs(model: ConditionalModel, c: int) -> float:
    """Observed natural direct effect on the ratio scale."""
    n10, n00, _ = _sums(model.stratum(c))
    if n00 == 0.0:
        raise ZeroDenominator(f"pr(Y=1|a=0,c={c}) = 0")
    return n10 / n00


def nie_rr_obs(model: ConditionalModel, c: int) -> float:
    """Observed natural indirect effect on the ratio scale."""
    n10, _, n11 = _sums(model.stratum(c))
    if n10 == 0.0:
        raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
    return n11 / n10


def nde_rd_obs(model: ConditionalModel, c: int) -> float:
    """Observed natural direct effect on the difference scale."""
    n10, n00, _ = _sums(model.stratum(c))
    return n10 - n00


def nie_rd_obs(model: ConditionalModel, c: int) -> float:
    """Observed natural indirect effect on the difference scale."""
    n10, _, n11 = _sums(model.stratum(c))
    return n11 - n10


def observed_effects(model: ConditionalModel, c: int) -> Effects:
    """All six observed effects for stratum ``c``.

    Total effects are recomputed from the same summations that enter the
    direct/indirect formulas (te_rr = sum y1*w1 / sum y0*w0), which makes
    the decomposition identities hold to machine precision by construction.
    """
    n10, n00, n11 = _sums(model.stratum(c))
    if n00 == 0.0:
        raise ZeroDenominator(f"pr(Y=1|a=0,c={c}) = 0")
    if n10 == 0.0:
        raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
    return Effects(
        c=c,
        nde_rr=n10 / n00,
        nie_rr=n11 / n10,
        te_rr=(n10 / n00) * (n11 / n10),
        nde_rd=n10 - n00,
        nie_rd=n11 - n10,
        te_rd=(n10 - n00) + (n11 - n10),
    )


def observed_effects_all(model: ConditionalModel) -> tuple[Effects, ...]:
    """Observed effects for every stratum, in stratum-code order."""
    return tuple(observed_effects(model, s.c) for s in model.strata)


def average_rd_effects(
    effects: Sequence[Effects], weights: Sequence[float]
) -> tuple[float, float, float]:
    """Average difference-scale effects over a stratum distribution.

    Difference-scale effects are linear in the stratum distribution, so the
    population-level values are plain weighted averages.  Ratio-scale
    averaging is deliberately not provided; use the stratum envelopes in
    the bounds module.

    Returns (nde_rd, nie_rd, te_rd).
    """
    if len(effects) != len(weights) or not effects:
        raise BadParameter("need one weight per stratum")
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise BadParameter("weights must be finite and nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise BadParameter(f"weights must sum to 1, got {total!r}")
    nde = math.fsum(e.nde_rd * w for e, w in zip(effects, weights))
    nie = math.fsum(e.nie_rd * w for e, w in zip(effects, weights))
    te = math.fsum(e.te_rd * w for e, w in zip(effects, weights))
    return nde, nie, te
