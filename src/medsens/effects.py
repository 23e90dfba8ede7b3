"""Observed natural direct, indirect, and total effects per covariate stratum.

With y(a,m) = pr(Y=1|a,m,c) and w(a,m) = pr(m|a,c), every effect is a
ratio or a difference of three sums n_ab = sum_m y(a,m) w(b,m), formed
over the trailing (a, m) axes of the (..., 2, M) tables by
:func:`~medsens.tables.crossworld_sums`:

    nde_rr = n10 / n00        nie_rr = n11 / n10
    nde_rd = n10 - n00        nie_rd = n11 - n10

:meth:`Effects.from_sums` is the one place these are formed.  It forms
te_rr = nde_rr * nie_rr and te_rd = nde_rd + nie_rd, so the decomposition
identities hold exactly by construction.

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

import numpy as np

from .errors import BadParameter, ZeroDenominator
from .tables import ConditionalModel, crossworld_sums


@dataclass(frozen=True)
class Effects:
    """Natural direct/indirect/total effects on both scales, with their sums.

    Used both for observed effects computed from a :class:`ConditionalModel`
    and for ground-truth effects computed from a fully specified synthetic
    model (see the oracle module).  Fields are floats for one stratum, or
    arrays with one entry per model for a batch of synthetic models.
    """

    c: int
    n10: float
    n00: float
    n11: float
    nde_rr: float
    nie_rr: float
    te_rr: float
    nde_rd: float
    nie_rd: float
    te_rd: float

    @classmethod
    def from_sums(cls, n10, n00, n11, c: int = 0) -> "Effects":
        """All six effects from the sums of :func:`~medsens.tables.crossworld_sums`."""
        if np.count_nonzero(n00 == 0.0):
            raise ZeroDenominator(f"outcome marginal pr(Y=1|a=0) is 0 in stratum c={c}")
        if np.count_nonzero(n10 == 0.0):
            raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
        nde_rr, nie_rr = n10 / n00, n11 / n10
        nde_rd, nie_rd = n10 - n00, n11 - n10
        return cls(c, n10, n00, n11, nde_rr, nie_rr, nde_rr * nie_rr, nde_rd, nie_rd, nde_rd + nie_rd)


def observed_effects(model: ConditionalModel, c: int) -> Effects:
    """All six observed effects for stratum ``c``; an unknown code raises BadCode."""
    sums = crossworld_sums(*model.stratum(c))
    return Effects.from_sums(*(float(s) for s in sums), c=c)


def observed_effects_all(model: ConditionalModel) -> tuple[Effects, ...]:
    """Observed effects for every stratum, in stratum-code order."""
    return tuple(observed_effects(model, c) for c in range(model.c_card))


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
