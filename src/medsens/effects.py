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

from dataclasses import dataclass

import numpy as np

from .errors import ZeroDenominator
from .tables import ConditionalModel, crossworld_sums


@dataclass(frozen=True)
class Effects:
    """Natural direct/indirect/total effects on both scales, with their sums.

    Used both for observed effects computed from a :class:`ConditionalModel`
    and for ground-truth effects computed from a fully specified synthetic
    model (see the oracle module).  Fields are floats for one stratum, or
    arrays with one entry per stratum, replicate or synthetic model.
    """

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
        """All six effects from the sums of :func:`~medsens.tables.crossworld_sums`.

        ``c`` names the stratum in the message of a zero denominator.
        """
        if np.count_nonzero(n00 == 0.0):
            raise ZeroDenominator(f"outcome marginal pr(Y=1|a=0) is 0 in stratum c={c}")
        if np.count_nonzero(n10 == 0.0):
            raise ZeroDenominator(f"cross-world outcome term for a=1, mediator under a=0, c={c} is 0")
        nde_rr, nie_rr = n10 / n00, n11 / n10
        nde_rd, nie_rd = n10 - n00, n11 - n10
        return cls(n10, n00, n11, nde_rr, nie_rr, nde_rr * nie_rr, nde_rd, nie_rd, nde_rd + nie_rd)


def observed_effects(model: ConditionalModel, c: int) -> Effects:
    """All six observed effects for stratum ``c``; an unknown code raises BadCode.

    :func:`~medsens.bounds.bound_report` gives them for every stratum at once.
    """
    sums = crossworld_sums(*model.stratum(c))
    return Effects.from_sums(*(float(s) for s in sums), c=c)
