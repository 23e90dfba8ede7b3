"""References that several test files share.

Each is a plain, independent route to a quantity the package computes
another way, so a test can compare the two.
"""

import numpy as np

from medsens.effects import Effects
from medsens.errors import BadParameter
from medsens.tables import ConditionalModel, RecordTable, crossworld_sums


def stratum_effects(model: ConditionalModel, c: int) -> Effects:
    """All six effects of stratum ``c`` alone, the reference for the all-strata paths."""
    return Effects.from_sums(*(float(s) for s in crossworld_sums(model.y[c], model.w[c])), c=c)


def worked_model() -> ConditionalModel:
    """The one-stratum worked example: pr(Y=1|a=0) = 0.275 and pr(Y=1|a=1) = 0.7."""
    return ConditionalModel(y=[[[0.2, 0.5], [0.4, 0.8]]], w=[[[0.75, 0.25], [0.25, 0.75]]])


def expand_to_records(model: ConditionalModel, denominator: int) -> RecordTable:
    """Exact inverse of :func:`medsens.tables.estimate_from_records` for rational tables.

    Fills cell counts ``denominator * pr(m|a,c) * pr(y|a,m,c)``; every
    such product must be an integer (within 1e-6), otherwise the model
    cannot be represented by weighted records and :class:`BadParameter`
    is raised.  Only meaningful in probability mode.
    """
    if model.mode != "probability":
        raise BadParameter("only probability-mode models expand to binary-outcome records")
    if denominator < 1:
        raise BadParameter("denominator must be a positive integer")
    raw = denominator * model.w[..., None] * np.stack([1.0 - model.y, model.y], axis=-1)
    counts = np.round(raw)
    bad = np.abs(raw - counts) > 1e-6
    if bad.any():
        c, a, m, y = np.argwhere(bad)[0]
        count = float(raw[c, a, m, y])
        raise BadParameter(f"cell a={a},m={m},y={y},c={c}: {count!r} is not an integer count")
    return RecordTable(counts.astype(np.int64))
