"""Percentile bootstrap over record cell counts.

A dataset of N records is resampled by drawing new cell counts
``n[c, a, m, y]`` from a multinomial with probabilities proportional to
the original counts, which is exactly sampling N records with replacement;
how the records were grouped into rows does not matter.  Each replicate
re-runs estimation and the effect (and, optionally, bound) computations;
intervals are percentile intervals of the replicate statistics.

A replicate that empties a required table cell cannot be evaluated; it is
redrawn, counted, and reported.  Everything is deterministic given the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SensitivitySpec, bound_report
from .effects import observed_effects_all
from .errors import BadParameter, DegenerateResample, EmptyCell
from .tables import RecordTable, estimate_from_records

#: statistics collected per stratum, in output order
EFFECT_STATS = ("nde_rr", "nie_rr", "te_rr", "nde_rd", "nie_rd", "te_rd")
BOUND_STATS = ("nde_rr_lower", "nie_rr_upper", "nde_rd_lower", "nie_rd_upper")
#: more than this many redraws per requested replicate raises DegenerateResample
MAX_REDRAW_FACTOR = 10


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimates and percentile intervals per stratum and statistic.

    ``intervals[c][stat]`` is (lower, point, upper); the point estimate
    comes from the original data, not the replicate average.
    """

    replicates: int
    level: float
    seed: int
    degenerate_redraws: int
    intervals: dict[int, dict[str, tuple[float, float, float]]]


def _statistics(
    records: RecordTable, smoothing: float, spec: SensitivitySpec | None
) -> dict[int, dict[str, float]]:
    model = estimate_from_records(records, smoothing)
    out: dict[int, dict[str, float]] = {}
    for eff in observed_effects_all(model):
        stats = {name: getattr(eff, name) for name in EFFECT_STATS}
        if spec is not None:
            rep = bound_report(model, eff.c, spec)
            for name in BOUND_STATS:
                stats[name] = getattr(rep, name)
        out[eff.c] = stats
    return out


def run_bootstrap(
    records: RecordTable,
    replicates: int,
    level: float = 0.95,
    seed: int = 0,
    *,
    smoothing: float = 0.0,
    spec: SensitivitySpec | None = None,
) -> BootstrapResult:
    """Percentile bootstrap intervals for observed effects and adjusted bounds.

    ``level`` is the two-sided coverage (0.95 gives the 2.5 and 97.5
    percentiles).  Replicates hitting an empty required cell are redrawn;
    more than ``MAX_REDRAW_FACTOR * replicates`` total redraws raises
    :class:`DegenerateResample`.
    """
    if replicates < 100:
        raise BadParameter("need at least 100 replicates for percentile intervals")
    if not 0.0 < level < 1.0:
        raise BadParameter(f"level must be in (0, 1), got {level!r}")
    rng = np.random.default_rng(seed)
    total = records.total()
    probs = records.counts.ravel() / total

    point = _statistics(records, smoothing, spec)
    draws: list[dict[int, dict[str, float]]] = []
    redraws = 0
    budget = MAX_REDRAW_FACTOR * replicates
    while len(draws) < replicates:
        replicate = RecordTable(rng.multinomial(total, probs).reshape(records.counts.shape))
        try:
            draws.append(_statistics(replicate, smoothing, spec))
        except EmptyCell:
            redraws += 1
            if redraws > budget:
                raise DegenerateResample(
                    f"{redraws} degenerate replicates exceeded the redraw budget {budget}"
                ) from None

    lo_q = 100.0 * (1.0 - level) / 2.0
    hi_q = 100.0 - lo_q
    intervals: dict[int, dict[str, tuple[float, float, float]]] = {}
    for c, per_stat in point.items():
        intervals[c] = {}
        for name, value in per_stat.items():
            lo, hi = np.percentile([draw[c][name] for draw in draws], [lo_q, hi_q])
            intervals[c][name] = (float(lo), value, float(hi))
    return BootstrapResult(
        replicates=replicates,
        level=level,
        seed=seed,
        degenerate_redraws=redraws,
        intervals=intervals,
    )
