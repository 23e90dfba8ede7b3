"""Percentile bootstrap over record cell counts.

A dataset of N records is resampled by drawing new cell counts
``n[c, a, m, y]`` from a multinomial with probabilities proportional to
the original counts, which is exactly sampling N records with replacement;
how the records were grouped into rows does not matter.  Replicates are
drawn and evaluated in batches: one multinomial call draws a batch of
count tensors, :func:`~medsens.tables.estimate_tables` estimates them
together, and the effects (and, optionally, bounds) follow as arrays over
the batch.  The batches draw the same replicates, in the same order, as one
draw at a time would.  Intervals are percentile intervals of the replicate
statistics.

A replicate that empties a required table cell cannot be evaluated; it is
redrawn, counted, and reported.  Everything is deterministic given the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import SensitivitySpec, bound_nde_rd, bound_nie_rd, bounding_factor
from .effects import Effects
from .errors import BadParameter, DegenerateResample
from .tables import RecordTable, crossworld_sums, estimate_from_records, estimate_tables

#: statistics collected per stratum, in output order
EFFECT_STATS = ("nde_rr", "nie_rr", "te_rr", "nde_rd", "nie_rd", "te_rd")
BOUND_STATS = ("nde_rr_lower", "nie_rr_upper", "nde_rd_lower", "nie_rd_upper")
#: more than this many redraws per requested replicate raises DegenerateResample
MAX_REDRAW_FACTOR = 10
#: count-tensor cells drawn per batch of replicates, which bounds a batch's memory
BATCH_CELLS = 1 << 18


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


def _statistics(y: np.ndarray, w: np.ndarray, spec: SensitivitySpec | None) -> np.ndarray:
    """Every statistic of tables ``y[..., c, a, m]`` and ``w[..., c, a, m]``, as ``[..., c, stat]``.

    The statistics are ``EFFECT_STATS`` followed, with a spec, by ``BOUND_STATS``.
    """
    sums = crossworld_sums(y, w)
    # a zero denominator is reported for the first replicate, and its first
    # stratum, that has one, as evaluating one replicate at a time would
    zero = np.flatnonzero((sums[0] == 0.0) | (sums[1] == 0.0))
    if zero.size:
        Effects.from_sums(*(s.flat[zero[0]] for s in sums), c=int(zero[0] % y.shape[-3]))
    eff = Effects.from_sums(*sums)
    stats = [getattr(eff, name) for name in EFFECT_STATS]
    if spec is not None:
        bf = bounding_factor(spec)
        stats += [
            eff.nde_rr / bf,
            eff.nie_rr * bf,
            bound_nde_rd(eff.n10, eff.n00, bf),
            bound_nie_rd(eff.n10, eff.n11, bf),
        ]
    return np.stack(stats, axis=-1)


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
    model = estimate_from_records(records, smoothing)
    point = _statistics(model.y, model.w, spec)
    rng = np.random.default_rng(seed)
    shape = records.counts.shape
    total = records.total()
    probs = records.counts.ravel() / total
    batch = max(1, BATCH_CELLS // records.counts.size)
    draws: list[np.ndarray] = []
    kept = redraws = 0
    budget = MAX_REDRAW_FACTOR * replicates
    while kept < replicates:
        # never more draws than replicates still needed, so the redraws are
        # exactly those of one draw at a time
        size = min(replicates - kept, batch)
        counts = rng.multinomial(total, probs, size=size).reshape(size, *shape)
        y, w, empty = estimate_tables(counts, smoothing)
        ok = ~empty.any(axis=(1, 2, 3))
        kept += int(ok.sum())
        redraws += size - int(ok.sum())
        if redraws > budget:
            raise DegenerateResample(
                f"{budget + 1} degenerate replicates exceeded the redraw budget {budget}"
            )
        draws.append(_statistics(y[ok], w[ok], spec))

    lo_q = 100.0 * (1.0 - level) / 2.0
    hi_q = 100.0 - lo_q
    lo, hi = np.percentile(np.concatenate(draws), [lo_q, hi_q], axis=0)
    names = EFFECT_STATS + (BOUND_STATS if spec is not None else ())
    intervals = {
        c: {
            name: (float(lo[c, s]), float(point[c, s]), float(hi[c, s]))
            for s, name in enumerate(names)
        }
        for c in range(records.c_card)
    }
    return BootstrapResult(
        replicates=replicates,
        level=level,
        seed=seed,
        degenerate_redraws=redraws,
        intervals=intervals,
    )
