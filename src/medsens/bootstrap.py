"""Percentile bootstrap over record cell counts.

A dataset of N records is resampled by drawing new cell counts
``n[c, a, m, y]`` from a multinomial with probabilities proportional to
the original counts, which is exactly sampling N records with replacement;
how the records were grouped into rows does not matter.  Replicates are
drawn and evaluated in batches: one multinomial call draws a batch of
count tensors, :func:`~medsens.tables.estimate_tables` estimates them
together, :func:`~medsens.tables.crossworld_sums` forms their sums and
:func:`~medsens.bounds.effects_from_sums` their effects as arrays over the
batch, and with a spec :func:`~medsens.bounds.adjust` forms the bounds from
those.  The batches draw the same replicates, in the same order, as one
draw at a time would.

Working memory is one table of replicates x strata x statistics floats,
preallocated, plus one batch of at most ``tables.BATCH_CELLS`` count-tensor cells:
each batch writes its statistics into its slice of the table, and the
percentiles partition the table in place.

Intervals are percentile intervals of the replicate statistics, by numpy's
default ("linear") method written out in :func:`_limits`: it gives
``np.percentile``'s bits, without the ``np.unique`` call that loads
``numpy.ma``, wherever the two order statistics it blends differ by a
finite amount.  Where they do not (an infinite ``nie_rr_upper`` at a huge
or infinite ``bf``, or two finite values of opposite sign near the float
range), numpy's lerp gives inf - inf or inf * 0 = NaN, or an infinity, and
the limit is the exact interpolation instead, so an interval with an
infinite replicate is still a pair of numbers, in order.

A replicate that empties a required table cell, or whose n10 or n00 is 0
in some stratum, cannot be evaluated; it is redrawn, counted, and
reported.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .bounds import BOUND_STATS, EFFECT_STATS, SensitivitySpec, adjust, effects_from_sums
from .errors import BadParameter, DegenerateResample
from .tables import RecordTable, crossworld_sums, estimate_from_records, estimate_tables

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


def check_plan(replicates: int, level: float) -> None:
    """Refuse fewer than 100 ``replicates`` or a ``level`` outside (0, 1); needs no data."""
    if replicates < 100:
        raise BadParameter("need at least 100 replicates for percentile intervals")
    if not 0.0 < level < 1.0:
        raise BadParameter(f"level must be in (0, 1), got {level!r}")


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
    percentiles).  Replicates hitting an empty required cell or a zero
    denominator are redrawn;
    more than ``MAX_REDRAW_FACTOR * replicates`` total redraws raises
    :class:`DegenerateResample`.  So many replicates that their table of
    statistics cannot be allocated raise :class:`BadParameter`.
    """
    check_plan(replicates, level)
    names = EFFECT_STATS + (BOUND_STATS if spec is not None else ())

    def statistics(n10: np.ndarray, n00: np.ndarray, n11: np.ndarray) -> np.ndarray:
        """The effects and, with a spec, the bounds of the sums as ``[..., c, stat]``."""
        report = effects_from_sums(n10, n00, n11)
        if spec is not None:
            report.update(adjust(report, spec))
        return np.stack([report[name] for name in names], axis=-1)

    point = statistics(*crossworld_sums(*estimate_from_records(records, smoothing)))
    rng = np.random.default_rng(seed)
    shape = records.counts.shape
    total = records.total()
    probs = records.counts.ravel() / total
    batch = max(1, tables.BATCH_CELLS // records.counts.size)
    try:
        stats = np.empty((replicates, *point.shape))
    except (MemoryError, ValueError):  # ValueError: a size past the index range
        raise BadParameter(
            f"replicates={replicates} needs a table of {replicates} x {records.c_card} strata x "
            f"{len(names)} statistics floats, too many to allocate") from None
    kept = redraws = 0
    budget = MAX_REDRAW_FACTOR * replicates
    while kept < replicates:
        # never more draws than replicates still needed, so the redraws are
        # exactly those of one draw at a time
        size = min(replicates - kept, batch)
        counts = rng.multinomial(total, probs, size=size).reshape(size, *shape)
        y, w, empty = estimate_tables(counts, smoothing)
        n10, n00, n11 = crossworld_sums(y, w)
        ok = ~empty.any(axis=(1, 2, 3)) & (n10 != 0.0).all(axis=1) & (n00 != 0.0).all(axis=1)
        good = int(ok.sum())
        redraws += size - good
        if redraws > budget:
            raise DegenerateResample(
                f"{budget + 1} degenerate replicates exceeded the redraw budget {budget}"
            )
        stats[kept:kept + good] = statistics(n10[ok], n00[ok], n11[ok])
        kept += good
        del counts, y, w, empty, n10, n00, n11  # before the next batch is drawn

    lo, hi = _limits(stats, level)
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


def _limits(stats: np.ndarray, level: float) -> np.ndarray:
    """The two-sided ``level`` percentile limits of ``stats[replicate, ...]``, as ``[lo, hi]``.

    As numpy does, the order statistics next to each virtual index
    ``(n - 1) * q / 100`` are placed by one partition at the same positions
    (so equal values such as 0.0 and -0.0 land where numpy puts them),
    blended by numpy's two-sided lerp, and a lane holding a NaN gives NaN.
    Where the two neighbours' difference is not finite, the limit is the
    exact interpolation: ``a * (1 - t) + b * t`` where both are finite (their
    difference overflowed), else the lower neighbour at weight 0 or when it
    is -inf, and the upper one otherwise.  The partition reorders ``stats``
    in place, with no copy.
    """
    n, lo_q = len(stats), 100.0 * (1.0 - level) / 2.0
    index = (n - 1) * np.true_divide([lo_q, 100.0 - lo_q], 100)
    top = index >= n - 1  # numpy takes the last value twice here
    below = np.where(top, -1, np.floor(index)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    stats.partition(sorted({0, -1, *below.tolist(), *above.tolist()}), axis=0)
    t = (index - below).reshape(-1, *[1] * (stats.ndim - 1))
    a, b = stats[below], stats[above]
    with np.errstate(over="ignore", invalid="ignore"):  # replaced below: overflow, inf - inf
        d = b - a
        out = a + d * t
        np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
        exact = np.where(np.isfinite(a) & np.isfinite(b), a * (1 - t) + b * t,
                         np.where((t == 0) | (a == -np.inf), a, b))
    np.copyto(out, exact, where=~np.isfinite(d))
    # NaNs sort last, so a lane holding one has it last
    np.copyto(out, stats[-1], where=np.isnan(stats[-1]))
    return out
