"""Categorical probability tables for mediation data.

Variables and coding
--------------------
a : binary exposure, coded 0/1
m : categorical mediator, coded 0..m_card-1
y : binary outcome, coded 0/1 (record data); table entries are pr(Y=1|...)
c : categorical covariate stratum, coded 0..c_card-1

A :class:`ConditionalModel` stores, per stratum, the two conditional tables
that every downstream effect formula consumes:

    y_prob[a][m] = pr(Y=1 | a, m, c)      (or E[Y | a, m, c] in mean mode)
    m_prob[a][m] = pr(m | a, c)

plus the outcome marginal y_marg[a] = pr(Y=1 | a, c), which always equals
sum_m y_prob[a][m] * m_prob[a][m] by the law of total probability.

Zero cells are legal in mediator tables (degenerate mediator distributions
are meaningful inputs), but a y_prob cell is only meaningful where some
formula can weight it: pr(Y=1|0,m,c) is weighted by pr(m|0,c) alone, while
pr(Y=1|1,m,c) is weighted by both pr(m|0,c) and pr(m|1,c).  Estimation fills
never-weighted cells with 0.0 and raises :class:`~medsens.errors.EmptyCell`
for weighted cells it cannot estimate.

All probabilities are 64-bit floats; tolerance constants are module level.
Every type is immutable after construction and every function is pure.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    BadCode,
    BadParameter,
    EmptyCell,
    NotNormalized,
    OutOfRangeProbability,
    ParseError,
)

#: conditional distributions must sum to one within this
SUM_TOL = 1e-12
#: a stored outcome marginal must match the law of total probability within this
MARGIN_TOL = 1e-12

OutcomeMode = Literal["probability", "mean"]

@dataclass(frozen=True, eq=False)
class RecordTable:
    """Record data as cell counts ``counts[c, a, m, y]``.

    ``counts`` is a read-only int64 array of shape (c_card, 2, m_card, 2).
    Every estimator uses record data only through these counts, so row order
    and the grouping of records into weighted rows do not matter.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = self.counts
        if not isinstance(counts, np.ndarray) or not np.issubdtype(counts.dtype, np.integer):
            raise BadParameter("record counts must be an integer array")
        counts = counts.astype(np.int64)
        if counts.ndim != 4 or counts.shape[1::2] != (2, 2) or 0 in counts.shape:
            raise BadParameter(f"record counts need shape (c_card, 2, m_card, 2): {counts.shape}")
        if (counts < 0).any() or counts.sum() <= 0:
            raise BadParameter("record counts must be nonnegative with a positive total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[int]],
        m_card: int | None = None,
        c_card: int | None = None,
    ) -> "RecordTable":
        """Collapse ``(a, m, y, c, count)`` rows into cell counts, summing duplicates.

        Cardinalities are inferred as max code + 1 when not declared.
        """
        fixed = [tuple(int(v) for v in row) for row in rows]
        if not fixed or any(len(row) != 5 for row in fixed):
            raise BadParameter("record table needs one or more rows (a, m, y, c, count)")
        if sum(row[4] for row in fixed) > np.iinfo(np.int64).max:
            raise BadParameter("total record count exceeds the int64 range")
        a, m, y, c, n = np.array(fixed, dtype=np.int64).T
        m_card = int(m.max()) + 1 if m_card is None else m_card
        c_card = int(c.max()) + 1 if c_card is None else c_card
        for name, codes, card in (("a", a, 2), ("m", m, m_card), ("y", y, 2), ("c", c, c_card)):
            bad = codes[(codes < 0) | (codes >= card)]
            if bad.size:
                raise BadCode(f"{name}={bad[0]} outside 0..{card - 1}")
        if (n <= 0).any():
            raise BadParameter(f"count must be a positive integer, got {n.min()}")
        counts = np.zeros((c_card, 2, m_card, 2), dtype=np.int64)
        np.add.at(counts, (c, a, m, y), n)
        return cls(counts)

    @property
    def c_card(self) -> int:
        return self.counts.shape[0]

    @property
    def m_card(self) -> int:
        return self.counts.shape[2]

    def total(self) -> int:
        return int(self.counts.sum())


def read_records_csv(path: str) -> RecordTable:
    """Read records from a CSV file with header ``a,m,y,c`` or ``a,m,y,c,count``.

    Integer-coded, comma-separated, UTF-8.  A missing count column means
    count 1; duplicate rows are summed into their cell.  Raises
    :class:`ParseError` naming the offending line.
    """
    cells: Counter[tuple[int, int, int, int]] = Counter()  # keyed by (c, a, m, y)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip().lower() for h in header]
        if header not in (["a", "m", "y", "c"], ["a", "m", "y", "c", "count"]):
            raise ParseError(f"{path}: line 1: header must be a,m,y,c[,count], got {header}")
        has_count = len(header) == 5
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not f.strip() for f in raw):
                continue
            if len(raw) != len(header):
                raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(raw)}")
            try:
                vals = [int(f.strip()) for f in raw]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer field in {raw}") from None
            a, m, y, c = vals[:4]
            count = vals[4] if has_count else 1
            if a not in (0, 1):
                raise ParseError(f"{path}: line {lineno}: exposure code must be 0 or 1, got {a}")
            if y not in (0, 1):
                raise ParseError(f"{path}: line {lineno}: outcome code must be 0 or 1, got {y}")
            if m < 0 or c < 0:
                raise ParseError(f"{path}: line {lineno}: negative category code")
            if count <= 0:
                raise ParseError(f"{path}: line {lineno}: count must be positive, got {count}")
            cells[c, a, m, y] += count
    if not cells:
        raise ParseError(f"{path}: no data rows")
    return RecordTable.from_rows((a, m, y, c, n) for (c, a, m, y), n in cells.items())


def swap_exposure_records(records: RecordTable) -> RecordTable:
    """Relabel exposure codes 0 <-> 1."""
    return RecordTable(records.counts[:, ::-1])


@dataclass(frozen=True)
class StratumTable:
    """Conditional tables for one covariate stratum.

    y_prob[a][m] and m_prob[a][m] are indexed by exposure then mediator;
    y_marg[a] is the outcome marginal pr(Y=1|a,c), filled by :func:`validate`
    when absent.
    """

    c: int
    y_prob: tuple[tuple[float, ...], tuple[float, ...]]
    m_prob: tuple[tuple[float, ...], tuple[float, ...]]
    y_marg: tuple[float, float] | None = None


@dataclass(frozen=True)
class ConditionalModel:
    """Observed conditional probability tables for one or more strata."""

    strata: tuple[StratumTable, ...]
    mode: OutcomeMode = "probability"

    def stratum(self, c: int) -> StratumTable:
        for s in self.strata:
            if s.c == c:
                return s
        raise BadCode(f"no stratum with code c={c}")

    @property
    def m_card(self) -> int:
        return len(self.strata[0].m_prob[0])

    @property
    def stratum_codes(self) -> tuple[int, ...]:
        return tuple(s.c for s in self.strata)


def swap_exposure(model: ConditionalModel) -> ConditionalModel:
    """Relabel exposure codes 0 <-> 1 in every stratum table."""
    strata = tuple(
        StratumTable(
            c=s.c,
            y_prob=(s.y_prob[1], s.y_prob[0]),
            m_prob=(s.m_prob[1], s.m_prob[0]),
            y_marg=None if s.y_marg is None else (s.y_marg[1], s.y_marg[0]),
        )
        for s in model.strata
    )
    return ConditionalModel(strata=strata, mode=model.mode)


def _marginal(table: StratumTable, a: int) -> float:
    return sum(yp * mp for yp, mp in zip(table.y_prob[a], table.m_prob[a]))


def validate(model: ConditionalModel) -> ConditionalModel:
    """Check all table invariants; return the model with y_marg filled in.

    Raises :class:`NotNormalized` when a mediator distribution does not sum
    to one (or a stored marginal disagrees with the law of total
    probability), and :class:`OutOfRangeProbability` for entries outside
    their range, naming the offending cell.
    """
    if not model.strata:
        raise BadParameter("model has no strata")
    m_card = model.m_card
    new_strata: list[StratumTable] = []
    for s in model.strata:
        for a in (0, 1):
            if len(s.m_prob[a]) != m_card or len(s.y_prob[a]) != m_card:
                raise BadParameter(f"stratum c={s.c}: tables must share one mediator cardinality")
            total = math.fsum(s.m_prob[a])
            if not math.isfinite(total) or abs(total - 1.0) > SUM_TOL:
                raise NotNormalized(f"pr(m|a={a},c={s.c}) sums to {total!r}, not 1")
            for m in range(m_card):
                mp = s.m_prob[a][m]
                if not math.isfinite(mp) or mp < 0.0 or mp > 1.0:
                    raise OutOfRangeProbability(f"pr(m={m}|a={a},c={s.c}) = {mp!r}")
                yp = s.y_prob[a][m]
                if model.mode == "probability":
                    if not math.isfinite(yp) or yp < 0.0 or yp > 1.0:
                        raise OutOfRangeProbability(f"pr(Y=1|a={a},m={m},c={s.c}) = {yp!r}")
                else:
                    if not math.isfinite(yp) or yp < 0.0:
                        raise OutOfRangeProbability(f"E[Y|a={a},m={m},c={s.c}] = {yp!r}")
        marg = (_marginal(s, 0), _marginal(s, 1))
        if s.y_marg is None:
            new_strata.append(replace(s, y_marg=marg))
        else:
            for a in (0, 1):
                if abs(s.y_marg[a] - marg[a]) > MARGIN_TOL:
                    raise NotNormalized(
                        f"y_marg[a={a}] for c={s.c} is {s.y_marg[a]!r}; "
                        f"law of total probability gives {marg[a]!r}"
                    )
            new_strata.append(s)
    return ConditionalModel(strata=tuple(new_strata), mode=model.mode)


def estimate_from_records(records: RecordTable, smoothing: float = 0.0) -> ConditionalModel:
    """Empirical conditional tables with optional add-k smoothing.

    Smoothing adds ``k`` to every cell count of each conditional table
    before normalizing, so k -> infinity shrinks every conditional toward
    the uniform distribution.  With k = 0 the estimate is the plain
    frequency table; cells that downstream formulas weight must then have
    positive count or :class:`EmptyCell` is raised.  A stratum code with no
    records raises :class:`EmptyCell` whatever the smoothing: smoothing
    alone would report it as a null effect.
    """
    if not (isinstance(smoothing, (int, float)) and math.isfinite(smoothing)) or smoothing < 0:
        raise BadParameter(f"smoothing must be a finite nonnegative real, got {smoothing!r}")
    k = float(smoothing)
    m_card, c_card = records.m_card, records.c_card
    # plain ints keep every table entry a plain float
    n = records.counts.tolist()
    n_cell = records.counts.sum(axis=3).tolist()
    n_arm = records.counts.sum(axis=(2, 3)).tolist()

    strata = []
    for c in range(c_card):
        if not any(n_arm[c]):
            raise EmptyCell(f"no records in stratum c={c}")
        m_prob: list[tuple[float, ...]] = []
        for a in (0, 1):
            if n_arm[c][a] == 0 and k == 0.0:
                raise EmptyCell(f"no records for exposure a={a} in stratum c={c}")
            denom = n_arm[c][a] + k * m_card
            m_prob.append(tuple((n_cell[c][a][m] + k) / denom for m in range(m_card)))
        y_prob: list[tuple[float, ...]] = []
        for a in (0, 1):
            row = []
            for m in range(m_card):
                needed = m_prob[0][m] > 0.0 or (a == 1 and m_prob[1][m] > 0.0)
                cell_total = n_cell[c][a][m]
                if cell_total == 0 and k == 0.0:
                    if needed:
                        raise EmptyCell(f"no records for cell a={a}, m={m} in stratum c={c}")
                    row.append(0.0)
                else:
                    row.append((n[c][a][m][1] + k) / (cell_total + 2.0 * k))
            y_prob.append(tuple(row))
        strata.append(StratumTable(c=c, y_prob=(y_prob[0], y_prob[1]), m_prob=(m_prob[0], m_prob[1])))
    return validate(ConditionalModel(strata=tuple(strata)))


def expand_to_records(model: ConditionalModel, denominator: int) -> RecordTable:
    """Exact inverse of :func:`estimate_from_records` for rational tables.

    Fills cell counts ``denominator * pr(m|a,c) * pr(y|a,m,c)``; every
    such product must be an integer (within 1e-6), otherwise the model
    cannot be represented by weighted records and :class:`BadParameter`
    is raised.  Only meaningful in probability mode.
    """
    if model.mode != "probability":
        raise BadParameter("only probability-mode models expand to binary-outcome records")
    if denominator < 1:
        raise BadParameter("denominator must be a positive integer")
    counts = np.zeros((len(model.strata), 2, model.m_card, 2), dtype=np.int64)
    for s in model.strata:
        if not 0 <= s.c < len(model.strata):
            raise BadCode(f"c={s.c} outside 0..{len(model.strata) - 1}")
        for a in (0, 1):
            for m in range(model.m_card):
                for y, share in ((1, s.y_prob[a][m]), (0, 1.0 - s.y_prob[a][m])):
                    raw = denominator * s.m_prob[a][m] * share
                    count = round(raw)
                    if abs(raw - count) > 1e-6:
                        raise BadParameter(
                            f"cell a={a},m={m},y={y},c={s.c}: {raw!r} is not an integer count"
                        )
                    counts[s.c, a, m, y] = count
    return RecordTable(counts)
