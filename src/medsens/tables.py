"""Categorical probability tables for mediation data.

Variables and coding
--------------------
a : binary exposure, coded 0/1
m : categorical mediator, coded 0..m_card-1
y : binary outcome, coded 0/1 (record data); table entries are pr(Y=1|...)
c : categorical covariate stratum, coded 0..c_card-1

Every downstream effect formula consumes two conditional tables, as
arrays of one shape (..., 2, m_card), the a axis and then the m axis
trailing:

    y[..., a, m] = pr(Y=1 | a, m, c)      (or E[Y | a, m, c] in mean mode)
    w[..., a, m] = pr(m | a, c)

Estimation from records returns them as a pair ``(y, w)`` of float arrays
of shape (c_card, 2, m_card), the stratum code ``c`` the index of the
leading axis; :func:`~medsens.bounds.bound_report` checks any pair it is
given before it forms effects from it, whatever their dtype.

:func:`crossworld_sums` reduces such tables over their trailing (a, m)
axes to the three sums every effect and bound is built from, keeping any
leading axes: the strata here, or a batch of synthetic models in the
oracle.  The outcome marginal pr(Y=1 | a, c) is one of them (n00 for a=0,
n11 for a=1), so it is not stored.

Zero cells are legal in mediator tables (degenerate mediator distributions
are meaningful inputs), but a y cell is only meaningful where some
formula can weight it: pr(Y=1|0,m,c) is weighted by pr(m|0,c) alone, while
pr(Y=1|1,m,c) is weighted by both pr(m|0,c) and pr(m|1,c).  Estimation fills
never-weighted cells with 0.0 and raises :class:`~medsens.errors.EmptyCell`
for weighted cells it cannot estimate.

Estimated probabilities are 64-bit floats; tolerance constants are module level.
Every type is immutable after construction and every function is pure.
"""

from __future__ import annotations

import csv
import hashlib
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Literal

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

#: largest count a cell of record data may hold
INT64_MAX = int(np.iinfo(np.int64).max)

#: characters of CSV lines tallied per block during ingest, about 4,096 unit records
READ_BLOCK = 1 << 15

#: cells of its items' tables one batch may hold, and at least one item: bootstrap replicates'
#: count tensors, or synthetic models' pr(m | a, u)
BATCH_CELLS = 1 << 14

#: most cells a count tensor may have: c_card * 2 * m_card * 2, so c_card * m_card <= 65,536
MAX_CELLS = 1 << 18

OutcomeMode = Literal["probability", "mean"]

@dataclass(frozen=True, eq=False)
class RecordTable:
    """Record data as cell counts ``counts[c, a, m, y]``.

    ``counts`` is a read-only int64 array of shape (c_card, 2, m_card, 2).
    Every estimator uses record data only through these counts, so row order
    and the grouping of records into weighted rows do not matter.  The
    tensor's rules are checked here: an integer dtype, that shape, no
    negative count or count past int64, and a positive total within the
    int64 range.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = self.counts
        if not isinstance(counts, np.ndarray) or not np.issubdtype(counts.dtype, np.integer):
            raise BadParameter("record counts must be an integer array")
        if counts.ndim != 4 or counts.shape[1::2] != (2, 2) or 0 in counts.shape:
            raise BadParameter(f"record counts need shape (c_card, 2, m_card, 2): {counts.shape}")
        large = counts > INT64_MAX  # an unsigned count that int64 would wrap
        if large.any():
            cell = first_cell("counts[{}, {}, {}, {}]", large)
            raise BadParameter(f"record counts must be at most {INT64_MAX}: {cell} = "
                               f"{counts[large][0]}")
        counts = counts.astype(np.int64)
        negative = counts < 0
        if negative.any():
            cell = first_cell("counts[{}, {}, {}, {}]", negative)
            raise BadParameter(f"record counts must be nonnegative: {cell} = {counts[negative][0]}")
        running = np.cumsum(counts)  # of nonnegative terms, so the first that wraps goes negative
        if (running < 0).any():
            raise BadParameter("total record count exceeds the int64 range")
        total = running[-1]
        if total <= 0:
            raise BadParameter(f"record counts must have a positive total, got {total}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def c_card(self) -> int:
        return self.counts.shape[0]

    @property
    def m_card(self) -> int:
        return self.counts.shape[2]

    def total(self) -> int:
        return int(self.counts.sum())


def read_records_csv(path: str) -> tuple[RecordTable, str]:
    """The records of a CSV file with header ``a,m,y,c`` or ``a,m,y,c,count``, and its sha256.

    Integer-coded (ASCII digits, an optional ``-``, optional whitespace
    around), comma-separated, UTF-8, one record per line; a line ends at
    ``\\n``, ``\\r\\n``, a lone ``\\r`` or the end of the file.  A missing
    count column means count 1; duplicate rows are summed into their cell.
    Raises :class:`ParseError` naming the first offending line, also for
    bytes that are not UTF-8, for a field beyond the ``csv`` field limit and
    for a quoted field that runs past the end of its line.

    Each line is checked by :func:`_parse_record`; the file as a whole is
    checked here, before the count tensor is allocated: each cardinality
    is the largest code + 1, codes needing more than ``MAX_CELLS`` cells
    raise :class:`BadCode`, and a cell count past the int64 range raises
    :class:`BadParameter`.

    Identical lines are tallied first, about ``READ_BLOCK`` characters at a
    time, and each distinct line of a block is parsed once, so the cost
    scales with the distinct lines rather than the rows; memory stays
    bounded by the block plus the cells.

    The file is opened once, so a pipe such as ``/dev/stdin`` reads like a
    regular file.  The digest, a hex sha256, is of the bytes read: each
    block is hashed as read, re-encoded exactly (``newline=""`` translates
    no line end, and bytes that are not UTF-8 are kept as escapes), and a
    leading byte order mark is hashed before it is dropped from the header.
    """
    cells: Counter[tuple[int, int, int, int]] = Counter()  # keyed by (c, a, m, y)
    width = 0  # fields per record, set by the header
    digest = hashlib.sha256()
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        digest.update(first.encode("utf-8", "surrogateescape"))
        if not (first := first.removeprefix("\ufeff")):
            raise ParseError(f"{path}: empty file")
        start, lines = 1, [first]  # the header is a block of its own
        while lines:
            if not lines[-1].endswith(("\n", "\r")):
                lines[-1] += "\n"  # the last line: a quote left open now runs past its end
            # distinct lines in first-appearance order: the first bad one is on the first bad line
            tally = Counter(lines)
            records = csv.reader(tally)
            for line, times in tally.items():
                try:
                    record = next(records)
                    if '"' in line and any("\n" in f or "\r" in f for f in record):
                        raise ParseError("a quoted field runs past the end of the line")
                    if not width:
                        header = [h.strip().lower() for h in record]
                        if header not in (["a", "m", "y", "c"], ["a", "m", "y", "c", "count"]):
                            raise ParseError(f"header must be a,m,y,c[,count], got {header}")
                        width = len(header)
                        continue
                    parsed = _parse_record(record, width)
                except (csv.Error, ParseError) as err:
                    if any("\udc80" <= ch <= "\udcff" for ch in line):
                        err = "a byte sequence that is not UTF-8"  # kept as escapes on reading
                    raise ParseError(f"{path}: line {start + lines.index(line)}: {err}") from None
                if parsed is not None:
                    cell, count = parsed
                    cells[cell] += count * times
            start += len(lines)
            lines = fh.readlines(READ_BLOCK)
            digest.update("".join(lines).encode("utf-8", "surrogateescape"))
    if not cells:
        raise ParseError(f"{path}: no data rows")
    c_card = 1 + max(c for c, _, _, _ in cells)
    m_card = 1 + max(m for _, _, m, _ in cells)
    if c_card * 2 * m_card * 2 > MAX_CELLS:  # also any code past int64
        raise BadCode(
            f"codes m={m_card - 1}, c={c_card - 1} need {c_card * 2 * m_card * 2} count cells,"
            f" over the cap of {MAX_CELLS}; recode m and c as consecutive codes from 0"
        )
    if max(cells.values()) > INT64_MAX:
        raise BadParameter("total record count exceeds the int64 range")
    counts = np.zeros((c_card, 2, m_card, 2), dtype=np.int64)
    for cell, count in cells.items():
        counts[cell] = count
    return RecordTable(counts), digest.hexdigest()


def _parse_record(
    raw: list[str], width: int
) -> tuple[tuple[int, int, int, int], int] | None:
    """The cell ``(c, a, m, y)`` and count of one CSV record; None for a blank line.

    The rules of a line: ``width`` integer fields, ``a`` and ``y`` in {0, 1},
    ``m`` and ``c`` nonnegative, and a positive count.
    """
    text = "".join(raw)
    if not text.strip():
        return None
    if len(raw) != width:
        raise ParseError(f"expected {width} fields, got {len(raw)}")
    try:
        vals = list(map(int, raw))  # int() ignores the whitespace around a field
    except ValueError:
        vals = None
    # int() also takes "_", "+" and non-ASCII digits
    if vals is None or "_" in text or "+" in text or not text.isascii():
        raise ParseError(f"non-integer field in {raw}")
    a, m, y, c = vals[:4]
    count = vals[4] if width == 5 else 1
    for name, code in (("exposure", a), ("outcome", y)):
        if code not in (0, 1):
            raise ParseError(f"{name} code must be 0 or 1, got {code}")
    for name, code in (("mediator", m), ("stratum", c)):
        if code < 0:
            raise ParseError(f"{name} code must be >= 0, got {code}")
    if count <= 0:
        raise ParseError(f"count must be positive, got {count}")
    return (c, a, m, y), count


def first_cell(what: str, mask: np.ndarray) -> str:
    """``what`` filled with the trailing indices of the first True entry of ``mask``.

    ``what`` takes one index per ``{``, the last ones of the entry, so a
    template names any of its axes in any order: ``"pr(m={2}|a={1},c={0})"``.
    """
    index = np.argwhere(mask)[0]
    return what.format(*index[index.size - what.count("{"):])


def check_table(values, what: str, high: float = 1.0, *, rows: str = "") -> np.ndarray:
    """``values`` as a float array, checked as a table of probabilities or means.

    Every entry must be finite and in [0, ``high``], or
    :class:`OutOfRangeProbability` names the first that is not through the
    template ``what`` (see :func:`first_cell`).  Given ``rows``, a template
    naming a row by its indices before the last axis, the table holds
    distributions over the last axis: each row must sum to 1 within
    ``SUM_TOL``, or :class:`NotNormalized` names the first that does not,
    and its entries may reach ``1 + SUM_TOL``, as a lone level may round.
    Outcome tables are checked through :func:`_check_outcomes`, by mode.
    """
    values = np.asarray(values, dtype=float)
    if rows:
        high = 1.0 + SUM_TOL
    bad = ~(np.isfinite(values) & (values >= 0.0) & (values <= high))
    if bad.any():
        raise OutOfRangeProbability(f"{first_cell(what, bad)} = {float(values[bad][0])!r}")
    if rows:
        total = c_order_sum(values)
        bad = ~(np.abs(total - 1.0) <= SUM_TOL)
        if bad.any():
            raise NotNormalized(f"{first_cell(rows, bad)} sums to {float(total[bad][0])!r}, not 1")
    return values


def _check_outcomes(values, mode: str, given: str) -> np.ndarray:
    """``values`` checked as pr(Y=1|given) in [0, 1], or in mode ``mean`` as E[Y|given] in [0, inf).

    ``given`` templates the conditions; any other mode raises :class:`BadParameter`.
    """
    if mode == "probability":
        return check_table(values, f"pr(Y=1|{given})")
    if mode == "mean":
        return check_table(values, f"E[Y|{given}]", np.inf)
    raise BadParameter(f"outcome mode must be 'probability' or 'mean', got {mode!r}")


def c_order_sum(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """``x.sum(axis)`` added up in the order numpy takes on a C-contiguous ``x``.

    numpy adds an axis of 8 or more entries that runs contiguously in
    pairwise blocks, and any other axis in sequence.  In C order only an
    axis with nothing but unit axes after it runs contiguously.  Such an
    axis of any other layout is summed from a C-contiguous copy; any other
    axis is summed in place, which is in sequence both in C order and with
    the models innermost.  The bytes of a sum therefore do not depend on
    the memory layout.
    """
    n = x.shape[axis]
    if n >= 8 and math.prod(x.shape[axis:]) == n:
        x = np.ascontiguousarray(x)
    return x.sum(axis=axis, keepdims=keepdims)


def crossworld_sums(y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n10, n00, n11)`` over the trailing (a, m) axes of ``y[..., a, m]`` and ``w[..., a, m]``.

    n_ab = sum_m y(a,m) w(b,m): n10 is the cross-world term, n00 and n11
    the outcome marginals of the two arms.  Leading axes are kept, so one
    call serves a stratum, all strata, or a batch of synthetic models.
    """
    n10 = c_order_sum(y[..., 1, :] * w[..., 0, :])
    n00 = c_order_sum(y[..., 0, :] * w[..., 0, :])
    n11 = c_order_sum(y[..., 1, :] * w[..., 1, :])
    return n10, n00, n11


def check_smoothing(smoothing) -> float:
    """``smoothing`` as the k of add-k smoothing, refused unless finite and >= 0; needs no data."""
    if not (isinstance(smoothing, numbers.Real) and math.isfinite(smoothing)) or smoothing < 0:
        raise BadParameter(f"smoothing must be a finite nonnegative real, got {smoothing!r}")
    return float(smoothing)


def estimate_tables(
    counts: np.ndarray, smoothing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical tables ``y``, ``w`` of count tensors ``counts[..., c, a, m, y]``.

    Returns ``(y, w, empty)``, each of shape (..., c_card, 2, m_card); any
    leading axes of ``counts`` (a batch of bootstrap replicates) are kept.
    ``empty`` marks the required cells without records: every cell of a
    stratum without records, with k = 0 every cell of an arm without
    records, and otherwise each cell that a formula weights but no record
    fills.  A table with a marked cell cannot be estimated; its entries are
    finite but meaningless.  See :func:`estimate_from_records` for the
    smoothing.
    """
    k = check_smoothing(smoothing)
    # the denominators n + k*M and n + 2k overflow exactly when k*M or 2k does, for any int64 n
    if not math.isfinite(k * max(counts.shape[-2], 2)):
        raise BadParameter(f"smoothing {smoothing!r} is so large that the smoothed counts overflow")
    n_cell = counts.sum(axis=-1)  # (..., c, a, m)
    n_arm = n_cell.sum(axis=-1, keepdims=True)  # (..., c, a, 1)
    denom = n_arm + k * n_cell.shape[-1]
    w = np.divide(n_cell + k, denom, out=np.zeros(n_cell.shape), where=denom > 0)
    # pr(Y=1|0,m,c) is weighted by pr(m|0,c); pr(Y=1|1,m,c) also by pr(m|1,c)
    reached = w > 0.0
    needed = np.stack([reached[..., 0, :], reached[..., 0, :] | reached[..., 1, :]], axis=-2)
    missing = (n_cell == 0) & (k == 0.0)
    no_stratum = n_arm.sum(axis=-2, keepdims=True) == 0
    empty = (missing & needed) | ((n_arm == 0) & (k == 0.0)) | no_stratum
    y = np.zeros(n_cell.shape)
    np.divide(counts[..., 1] + k, n_cell + 2.0 * k, out=y, where=~missing)
    return y, w, empty


def estimate_from_records(
    records: RecordTable, smoothing: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical conditional tables ``(y, w)``, each (c_card, 2, m_card), with add-k smoothing.

    Smoothing adds ``k`` to every cell count of each conditional table
    before normalizing, so k -> infinity shrinks every conditional toward
    the uniform distribution.  With k = 0 the estimate is the plain
    frequency table; cells that downstream formulas weight must then have
    positive count or :class:`EmptyCell` is raised.  A stratum code with no
    records raises :class:`EmptyCell` whatever the smoothing: smoothing
    alone would report it as a null effect.
    """
    y, w, empty = estimate_tables(records.counts, smoothing)
    # a wholly marked stratum or arm has no records at all
    for what, mask in (
        ("no records in stratum c={}", empty.all(axis=(1, 2))),
        ("no records for exposure a={1} in stratum c={0}", empty.all(axis=2)),
        ("no records for cell a={1}, m={2} in stratum c={0}", empty),
    ):
        if mask.any():
            raise EmptyCell(first_cell(what, mask))
    return y, w

