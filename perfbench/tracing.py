"""In-process spans around the public functions of each ``medsens`` layer.

Nothing under ``src/`` knows about tracing: :func:`instrument` replaces a
function at every module attribute that refers to it (``cli`` looks up
``tables.read_records_csv``, ``bootstrap`` its own ``estimate_from_records``
and ``bound_report``, and so on) and puts the originals back on exit.
``RecordTable.__post_init__``, the per-row validation, is wrapped on the
class, where the dataclass ``__init__`` looks it up.  A target that a later
version of the package no longer has is skipped; its metrics read 0.

Spans ``[name, start, end, parent index]`` are kept in memory and written
out when the traced command ends; self times are derived from them
afterwards by :func:`self_times`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from typing import Callable

#: layers in report order; a span's layer is its name up to the first dot
LAYERS = ("tables", "bootstrap", "effects", "bounds", "oracle", "loglinear", "report", "cli")

#: spans whose self time is reported, in report order
SELF_TIME_SPANS = (
    "tables.read_records_csv",
    "tables.record_table",
    "tables.estimate_from_records",
    "bootstrap.run_bootstrap",
    "effects.observed_effects",
    "bounds.bound_report",
    "oracle.sample_scm",
    "oracle.verify_bounds",
    "oracle.unexposed_nde_check",
    "oracle.sharpness_search",
    "oracle.validity_battery",
    "loglinear.collider_ratio_grid",
    "report.to_csv",
    "report.to_json",
    "report.digest_file",
)

#: counts, with their units; they repeat exactly for identical inputs
COUNTS = {
    "tables.rows_read": "count",
    "tables.rows_validated": "count",
    "tables.estimate_from_records.calls": "count",
    "bootstrap.replicates": "count",
    "bootstrap.degenerate_redraws": "count",
    "effects.observed_effects.calls": "count",
    "bounds.bound_report.calls": "count",
    "oracle.models": "count",
    "report.bytes_out": "bytes",
}


class Tracer:
    """Spans of one traced command, and the counts taken at their boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def self_times(spans: list[list], totals: dict[str, float]) -> None:
    """Add each span's duration minus its children's to ``totals``, by span name."""
    for name, start, end, parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent is not None:
            parent_name = spans[parent][0]
            totals[parent_name] = totals.get(parent_name, 0.0) - (end - start)


def _calls(name: str) -> Callable:
    def count(counts, args, result):
        counts[name + ".calls"] += 1

    return count


def _bootstrap_counts(counts, args, result):
    counts["bootstrap.replicates"] += result.replicates
    counts["bootstrap.degenerate_redraws"] += result.degenerate_redraws


def _models(counts, args, result):
    counts["oracle.models"] += 1


def _bytes_out(counts, args, result):
    counts["report.bytes_out"] += len(result.encode("utf-8"))


def _rows_validated(counts, args, result):
    counts["tables.rows_validated"] += len(getattr(args[0], "rows", ()))


def _targets(rows_by_path: dict[str, int]):
    """(module name, attribute, span name, counter) for every traced function."""

    def rows_read(counts, args, result):
        counts["tables.rows_read"] += rows_by_path.get(str(args[0]), 0)

    return (
        ("medsens.tables", "read_records_csv", "tables.read_records_csv", rows_read),
        ("medsens.tables", "estimate_from_records", "tables.estimate_from_records",
         _calls("tables.estimate_from_records")),
        ("medsens.bootstrap", "run_bootstrap", "bootstrap.run_bootstrap", _bootstrap_counts),
        ("medsens.effects", "observed_effects", "effects.observed_effects",
         _calls("effects.observed_effects")),
        ("medsens.bounds", "bound_report", "bounds.bound_report", _calls("bounds.bound_report")),
        ("medsens.oracle", "sample_scm", "oracle.sample_scm", None),
        ("medsens.oracle", "verify_bounds", "oracle.verify_bounds", _models),
        ("medsens.oracle", "unexposed_nde_check", "oracle.unexposed_nde_check", _models),
        ("medsens.oracle", "sharpness_search", "oracle.sharpness_search", None),
        ("medsens.oracle", "validity_battery", "oracle.validity_battery", None),
        ("medsens.loglinear", "collider_ratio_grid", "loglinear.collider_ratio_grid", None),
        ("medsens.report", "to_csv", "report.to_csv", _bytes_out),
        ("medsens.report", "to_json", "report.to_json", _bytes_out),
        ("medsens.report", "digest_file", "report.digest_file", None),
    )


@contextlib.contextmanager
def instrument(tracer: Tracer, rows_by_path: dict[str, int]):
    """Route every traced function of the imported ``medsens`` modules through ``tracer``."""
    modules = [m for n, m in sys.modules.items() if n == "medsens" or n.startswith("medsens.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span, count in _targets(rows_by_path):
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(span, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, value))
                        setattr(module, name, wrapped)
        record_table = getattr(sys.modules.get("medsens.tables"), "RecordTable", None)
        post_init = getattr(record_table, "__post_init__", None)
        if post_init is not None:
            undo.append((record_table, "__post_init__", post_init))
            record_table.__post_init__ = tracer.wrap("tables.record_table", post_init,
                                                     _rows_validated)
        yield tracer
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
