"""Report documents: deterministic JSON and CSV serialization.

Every JSON report is written by :func:`write_json`, the one writer of its
envelope: a versioned schema, the tool version, a digest of the inputs, and
accumulated warnings.  Output is byte-deterministic given identical content:
keys are sorted, floats use their shortest round-trip representation, and no
timestamps are embedded.  Infinities are written as "inf"/"-inf" (their
``repr``), in JSON as in CSV, so every JSON report is strict, standard JSON.

CSV is written from blocks of numpy columns, one block of about
``CSV_BLOCK`` rows at a time, never held whole: a command hands
:func:`write_csv` its blocks as it forms them, so the values and their text
in memory are one block, whatever the table's size.  Every cell reads
exactly as Python's ``repr`` of its value.  Each column of a block is
formatted in C by ``orjson``, whose shortest round-trip digits equal
``repr``'s; only its notation differs, outside the magnitudes [1e-4, 1e16)
(``1e16`` against ``1e+16``) and for inf and nan (``null``).
Those cells, found by one mask per column (not formed when the column's
smallest and largest magnitudes are in range), are formatted by ``repr``.
``orjson`` is imported on first use, so JSON-only commands never load it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import __version__

SCHEMA = "medsens-report/1"

#: rows per block of a table that is formed and written a block at a time
CSV_BLOCK = 1 << 10


def digest_params(params: Mapping[str, Any]) -> str:
    """sha256 of a canonical encoding of scalar parameters."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_json(
    out: TextIO,
    command: str,
    payload: Mapping[str, Any],
    *,
    input_digest: str | None = None,
    seed: int | None = None,
    warnings: Sequence[str] = (),
) -> None:
    """Write the standard report envelope around ``payload`` to ``out`` as :func:`to_json` text."""
    out.write(to_json({
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "input_digest": input_digest,
        "seed": seed,
        "warnings": list(warnings),
        "result": dict(payload),
    }))


def to_json(doc: Mapping[str, Any]) -> str:
    """Deterministic strict JSON with a trailing newline."""
    text = json.dumps(_finite(doc), sort_keys=True, indent=2, allow_nan=False)
    return text + "\n"


def _finite(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return repr(float(value))  # numpy scalars too
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_csv(
    out: TextIO, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]
) -> None:
    """Write ``header`` and each block of equal-length 1-d columns to ``out`` as one CSV table.

    A block's text is written once the block is formed and formatted, and
    the header with the first block, so an error in forming the first block
    leaves ``out`` untouched.
    """
    for block in blocks:
        out.write(to_csv(block, header))
        header = ()


def to_csv(columns: Sequence[np.ndarray], header: Sequence[str] = ()) -> str:
    """CSV text of the ``header`` line, if any, and the rows of equal-length 1-d columns."""
    lines = [",".join(header)] if header else []
    lines += map(",".join, zip(*map(_cells, columns)))
    return "\n".join(lines) + "\n" if lines else ""


def _cells(column: np.ndarray) -> list[str]:
    """Each value of an int or float column as its ``repr``."""
    import orjson

    column = np.ascontiguousarray(column)
    text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    cells = text.split(",") if column.size else []
    if column.dtype.kind == "f":  # orjson's notation differs from repr's here, and nan/inf are null
        magnitude = np.abs(column)
        if column.size and magnitude.min() >= 1e-4 and magnitude.max() < 1e16:
            return cells
        other = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (column != 0.0)
        for i in np.flatnonzero(other).tolist():
            cells[i] = repr(float(column[i]))
    return cells
