"""Report documents: deterministic JSON and CSV serialization.

Every CLI run produces one document with a versioned schema, the tool
version, a digest of the inputs, and accumulated warnings.  Serialization
is byte-deterministic given identical content: keys are sorted, floats use
their shortest round-trip representation, and no timestamps are embedded.
Infinities are written as "inf"/"-inf" (their ``repr``), in JSON as in
CSV, so every JSON report is strict, standard JSON.  CSV is streamed in
blocks of rows, never held whole.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import chain, islice
from typing import Any, Iterable, Mapping, Sequence, TextIO

SCHEMA = "medsens-report/1"

#: rows formatted and written per block by :func:`write_csv`
CSV_BLOCK = 1 << 12


def _tool_version() -> str:
    from . import __version__

    return __version__


def digest_file(path: str) -> str:
    """sha256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_params(params: Mapping[str, Any]) -> str:
    """sha256 of a canonical encoding of scalar parameters."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (tuple, set)):
        return list(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def document(
    command: str,
    payload: Mapping[str, Any],
    *,
    input_digest: str | None = None,
    seed: int | None = None,
    warnings: Sequence[str] = (),
) -> dict:
    """Assemble the standard report envelope around a payload."""
    return {
        "schema": SCHEMA,
        "tool_version": _tool_version(),
        "command": command,
        "input_digest": input_digest,
        "seed": seed,
        "warnings": list(warnings),
        "result": dict(payload),
    }


def to_json(doc: Mapping[str, Any]) -> str:
    """Deterministic strict JSON with a trailing newline."""
    text = json.dumps(_finite(doc), sort_keys=True, indent=2, default=_jsonable, allow_nan=False)
    return text + "\n"


def _finite(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return repr(float(value))  # numpy scalars too
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_csv(out: TextIO, header: Sequence[str], columns: Sequence[Iterable[str]]) -> None:
    """Stream lazy columns of formatted cells to ``out`` as CSV, ``CSV_BLOCK`` rows at a time."""
    rows = chain([header], zip(*columns))
    while text := to_csv(islice(rows, CSV_BLOCK)):
        out.write(text)


def to_csv(rows: Iterable[Sequence[str]]) -> str:
    """CSV text of rows of formatted cells, one newline-terminated line per row."""
    return "\n".join(chain(map(",".join, rows), [""]))  # "" ends the last line, or is all
