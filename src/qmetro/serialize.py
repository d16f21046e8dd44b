"""Deterministic JSON/CSV emission and atomic file writes.

All floats are written with 17 significant digits so that serialized decimal
representations round-trip exactly through IEEE-754 doubles: parsing a file
and re-serializing it reproduces the bytes.
"""

from __future__ import annotations

import json
import os
import tempfile


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip),
    with a '.' or an exponent, so that a JSON reader reads a float back."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value not serializable: {x!r}")
    text = f"{x:.17g}"
    return text if "." in text or "e" in text else text + ".0"


def _emit(obj, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f'{pad}  {json.dumps(str(k))}: ')
            _emit(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        # matrices/vectors of numbers stay on one line per row
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            parts.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        parts.append("[\n")
        for i, v in enumerate(seq):
            parts.append(pad + "  ")
            _emit(v, parts, indent + 1)
            parts.append(",\n" if i < len(seq) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(_scalar(obj))


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return json.dumps(v)


def dumps_json(obj) -> str:
    """Serialize to JSON with fixed key order and 17-digit floats."""
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def complex_matrix_doc(m) -> dict:
    """A complex matrix (a numpy array) as ``{"re": rows, "im": rows}``."""
    return {"re": [[float(x) for x in row] for row in m.real],
            "im": [[float(x) for x in row] for row in m.imag]}


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

