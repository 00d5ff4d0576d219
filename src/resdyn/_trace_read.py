"""The trace CSV parser behind :func:`resdyn.core.read_trace_csv`."""

from __future__ import annotations

import numpy as np

from .core import TRACE_CSV_HEADER, FunctionalityTrace
from .errors import InvalidTraceError


def _check_ascii_number(raw: str) -> None:
    """Raise ValueError where :func:`float` would read more than an ASCII
    number from ``raw``: a ``_`` digit separator, or a non-ASCII digit or
    space (even one that stripping the line would drop)."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)


class _TraceLines:
    """The line grammar of a trace CSV, applied one line at a time.

    Holds what earlier lines set: the ``f0`` metadata and whether the
    header was seen.  :meth:`rows` reads lines in file order and raises
    InvalidTraceError naming ``path:lineno`` at the first bad one.
    """

    def __init__(self, path):
        self.path = path
        self.f0 = 1.0
        self.saw_header = False

    def rows(self, lines, first: int) -> np.ndarray:
        """The samples in ``lines``, the first of which is line ``first``,
        as an (n, 2) array of (time, value) rows."""
        path = self.path
        rows = []
        for lineno, raw in enumerate(lines, start=first):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("f0="):
                    try:
                        _check_ascii_number(raw)
                        self.f0 = float(body[3:])
                    except ValueError as exc:
                        raise InvalidTraceError(
                            f"{path}:{lineno}: bad f0 metadata: {body!r}"
                        ) from exc
                continue
            if not self.saw_header:
                if line != TRACE_CSV_HEADER:
                    raise InvalidTraceError(
                        f"{path}:{lineno}: expected header "
                        f"{TRACE_CSV_HEADER!r}, got {line!r}"
                    )
                self.saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidTraceError(f"{path}:{lineno}: expected two fields")
            try:
                _check_ascii_number(raw)
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InvalidTraceError(
                    f"{path}:{lineno}: non-numeric sample {line!r}"
                ) from exc
        return np.array(rows, dtype=float).reshape(-1, 2)


# Sample lines are read in blocks of about this many characters.
_BLOCK_CHARS = 1 << 16

# Over lines made only of these characters, numpy's loadtxt and the line
# grammar accept the same rows and read the same bits: both strip spaces
# and tabs around a field and parse it with the same correctly rounded
# conversion.  Outside them they differ (loadtxt strips a no-break space,
# for one), so such lines go through the line grammar.
_BULK_CHARS = b"0123456789+-.eE, \t\n"


def _bulk_rows(lines) -> np.ndarray | None:
    """The samples in ``lines`` from one numpy parse, or None when the
    lines need the line grammar: a comment, a whitespace-only line, a
    character outside ``_BULK_CHARS``, or a row numpy refuses."""
    text = "".join(lines)
    if (not text.isascii() or not text.strip()
            or text.encode("ascii").translate(None, _BULK_CHARS)):
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 2 else None


def read_trace(path) -> FunctionalityTrace:
    """See :func:`resdyn.core.read_trace_csv`."""
    reader = _TraceLines(path)
    blocks = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lineno = 0
            while not reader.saw_header:
                raw = fh.readline()
                if not raw:
                    raise InvalidTraceError(
                        f"{path}: missing {TRACE_CSV_HEADER!r} header")
                lineno += 1
                reader.rows((raw,), lineno)
            while chunk := fh.readlines(_BLOCK_CHARS):
                rows = _bulk_rows(chunk)
                blocks.append(reader.rows(chunk, lineno + 1) if rows is None
                              else rows)
                lineno += len(chunk)
    except UnicodeDecodeError as exc:
        raise InvalidTraceError(
            f"{path}: not UTF-8 text ({exc.reason})") from exc
    rows = np.concatenate(blocks) if blocks else np.empty((0, 2))
    try:
        return FunctionalityTrace(rows[:, 0], rows[:, 1], reader.f0)
    except InvalidTraceError as exc:
        # The samples as a whole are refused: no one line is at fault.
        raise InvalidTraceError(f"{path}: {exc}") from exc
