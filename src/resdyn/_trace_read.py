"""The trace CSV parser behind :func:`resdyn.core.read_trace_csv`."""

from __future__ import annotations

from array import array

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

    Holds what earlier lines set: the ``f0`` metadata, whether the header
    was seen, and the samples read so far, as ``times`` and ``values``
    columns.  :meth:`read` reads lines in file order and raises
    InvalidTraceError naming ``path:lineno`` at the first bad one.
    """

    def __init__(self, path):
        self.path = path
        self.f0 = 1.0
        self.saw_header = False
        self.times = array("d")
        self.values = array("d")

    def read(self, lines, first: int) -> None:
        """Add the samples in ``lines``, the first of which is line
        ``first``, to the columns."""
        path = self.path
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
                t, v = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise InvalidTraceError(
                    f"{path}:{lineno}: non-numeric sample {line!r}"
                ) from exc
            self.times.append(t)
            self.values.append(v)

    def read_bulk(self, lines) -> bool:
        """Add the samples in ``lines`` from one numpy parse, and say so;
        or add nothing and return False when the lines need the line
        grammar: a comment, a whitespace-only line, a character outside
        ``_BULK_CHARS``, or a row numpy refuses."""
        text = "".join(lines)
        if (not text.isascii() or not text.strip()
                or text.encode("ascii").translate(None, _BULK_CHARS)):
            return False
        import numpy as np

        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return False
        if rows.shape[1] != 2:
            return False
        self.times.frombytes(rows[:, 0].tobytes())
        self.values.frombytes(rows[:, 1].tobytes())
        return True


# Sample lines are read in blocks of about this many characters.  A file
# whose first block of samples is longer than this has its blocks parsed
# by numpy (:meth:`_TraceLines.read_bulk`); a shorter one holds all of its
# samples, and the line grammar reads them without loading numpy.
_BLOCK_CHARS = 1 << 16

# Over lines made only of these characters, numpy's loadtxt and the line
# grammar accept the same rows and read the same bits: both strip spaces
# and tabs around a field and parse it with the same correctly rounded
# conversion.  Outside them they differ (loadtxt strips a no-break space,
# for one), so such lines go through the line grammar.
_BULK_CHARS = b"0123456789+-.eE, \t\n"


def read_trace(path) -> FunctionalityTrace:
    """See :func:`resdyn.core.read_trace_csv`."""
    reader = _TraceLines(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lineno = 0
            while not reader.saw_header:
                raw = fh.readline()
                if not raw:
                    raise InvalidTraceError(
                        f"{path}: missing {TRACE_CSV_HEADER!r} header")
                lineno += 1
                reader.read((raw,), lineno)
            chunk = fh.readlines(_BLOCK_CHARS)
            # readlines stops once a block is longer than the hint, so a
            # shorter first block is the whole rest of the file.
            bulk = sum(map(len, chunk)) > _BLOCK_CHARS
            while chunk:
                if not (bulk and reader.read_bulk(chunk)):
                    reader.read(chunk, lineno + 1)
                lineno += len(chunk)
                chunk = fh.readlines(_BLOCK_CHARS)
    except UnicodeDecodeError as exc:
        raise InvalidTraceError(
            f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return FunctionalityTrace(reader.times, reader.values, reader.f0)
    except InvalidTraceError as exc:
        # The samples as a whole are refused: no one line is at fault.
        raise InvalidTraceError(f"{path}: {exc}") from exc
