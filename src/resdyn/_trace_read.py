"""The trace CSV reader, :func:`read_trace_csv`.

It is a module of its own, so a command that reads no trace does not
compile it.  It runs on the standard library alone and never loads numpy.
Samples are read in blocks: a block of plain ``number,number`` lines is
parsed in one pass, and any other block is read line by line.
"""

from __future__ import annotations

from array import array

from .core import TRACE_CSV_HEADER, FunctionalityTrace, InvalidTraceError


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
    columns.  :meth:`read` reads blocks of lines in file order and raises
    InvalidTraceError naming ``path:lineno`` at the first bad line.
    """

    def __init__(self, path):
        self.path = path
        self.f0 = 1.0
        self.saw_header = False
        self.times = array("d")
        self.values = array("d")

    def read(self, lines, first: int) -> None:
        """Add the samples in ``lines``, a list of lines the first of which
        is line ``first``, to the columns.

        Once the header has been read, a block is first tried in one pass
        of :func:`float`.  The one pass takes only ASCII lines without
        ``_`` that hold exactly one comma each, and :func:`float` then
        refuses any field that is not a number between spaces it strips (a
        comment, for one), so it accepts a subset of the lines the line
        grammar accepts, with the same values.  A block it declines is read
        line by line, which names the bad line, if there is one; the lines
        after the header's own are read through this method again.
        """
        if self.saw_header:
            text = "".join(lines)
            if (text.isascii() and "_" not in text
                    and text.count(",") == len(lines)
                    and all("," in line for line in lines)):
                try:
                    fields = array("d", map(float, ",".join(lines).split(",")))
                except ValueError:
                    pass
                else:
                    self.times += fields[0::2]
                    self.values += fields[1::2]
                    return
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
                self.read(lines[lineno - first + 1:], lineno + 1)
                return
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


# Sample lines are read in blocks of about this many characters.
_BLOCK_CHARS = 1 << 16


def read_trace_csv(path) -> FunctionalityTrace:
    """Read a trace CSV written by :func:`resdyn.core.write_trace_csv` (or
    compatible).

    Comment lines start with ``#`` and, like blank lines, may appear
    anywhere; a ``# f0=<value>`` comment sets the normal functionality
    (default 1.0), and the last one wins.  The first other line must be
    the header ``time,functionality``; each later one is a sample of two
    comma-separated numbers, ASCII in the syntax of :func:`float` without
    its digit-grouping underscores.  LF, CRLF and CR line endings are
    accepted.  The file is read as UTF-8 text, after a byte-order mark if
    there is one; a compressed file is not decompressed, and a file that
    is not UTF-8 raises InvalidTraceError.

    Every refused line is reported as ``path:lineno``.  A refusal of the
    samples as a whole (out of order, outside [0, f0], fewer than two) and
    of the file's encoding is reported as ``path``.
    """
    reader = _TraceLines(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lineno = 1
            while chunk := fh.readlines(_BLOCK_CHARS):
                reader.read(chunk, lineno)
                lineno += len(chunk)
    except UnicodeDecodeError as exc:
        raise InvalidTraceError(
            f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not reader.saw_header:
        raise InvalidTraceError(f"{path}: missing {TRACE_CSV_HEADER!r} header")
    try:
        return FunctionalityTrace(reader.times, reader.values, reader.f0)
    except InvalidTraceError as exc:
        # The samples as a whole are refused: no one line is at fault.
        raise InvalidTraceError(f"{path}: {exc}") from exc
