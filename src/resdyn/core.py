"""Domain types and resilience metrics.

The objects here model the functionality F(t) of a system under attack:
malware removes functionality in proportion to what is left, while the
defending ensemble ("bonware") restores it in proportion to the gap below
the normal level f0,

    dF/dt = (f0 - F(t)) * b(t) - F(t) * m(t),

with both impact rates nonnegative, so that 0 <= F(t) <= f0 always holds.
All times are in seconds and every value type is immutable after
construction.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import stat
from array import array
from bisect import bisect_right
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import TYPE_CHECKING, ClassVar

from .errors import DomainError, InvalidTraceError

if TYPE_CHECKING:
    import numpy as np

# Excursion outside [0, f0], relative to f0, tolerated before clamping.
BOUND_SLACK = 1e-12

# Most points a grid built from configured start, stop and step may have;
# the count is checked before anything is allocated.
MAX_GRID_POINTS = 10**7


def _readonly(x) -> np.ndarray:
    """``x`` as a read-only float array: a view of an ``array('d')``, else
    a copy."""
    import numpy as np

    arr = np.frombuffer(x) if isinstance(x, array) else np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


def _floats(x, kind: type = array) -> tuple[array | None, tuple[int, ...]]:
    """The samples of ``x`` as a new ``kind("d")``, ``array`` or a subclass,
    and the shape numpy gives ``x``; the samples are None unless ``x`` is
    one-dimensional.

    An ``array('d')``, or a list or tuple of floats and ints, is read
    without numpy; anything else is converted as ``np.asarray(x, float)``
    converts it, and its bytes are copied once, from a C-contiguous buffer.
    """
    if (isinstance(x, array) and x.typecode == "d") or (
            type(x) in (list, tuple) and set(map(type, x)) <= {float, int}):
        samples = kind("d", x)
        return samples, (len(samples),)
    import numpy as np

    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        return None, arr.shape
    samples = kind("d")
    # ``frombytes`` takes a buffer of bytes, not of float64 items.
    samples.frombytes(np.ascontiguousarray(arr).view(np.uint8))
    return samples, arr.shape


def _check_fields(obj, names, ok, requirement: str) -> None:
    """Store each named field of a frozen record as a float.

    A value failing ``ok`` raises DomainError
    ``"<name> must <requirement>, got <value>"``; fields are checked in
    the order given.
    """
    for name in names:
        v = float(getattr(obj, name))
        object.__setattr__(obj, name, v)
        if not ok(v):
            raise DomainError(f"{name} must {requirement}, got {v}")


def _check_sum(obj, total: str, fields: str) -> None:
    """Refuse a record whose property ``total``, the sum ``fields`` of its
    finite fields, overflows: ``"<total> = <fields> must be finite, got
    <value>"``."""
    v = getattr(obj, total)
    if not math.isfinite(v):
        raise DomainError(f"{total} = {fields} must be finite, got {v}")


def _check_f0(f0: float, error: type = DomainError) -> None:
    """Refuse a normal level that is not positive and finite."""
    if not math.isfinite(f0) or f0 <= 0.0:
        raise error(f"f0 must be positive and finite, got {f0}")


def _check_level(name: str, f0: float, *levels: float,
                 error: type = DomainError) -> None:
    """Refuse ``f0`` as :func:`_check_f0` does, then any of ``levels``
    outside [0, f0]: ``"<name> must lie in [0, f0], got <level>"``."""
    _check_f0(f0, error)
    for v in levels:
        if not 0.0 <= v <= f0:
            raise error(f"{name} must lie in [0, f0], got {v}")


def _steady_level(f0: float, bonware: float, total: float) -> float:
    """The level f0*b/(m+b) that constant rates approach, ``total`` = m + b.

    The fraction is divided out first: with nonnegative rates b/(m+b)
    rounds to at most 1, so the level never exceeds f0.  Multiplying by
    f0 first can round one ulp above f0 when f0 != 1.
    """
    return f0 * (bonware / total)


def _extremes(samples) -> tuple[float, float]:
    """The least and greatest of ``samples``, both NaN when one is NaN, as
    numpy's ``min`` and ``max`` give them (``min`` alone would skip a NaN
    that does not come first).  A NaN makes the sum NaN, so only a NaN sum
    needs the slower search."""
    if math.isnan(sum(samples)) and any(map(math.isnan, samples)):
        return math.nan, math.nan
    return min(samples), max(samples)


class _SampleAxis(array):
    """An ``array('d')`` that is a sample axis (see :func:`_sample_axis`).

    Only :func:`_sample_axis`, which returns one only once it passes the
    checks, and ``stochastic._clock``, whose grid is one by construction,
    make one, and nothing changes one after it is returned; so
    :func:`_sample_axis` takes one as it is, and a record built on it
    shares it.  A slice, a concatenation or a copy is a plain
    ``array('d')``, and so is checked again.
    """

    __slots__ = ()


def _sample_axis(x, name: str, error: type = DomainError) -> _SampleAxis:
    """``x`` if it is a :class:`_SampleAxis`; else ``x`` as a new one,
    refused unless it is a sample axis: one-dimensional, at least two
    points, finite and strictly increasing, with a span ``x[-1] - x[0]``
    that is a finite float."""
    if type(x) is _SampleAxis:
        return x
    # Built as a _SampleAxis, which is returned only once it passes.
    axis, _ = _floats(x, _SampleAxis)
    if axis is None or len(axis) < 2:
        raise error(f"{name} must be one-dimensional with at least two points")
    # A NaN fails every comparison, so a strictly increasing axis with
    # finite ends is finite throughout.
    if not (math.isfinite(axis[0]) and math.isfinite(axis[-1])
            and all(map(operator.lt, axis[:-1], axis[1:]))):
        raise error(f"{name} must be finite and strictly increasing")
    # Finite points may lie further apart than the largest float.
    if not math.isfinite(axis[-1] - axis[0]):
        raise error(f"{name} must be of finite span (last - first)")
    return axis


class _Record:
    """Base of the frozen value types: what ``@dataclass(frozen=True)``
    gives a class, without importing ``dataclasses`` (which imports
    ``inspect``) or compiling methods with ``exec``.

    A subclass's fields are its bases' fields, then its own annotated
    class attributes other than ``ClassVar``s; a class attribute of the
    same name is the field's default.  ``_fields`` holds the names in
    order, and ``_defaults`` the default of each optional field.
    ``__init__`` takes the fields by position or keyword, refuses a call
    with the ``TypeError`` a ``def`` with those parameters raises, stores
    them and runs ``__post_init__`` last; a subclass may define its own
    ``__init__`` instead.  ``repr`` is the dataclass one.  Records compare
    and hash as the tuple of their fields, within one class, unless the
    class is declared with ``eq=False``, which keeps identity.  Setting or
    deleting an attribute raises ``dataclasses.FrozenInstanceError``.
    """

    _fields: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict[str, object]] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        own = [name for name, kind in body.get("__annotations__", {}).items()
               if not str(kind).startswith(("ClassVar", "typing.ClassVar"))]
        cls._fields += tuple(name for name in own if name not in cls._fields)
        cls._defaults = {**cls._defaults,
                         **{name: body[name] for name in own if name in body}}
        cls.__match_args__ = cls._fields
        kind = _Record if eq else object
        cls.__eq__, cls.__hash__ = kind.__eq__, kind.__hash__

    def __init__(self, *args, **kwargs):
        names, defaults = self._fields, self._defaults
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise self._misuse(
                    f"got an unexpected keyword argument {name!r}")
            if name in given:
                raise self._misuse(
                    f"got multiple values for argument {name!r}")
            given[name] = value
        if len(args) > len(names):
            most = len(names) + 1
            least = most - len(defaults)
            takes = f"from {least} to {most}" if least < most else most
            raise self._misuse(f"takes {takes} positional arguments "
                               f"but {len(args) + 1} were given")
        missing = [repr(name) for name in names
                   if name not in given and name not in defaults]
        if missing:
            *head, last = missing
            listed = (f"{', '.join(head)}{',' * (len(head) > 1)} and {last}"
                      if head else last)
            raise self._misuse(
                f"missing {len(missing)} required positional "
                f"argument{'s' * (len(missing) > 1)}: {listed}")
        values = {**defaults, **given}
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def _misuse(self, problem: str) -> TypeError:
        return TypeError(f"{type(self).__qualname__}.__init__() {problem}")

    def __post_init__(self) -> None:
        """Check the stored fields; a subclass with checks overrides it."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FunctionalityTrace(_Record, eq=False):
    """A time-ordered sampling of functionality, with its normal level.

    ``times`` must be strictly increasing with at least two samples and
    ``values`` must stay within ``[0, f0]``.  The samples are copied into
    ``array('d')`` buffers, except ``times`` given as a
    :class:`_SampleAxis`, which is shared; ``times`` and ``values`` are
    read-only numpy views of them, each made on first access, so code that
    never reads them does not load numpy.  Instances are immutable and safe
    to share across threads.  They compare and hash by identity, as an
    array has no one truth value.
    """

    _times: _SampleAxis
    _values: array
    f0: float

    def __init__(self, times, values, f0: float = 1.0):
        times = _sample_axis(times, "times", InvalidTraceError)
        values, shape = _floats(values)
        f0 = float(f0)
        if shape != (len(times),):
            raise InvalidTraceError(
                f"times and values differ in shape: {(len(times),)} vs {shape}"
            )
        _check_level("values", f0, *_extremes(values), error=InvalidTraceError)
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "f0", f0)

    @cached_property
    def times(self) -> np.ndarray:
        return _readonly(self._times)

    @cached_property
    def values(self) -> np.ndarray:
        return _readonly(self._values)

    @property
    def start_time(self) -> float:
        return self._times[0]

    @property
    def end_time(self) -> float:
        return self._times[-1]

    @property
    def duration(self) -> float:
        return self._times[-1] - self._times[0]


class ConstantImpacts(_Record):
    """Constant per-second impact rates of malware and bonware."""

    malware_impact: float
    bonware_impact: float

    def __post_init__(self):
        _check_fields(self, ("malware_impact", "bonware_impact"),
                      lambda v: math.isfinite(v) and v >= 0.0,
                      "be finite and >= 0")
        _check_sum(self, "total_impact", "malware_impact + bonware_impact")

    @property
    def total_impact(self) -> float:
        """Combined rate m + b, which sets the approach speed to steady state."""
        return self.malware_impact + self.bonware_impact


class _PiecewiseSchedule(_Record, eq=False):
    """Impacts on consecutive windows [t_j, t_{j+1}), one segment each.

    Subclasses set ``_segment_type``, the impacts type every segment must
    be an instance of.  They inherit the record's frozen attributes, so
    none of their attributes can be rebound.  ``breakpoints`` is a read-only
    view, as a trace's arrays are.  Schedules compare and hash by
    identity, as traces do.
    """

    _breakpoints: _SampleAxis
    segments: tuple

    _segment_type: ClassVar[type]

    def __init__(self, breakpoints, segments):
        segments = tuple(segments)
        kind = self._segment_type
        for seg in segments:
            if not isinstance(seg, kind):
                raise DomainError(f"segments must be {kind.__name__} instances")
        pts = _sample_axis(breakpoints, "breakpoints")
        if len(pts) != len(segments) + 1:
            raise DomainError(
                f"expected {len(pts) - 1} segments for {len(pts)} breakpoints, "
                f"got {len(segments)}"
            )
        object.__setattr__(self, "_breakpoints", pts)
        object.__setattr__(self, "segments", segments)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return _readonly(self._breakpoints)

    @property
    def start_time(self) -> float:
        return self._breakpoints[0]

    @property
    def end_time(self) -> float:
        return self._breakpoints[-1]

    def segment_index(self, t: float) -> int:
        """Index of the window owning time t; the final right endpoint
        belongs to the last window."""
        idx = bisect_right(self._breakpoints, t) - 1
        return min(max(idx, 0), len(self.segments) - 1)


class PiecewiseConstantSchedule(_PiecewiseSchedule, eq=False):
    """Constant impacts on consecutive windows [t_j, t_{j+1})."""

    _segment_type = ConstantImpacts


class LinearImpacts(_Record):
    """Impact rates that change linearly over a window.

    Rates are functions of window-local time tau (seconds since the
    window start): ``bonware(tau) = bonware_intercept - bonware_slope*tau``
    and likewise for malware, so a positive slope models an impact that
    fades.  Both rates must remain nonnegative over the window they are
    solved on.
    """

    bonware_intercept: float
    bonware_slope: float
    malware_intercept: float
    malware_slope: float

    def __post_init__(self):
        _check_fields(self, ("bonware_intercept", "bonware_slope",
                             "malware_intercept", "malware_slope"),
                      math.isfinite, "be finite")
        _check_fields(self, ("bonware_intercept", "malware_intercept"),
                      lambda v: v >= 0.0, "be >= 0")
        _check_sum(self, "total_intercept",
                   "bonware_intercept + malware_intercept")
        _check_sum(self, "total_slope", "bonware_slope + malware_slope")

    @property
    def total_intercept(self) -> float:
        """Combined starting rate (malware + bonware)."""
        return self.bonware_intercept + self.malware_intercept

    @property
    def total_slope(self) -> float:
        """Combined fade rate; positive when the overall impact decays."""
        return self.bonware_slope + self.malware_slope

    def bonware_at(self, tau: float) -> float:
        return self.bonware_intercept - self.bonware_slope * tau

    def malware_at(self, tau: float) -> float:
        return self.malware_intercept - self.malware_slope * tau

    def validate_window(self, duration: float) -> None:
        """Require both rates nonnegative on [0, duration].

        The rates are linear, so endpoint nonnegativity implies the whole
        interval.
        """
        for agent, rate in (("bonware", self.bonware_at(duration)),
                            ("malware", self.malware_at(duration))):
            if rate < 0.0:
                raise DomainError(
                    f"{agent} impact goes negative within {duration} s "
                    f"(reaches {rate:.6g})"
                )


class PiecewiseLinearSchedule(_PiecewiseSchedule, eq=False):
    """Linearly varying impacts on consecutive windows, local time per window."""

    _segment_type = LinearImpacts


def _pairwise_sum(terms, lo: int, n: int) -> float:
    """The sum of ``terms[lo:lo + n]`` as numpy's pairwise summation adds
    float64s: a plain loop below 8 terms; up to 128, eight strided running
    sums combined as a tree, then the rest in order; above 128, the sums of
    two halves split at a multiple of 8."""
    if n < 8:
        return reduce(operator.add, terms[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(operator.add, terms[i:end:8]) for i in range(lo, lo + 8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(operator.add, terms[end:lo + n], res)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(terms, lo, half)
            + _pairwise_sum(terms, lo + half, n - half))


def accomplishment(trace: FunctionalityTrace) -> float:
    """Cumulative accomplishment: the integral of functionality over time.

    Uses trapezoidal quadrature on the trace's own grid, so the metric is
    first-order correct on irregular grids.  An integral that overflows
    a float raises DomainError.

    The terms (t[i+1] - t[i]) * (v[i+1] + v[i]) / 2 and their pairwise sum,
    added to 0.0 as numpy's reduction adds it, are those of
    ``np.trapezoid(values, times)``, so the result has its bits.
    """
    t, v = trace._times, trace._values
    terms = array("d", map(operator.truediv,
                           map(operator.mul, map(operator.sub, t[1:], t),
                               map(operator.add, v[1:], v)),
                           repeat(2.0)))
    total = 0.0 + _pairwise_sum(terms, 0, len(terms))
    if not math.isfinite(total):
        raise DomainError(f"accomplishment must be finite, got {total}")
    return total


def auc_resilience(trace: FunctionalityTrace) -> float:
    """Average functionality over the mission divided by the normal level.

    Dimensionless, in [0, 1]; 1.0 means no functionality was lost.  Values
    at most f0 bound the exact ratio by 1, so a quadrature roundoff above
    it reads 1.0.  A product ``f0 * duration`` that underflows to 0 or
    overflows raises DomainError.
    """
    scale = trace.f0 * trace.duration
    if not (0.0 < scale < math.inf):
        raise DomainError(
            f"f0 * duration must be positive and finite, got {scale}")
    return min(1.0, accomplishment(trace) / scale)


def _clamp_to_bounds(values: np.ndarray, f0: float) -> np.ndarray:
    """Clip excursions of at most ``BOUND_SLACK * f0`` outside [0, f0];
    anything larger, or a NaN, which both ends report, raises DomainError."""
    import numpy as np

    lo = float(values.min())
    hi = float(values.max())
    slack = BOUND_SLACK * f0
    if not (-slack <= lo and hi <= f0 + slack):
        raise DomainError(
            f"solution left [0, f0] by more than {BOUND_SLACK}: range [{lo}, {hi}]"
        )
    return np.clip(values, 0.0, f0)


def _write_text(path, chunks) -> None:
    """Write the strings in ``chunks`` to ``path`` as UTF-8 with LF endings.

    When ``path`` is absent or a regular file, the chunks go to a new file
    beside it, which then replaces ``path`` in one step: a failed write
    leaves an existing file untouched and no partial output behind.  The
    new file is created with ``open(..., "x")`` and so gets the usual
    umask-derived mode.  Anything else that already exists at ``path`` --
    a symlink, a device such as ``/dev/stdout``, a pipe -- is written in
    place, through the link, so it is never replaced by a regular file.
    """
    path = os.fspath(path)
    try:
        atomic = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        atomic = True
    if atomic:
        tmp, mode = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp", "x"
    else:
        tmp, mode = path, "w"
    fh = open(tmp, mode, encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        if atomic:
            os.replace(tmp, path)
    except BaseException:
        if atomic:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


TRACE_CSV_HEADER = "time,functionality"


def write_trace_csv(trace: FunctionalityTrace, path) -> None:
    """Write a trace as CSV: ``# f0=`` metadata, header, one sample per line.

    Numbers carry 17 significant digits so a read-back reproduces the
    exact float values.  UTF-8, LF line endings.
    """
    rows = (f"{t:.17g},{v:.17g}\n" for t, v in zip(trace._times, trace._values))
    _write_text(path, chain((f"# f0={trace.f0:.17g}\n{TRACE_CSV_HEADER}\n",),
                            rows))


def read_trace_csv(path) -> FunctionalityTrace:
    """Read a trace CSV written by :func:`write_trace_csv` (or compatible).

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
    # The parser is its own module, so a command that reads no trace does
    # not compile it.
    from ._trace_read import read_trace

    return read_trace(path)
