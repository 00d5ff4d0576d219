"""The functionality trace, and the record type, checks and exception
types every layer uses.

The package models the functionality F(t) of a system under attack:
malware removes functionality in proportion to what is left, while the
defending ensemble ("bonware") restores it in proportion to the gap below
the normal level f0,

    dF/dt = (f0 - F(t)) * b(t) - F(t) * m(t),

with both impact rates nonnegative, so that 0 <= F(t) <= f0 always holds.
The rates are in :mod:`resdyn.impacts` and the resilience metrics in
:mod:`resdyn.metrics`.  All times are in seconds and every value type is
immutable after construction.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import stat
from array import array
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    import numpy as np


class ResdynError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTraceError(ResdynError, ValueError):
    """A functionality trace violates its structural invariants."""


class DomainError(ResdynError, ValueError):
    """An input lies outside the domain a model or operation supports."""


class UndefinedSteadyStateError(DomainError):
    """Both impact rates are zero, so no unique long-run level exists."""


class NoSwitchError(ResdynError, ValueError):
    """A trace has no interior minimum, so no switching time can be located."""


class FitFailureError(ResdynError, RuntimeError):
    """A fit system could not be solved to tolerance or gave infeasible rates."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


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

