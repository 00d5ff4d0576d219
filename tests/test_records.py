"""The frozen records behave as the frozen dataclasses they replace."""

import dataclasses

import numpy as np
import pytest

import resdyn
from resdyn import (
    ActivityRates,
    ConstantImpacts,
    EnsembleResult,
    FitConfig,
    FitResult,
    FunctionalityTrace,
    GridAxis,
    LinearImpacts,
    MleGrid,
    MleResult,
    PhaseEstimate,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    SdeParams,
    SteadyState,
)
from resdyn.core import _Record
from resdyn.impacts import _PiecewiseSchedule

# The records that compare and hash by identity (``eq=False``).
BY_IDENTITY = {FunctionalityTrace, _PiecewiseSchedule,
               PiecewiseConstantSchedule, PiecewiseLinearSchedule,
               EnsembleResult}

# What _Record gives each class; its twin gets these from ``dataclass``.
MADE_BY_RECORD = {"_fields", "_defaults", "__match_args__", "__eq__",
                  "__hash__", "__dict__", "__weakref__"}


def twin(cls):
    """A frozen dataclass with ``cls``'s name, annotations, defaults and
    methods, and dataclass twins of its bases: what ``dataclasses`` makes
    of the class body the record was made from."""
    bases = tuple(twin(base) for base in cls.__bases__ if base is not _Record)
    body = {k: v for k, v in vars(cls).items() if k not in MADE_BY_RECORD}
    own_init = any("__init__" in vars(c) for c in cls.__mro__[:-2])
    made = type(cls.__name__, bases, body)
    made.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True, eq=cls not in BY_IDENTITY,
                                 init=not own_init)(made)


def cases():
    """Each public record, with arguments for every field and the number
    of them that are required."""
    impacts = ConstantImpacts(0.1, 0.2)
    phase = PhaseEstimate(impacts, 0.3, 0.4, 0.5, 0.6)
    schedule = PiecewiseConstantSchedule([0.0, 1.0], [impacts])
    axes = [GridAxis(0.1, 0.3, 0.1), GridAxis(0.2, 0.4, 0.1),
            GridAxis(0.5, 0.6, 0.1), GridAxis(0.7, 0.9, 0.2)]
    params = SdeParams(0.1, 0.2, 0.3, 0.4)
    return {
        FunctionalityTrace: (([0.0, 1.0], [1.0, 0.5], 2.0), 2),
        ConstantImpacts: ((1, 2), 2),
        PiecewiseConstantSchedule: (([0.0, 1.0, 3.0], [impacts, impacts]), 2),
        LinearImpacts: ((0.3, 0.01, 0.2, 0.02), 4),
        PiecewiseLinearSchedule: (
            ([0.0, 2.0], [LinearImpacts(0.3, 0.01, 0.2, 0.02)]), 2),
        SteadyState: ((0.5, 0.25), 2),
        FitConfig: ((0.5, 0.9, 0.8, 90.0, 120.0), 0),
        ActivityRates: ((0.1, 0.03, 0.04, 0.13), 4),
        PhaseEstimate: ((impacts, 0.3, 0.4, 0.5, 0.6), 5),
        FitResult: ((69.5, phase, phase, schedule, 1e-12, 2e-12), 6),
        GridAxis: ((0.1, 0.3, 0.1), 3),
        MleGrid: (tuple(axes), 4),
        MleResult: ((params, -12.5, 24, 1, (True, False, False, True)), 5),
        SdeParams: ((0.1, 0.2, 0.3, 0.4, 5.0, 3.0, 50.0), 4),
        EnsembleResult: ((FunctionalityTrace([0.0, 1.0], [1.0, 0.5]),
                          np.array([0.0, 0.1]), 3, 7), 4),
    }


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def outcome(make, *args, **kwargs):
    """The repr of what ``make`` returns, or the type and text of what it
    raises."""
    try:
        return repr(make(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def test_every_public_record_is_covered():
    # Importing every layer defines every record.
    for name in resdyn.__all__:
        getattr(resdyn, name)
    public = {c for c in subclasses(_Record)
              if c.__module__.startswith("resdyn.")
              and not c.__name__.startswith("_")}
    assert public == set(cases())
    assert set(cases()) <= {getattr(resdyn, name) for name in resdyn.__all__}


@pytest.mark.parametrize("cls", list(cases()), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(cls):
    args, required = cases()[cls]
    dc = twin(cls)
    names = [field.name for field in dataclasses.fields(dc)]

    # The field list the CLI reads, with defaults, and the match order.
    assert cls._fields == tuple(names)
    assert cls._defaults == {
        f.name: f.default for f in dataclasses.fields(dc)
        if f.default is not dataclasses.MISSING}
    assert cls.__match_args__ == dc.__match_args__

    # Building: every field, the defaults, each misuse, all by keyword.
    calls = [(args, {}), (args[:required], {}), ((), {}),
             (args[:max(required - 1, 0)], {}), (args + (None,), {}),
             (args + (None, None), {}), (args, {"other": 1}),
             (args, {names[0]: args[0]}), ((), dict(zip(names, args))),
             (args[:1], {names[1]: args[1], "other": 1})]
    for a, kw in calls:
        assert outcome(cls, *a, **kw) == outcome(dc, *a, **kw), (a, kw)

    # Equality and hashing, within the class and across the pair.
    rec, same, dc_rec, dc_same = cls(*args), cls(*args), dc(*args), dc(*args)
    assert (rec == same, rec != same) == (dc_rec == dc_same, dc_rec != dc_same)
    assert (rec == same) is (cls not in BY_IDENTITY)
    assert rec == rec and dc_rec == dc_rec
    assert rec != dc_rec and dc_rec != rec
    if cls in BY_IDENTITY:
        assert hash(rec) == object.__hash__(rec)
    else:
        assert hash(rec) == hash(same) == hash(dc_rec)

    # Frozen: every field, and any other name, refused alike.
    for name in [*names, "other"]:
        for act in (lambda r: setattr(r, name, 0.0),
                    lambda r: delattr(r, name)):
            got, want = outcome(act, rec), outcome(act, dc_rec)
            assert got == want
            assert got[0] is dataclasses.FrozenInstanceError
    assert repr(rec) == repr(dc_rec)
