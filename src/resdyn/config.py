"""The JSON configs of the command-line front end, read into records.

``resdyn solve`` and ``resdyn simulate`` read a scenario config, and
``resdyn fit`` a fit config when it is given one; no other command loads
this module.  Each reader returns the records and values the command
passes to the library, and refuses a bad field with a ConfigError that
names it.  The README gives the schemas.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import TYPE_CHECKING

from .core import MAX_GRID_POINTS, ResdynError

if TYPE_CHECKING:
    from .estimation import FitConfig
    from .likelihood import MleGrid
    from .stochastic import SdeParams


class ConfigError(ResdynError, ValueError):
    """Configuration problem; the message names the offending field."""


# The JSON types a config field may be read as, by the Python type it is
# returned as.
_JSON_TYPES = {float: "number", int: "integer", dict: "object"}


def _is_json(raw, kind: type) -> bool:
    """Whether ``raw`` is a JSON value of ``kind``, a key of ``_JSON_TYPES``.

    A bool is neither a number nor an integer, though Python counts it an
    int.
    """
    return (isinstance(raw, (int, float) if kind is float else kind)
            and not isinstance(raw, bool))


def _get(obj: dict, key: str, path: str, kind: type | None = None,
         required: bool = True, default=None):
    """The value of ``key``; an absent key and a JSON null are alike.

    Given a ``kind`` from ``_JSON_TYPES``, the value must be of that JSON
    type, and is returned as that Python type.
    """
    raw = obj.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"{path}{key}: missing required field")
        return default
    if kind is None:
        return raw
    if not _is_json(raw, kind):
        name = _JSON_TYPES[kind]
        article = "an" if name[0] in "aeiou" else "a"
        raise ConfigError(f"{path}{key}: expected {article} {name}, "
                          f"got {raw!r}")
    return _as(kind, raw, path + key)


def _as(kind: type, raw, where: str):
    """``raw``, a JSON value of ``kind``, as that Python type; a JSON integer
    is a number only if a float can hold it."""
    try:
        return kind(raw)
    except OverflowError:
        raise ConfigError(f"{where}: number too large for a float") from None


def _list_of(obj: dict, key: str, path: str, kind: type) -> list:
    """The list at ``key``, each of whose items is of JSON type ``kind``."""
    raw = _get(obj, key, path)
    if not (isinstance(raw, list) and all(_is_json(x, kind) for x in raw)):
        raise ConfigError(
            f"{path}{key}: expected a list of {_JSON_TYPES[kind]}s")
    return [_as(kind, x, path + key) for x in raw]


def _at(path: str, build, /, *args, **kwargs):
    """``build(*args, **kwargs)`` for the config section at ``path``.

    A ResdynError from ``build`` becomes ``ConfigError("<path>: <message>")``,
    or keeps its message at the top level (an empty ``path``).
    """
    try:
        return build(*args, **kwargs)
    except ResdynError as exc:
        where = path.rstrip(".")
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _from_json(cls, obj: dict, path: str):
    """Build the record ``cls`` from the JSON object ``obj`` at ``path``.

    A field without a default is a required number; any other field is an
    optional number, and an absent one keeps its default.  Errors from
    ``cls`` carry ``path``, as :func:`_at` words them.
    """
    kwargs = {}
    for name in cls._fields:
        value = _get(obj, name, path, float,
                     required=name not in cls._defaults)
        if value is not None:
            kwargs[name] = value
    return _at(path, cls, **kwargs)


def load_json(path: str) -> dict:
    """The JSON object in the file ``path``; an OSError opening it passes
    through."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (ValueError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep,
        # and a plain ValueError on an integer of more than 4300 digits.
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _build_grid(config: dict) -> array:
    """The ``grid`` block's samples start + step * k, k = 0 to count, as an
    ``array('d')``, built without numpy.

    Each sample has the bits of ``start + step * np.arange(count + 1)``:
    k is exact as a float, and both round the product, then the sum.  The
    samples are generated one at a time, so a grid of MAX_GRID_POINTS
    costs its 8 bytes a point and no list of float objects.
    """
    grid = _get(config, "grid", "", dict)
    start = _get(grid, "start", "grid.", float)
    end = _get(grid, "end", "grid.", float)
    step = _get(grid, "step", "grid.", float)
    if not math.isfinite(start):
        raise ConfigError(f"grid.start: must be finite, got {start}")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"grid.step: must be > 0 and finite, got {step}")
    if not end > start:
        raise ConfigError(f"grid.end: must exceed grid.start, got {end}")
    span = (end - start) / step
    if not span < MAX_GRID_POINTS - 0.5:
        raise ConfigError(
            f"grid.end/grid.step: grid of more than {MAX_GRID_POINTS} points: "
            f"(end - start) / step = {span:.6g}"
        )
    count = int(round(span))
    if not math.isclose(start + count * step, end, rel_tol=0.0,
                        abs_tol=1e-9 * max(1.0, abs(end))):
        raise ConfigError(
            "grid.step: span (end - start) must be a whole number of steps"
        )
    if count < 1:
        raise ConfigError("grid.step: grid needs at least two samples")
    return array("d", (start + step * k for k in range(count + 1)))


def _schedule(cls, params: dict):
    """A piecewise schedule whose segments are ``cls._segment_type``."""
    segments = tuple(
        _from_json(cls._segment_type, seg, f"params.segments[{i}].")
        for i, seg in enumerate(_list_of(params, "segments", "params.", dict))
    )
    breakpoints = _list_of(params, "breakpoints", "params.", float)
    # The segments were checked one by one above, so what the schedule
    # still refuses is its breakpoints or their count.
    return _at("params.breakpoints", cls, breakpoints=breakpoints,
               segments=segments)


# The closed-form scenario kinds: kind -> (the record of ``resdyn.impacts``
# that its ``params`` block holds, the public name of its solver).
_CLOSED_FORM = {
    "constant": ("ConstantImpacts", "solve_constant"),
    "piecewise-constant": ("PiecewiseConstantSchedule",
                           "solve_piecewise_constant"),
    "linear": ("LinearImpacts", "solve_linear"),
    "piecewise-linear": ("PiecewiseLinearSchedule", "solve_piecewise_linear"),
}

MODEL_KINDS = (*_CLOSED_FORM, "sde")


def _scenario_common(config: dict) -> tuple[str, float, float]:
    kind = _get(config, "kind", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"kind: expected one of {', '.join(MODEL_KINDS)}, got {kind!r}"
        )
    f0 = _get(config, "f0", "", float, required=False, default=1.0)
    f_init = _get(config, "f_init", "", float, required=False, default=f0)
    return kind, f0, f_init


def read_closed_form(config: dict) -> tuple[str, tuple]:
    """The name of the solver of the closed-form scenario ``config``, and
    its arguments: the impacts or schedule, f_init, f0 and the grid."""
    from . import impacts

    kind, f0, f_init = _scenario_common(config)
    params = _get(config, "params", "", dict)
    grid = _build_grid(config)
    if kind not in _CLOSED_FORM:
        raise ConfigError(
            "kind: 'sde' scenarios run under the simulate command")
    record, solver = _CLOSED_FORM[kind]
    cls = getattr(impacts, record)
    if issubclass(cls, impacts._PiecewiseSchedule):
        rates = _schedule(cls, params)
    else:
        rates = _from_json(cls, params, "params.")
    return solver, (rates, f_init, f0, grid)


def read_sde(config: dict) -> tuple[SdeParams, float, float, int, float,
                                     int, int]:
    """The run of the 'sde' scenario ``config``: its parameters, f_init,
    f0, steps, dt, seed and number of realizations n."""
    from . import SdeParams
    from .stochastic import _check_run

    kind, f0, f_init = _scenario_common(config)
    if kind in _CLOSED_FORM:
        raise ConfigError(
            f"kind: simulate requires an 'sde' scenario, got {kind!r}"
        )
    params_obj = _get(config, "params", "", dict)
    params = _from_json(SdeParams, params_obj, "params.")
    steps = _get(params_obj, "steps", "params.", int)
    dt = _get(params_obj, "dt", "params.", float, required=False, default=1.0)
    seed = _get(params_obj, "seed", "params.", int, required=False, default=0)
    n = _get(params_obj, "n", "params.", int, required=False, default=1)
    _at("params", _check_run, steps, dt, n)
    return params, f_init, f0, steps, dt, seed, n


def read_fit_config(doc: dict) -> FitConfig:
    """The fit hyperparameters of the fit config ``doc``; an absent field
    keeps its default."""
    from . import FitConfig

    return _from_json(FitConfig, doc, "")


def read_mle_grid(doc: dict) -> MleGrid:
    """The ``mle_grid`` section of the fit config ``doc``."""
    from . import GridAxis, MleGrid

    section = _get(doc, "mle_grid", "", dict)
    return _at("mle_grid", MleGrid, **{
        name: _from_json(GridAxis, _get(section, name, "mle_grid.", dict),
                         f"mle_grid.{name}.")
        for name in MleGrid._fields
    })
