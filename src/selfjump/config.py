"""YAML run configuration: parsing, validation, and field construction.

A run file is a mapping with a required ``field`` section and optional
``simulate``, ``target``, ``solver``, ``mc``, ``fixed_point`` sections plus a
top-level ``seed``.  Validation is eager and every complaint carries the
dotted path of the offending key, so a typo in a nested matrix points at
``field.q0`` rather than at a stack trace.  Parsed values stay plain Python
lists; arrays are built only when the field object is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from . import errors
from .core import FAMILIES, RateField, as_simplex
from .varsolve import SolveOptions

SAMPLERS = ("thinning", "exact-affine")


def _require_map(value, loc):
    if not isinstance(value, dict):
        raise errors.ConfigError(f"expected a mapping, got {type(value).__name__}", loc)
    return value


def _no_extras(section, allowed, loc):
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise errors.ConfigError(f"unknown key {extra[0]!r}", loc)


def _number(value, loc):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise errors.ConfigError(f"expected a number, got {value!r}", loc)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise errors.ConfigError(f"expected a finite number, got {value!r}", loc)
    return value


def _integer(value, loc, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise errors.ConfigError(f"expected an integer, got {value!r}", loc)
    if minimum is not None and value < minimum:
        raise errors.ConfigError(f"must be >= {minimum}, got {value}", loc)
    return value


def check_seed(value, loc):
    """A seed: an integer in [0, 2**64), the range path streams are keyed by."""
    value = _integer(value, loc, minimum=0)
    if value >= 1 << 64:
        raise errors.ConfigError(f"must be < 2**64, got {value}", loc)
    return value


def _vector(value, loc):
    if not isinstance(value, list) or not value:
        raise errors.ConfigError("expected a nonempty list of numbers", loc)
    return [_number(v, f"{loc}[{i}]") for i, v in enumerate(value)]


def _matrix(value, loc):
    if not isinstance(value, list) or not value:
        raise errors.ConfigError("expected a nonempty list of rows", loc)
    rows = [_vector(row, f"{loc}[{i}]") for i, row in enumerate(value)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise errors.ConfigError(
                f"row {i} has {len(row)} entries, expected {width}", loc)
    return rows


def _simplex(value, loc, d):
    """A probability vector with d entries (nonnegative, summing to 1)."""
    w = _vector(value, loc)
    if len(w) != d:
        raise errors.ConfigError(f"has {len(w)} entries, field has {d}", loc)
    try:
        as_simplex(w)
    except ValueError as exc:
        raise errors.ConfigError(str(exc), loc) from exc
    return w


def _square(value, loc):
    rows = _matrix(value, loc)
    if len(rows) != len(rows[0]):
        raise errors.ConfigError(
            f"expected a square matrix, got {len(rows)}x{len(rows[0])}", loc)
    return rows


def _matrices(value, loc):
    if not isinstance(value, list) or not value:
        raise errors.ConfigError("expected a list of matrices", loc)
    return [_square(m, f"{loc}[{i}]") for i, m in enumerate(value)]


# the parser of every field parameter a family in FAMILIES names
_FIELD_KEYS = {"q0": _square, "strength": _number, "alpha": _vector, "beta": _vector,
               "generators": _matrices, "vertices": _matrices}


@dataclass(frozen=True)
class FieldConfig:
    family: str
    params: dict  # the family's FAMILIES keys -> parsed values

    @property
    def d(self):
        # the first parameter is q0 or a list of square matrices, so its
        # first entry (a row or a matrix) has d entries
        return len(self.params[FAMILIES[self.family][0]][0])


def _parse_field(section, loc="field"):
    section = _require_map(section, loc)
    family = section.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise errors.ConfigError(
            f"family must be one of {', '.join(FAMILIES)}, got {family!r}",
            f"{loc}.family")
    keys = FAMILIES[family]
    _no_extras(section, ("family",) + keys, loc)
    for key in keys:
        if key not in section:
            raise errors.ConfigError(f"family {family!r} needs {key!r}", loc)
    return FieldConfig(family, {key: _FIELD_KEYS[key](section[key], f"{loc}.{key}")
                                for key in keys})


def build_field(fc):
    """Construct the RateField described by a FieldConfig.

    Invalid generators (negative off-diagonal rates, bad sizes, congestion
    factors that can turn negative) surface as ConfigError at field level.
    """
    try:
        return getattr(RateField, fc.family)(
            **{key: np.array(value) for key, value in fc.params.items()})
    except (errors.SelfJumpError, ValueError) as exc:
        raise errors.ConfigError(str(exc), "field") from exc


@dataclass(frozen=True)
class SimulateConfig:
    x0: int
    horizon: float
    n_paths: int = 1
    sampler: str = "thinning"


def _parse_simulate(section, d, loc="simulate"):
    section = _require_map(section, loc)
    _no_extras(section, ("x0", "horizon", "n_paths", "sampler"), loc)
    for key in ("x0", "horizon"):
        if key not in section:
            raise errors.ConfigError(f"missing {key!r}", loc)
    x0 = _integer(section["x0"], f"{loc}.x0", minimum=1)
    if x0 > d:
        raise errors.ConfigError(f"x0 must be a state label in 1..{d}, got {x0}",
                                 f"{loc}.x0")
    horizon = _number(section["horizon"], f"{loc}.horizon")
    if horizon <= 0:
        raise errors.ConfigError("horizon must be positive", f"{loc}.horizon")
    n_paths = _integer(section.get("n_paths", 1), f"{loc}.n_paths", minimum=1)
    sampler = section.get("sampler", "thinning")
    if sampler not in SAMPLERS:
        raise errors.ConfigError(
            f"sampler must be one of {', '.join(SAMPLERS)}, got {sampler!r}",
            f"{loc}.sampler")
    return SimulateConfig(x0=x0, horizon=horizon, n_paths=n_paths, sampler=sampler)


@dataclass(frozen=True)
class TargetConfig:
    gamma: list | None = None
    flux: list | None = None
    current: list | None = None


def _parse_target(section, d, loc="target"):
    section = _require_map(section, loc)
    _no_extras(section, ("gamma", "flux", "current"), loc)
    kw = {}
    if "gamma" in section:
        kw["gamma"] = _simplex(section["gamma"], f"{loc}.gamma", d)
    for key in ("flux", "current"):
        if key in section:
            m = _square(section[key], f"{loc}.{key}")
            if len(m) != d:
                raise errors.ConfigError(f"{key} is {len(m)}x{len(m)}, field has {d}",
                                         f"{loc}.{key}")
            kw[key] = m
    off = ~np.eye(d, dtype=bool)
    if "flux" in kw and np.any(np.array(kw["flux"])[off] < 0):
        raise errors.ConfigError("flux entries must be nonnegative", f"{loc}.flux")
    if "current" in kw:
        cur = np.array(kw["current"])
        if np.max(np.abs(cur + cur.T)) > 1e-12:
            raise errors.ConfigError("current must be antisymmetric", f"{loc}.current")
    return TargetConfig(**kw)


def _parse_solver(section, loc="solver"):
    section = _require_map(section, loc)
    _no_extras(section, ("grid_horizon", "grid_cells", "n_starts"), loc)
    kw = {}
    if "grid_horizon" in section:
        kw["grid_horizon"] = _number(section["grid_horizon"], f"{loc}.grid_horizon")
        if kw["grid_horizon"] < 1.0:
            raise errors.ConfigError(f"must be >= 1, got {kw['grid_horizon']}",
                                     f"{loc}.grid_horizon")
    if "grid_cells" in section:
        kw["grid_cells"] = _integer(section["grid_cells"], f"{loc}.grid_cells", minimum=2)
    if "n_starts" in section:
        kw["n_starts"] = _integer(section["n_starts"], f"{loc}.n_starts", minimum=1)
    return kw


@dataclass(frozen=True)
class McConfig:
    x0: int
    times: list
    n_paths: int
    center: list
    radius: float
    rate: float | None = None


def _parse_mc(section, d, loc="mc"):
    section = _require_map(section, loc)
    _no_extras(section, ("x0", "times", "n_paths", "center", "radius", "rate"), loc)
    for key in ("x0", "times", "n_paths", "center", "radius"):
        if key not in section:
            raise errors.ConfigError(f"missing {key!r}", loc)
    x0 = _integer(section["x0"], f"{loc}.x0", minimum=1)
    if x0 > d:
        raise errors.ConfigError(f"x0 must be a state label in 1..{d}, got {x0}",
                                 f"{loc}.x0")
    times = _vector(section["times"], f"{loc}.times")
    if min(times) <= 0:
        raise errors.ConfigError("times must be positive", f"{loc}.times")
    center = _simplex(section["center"], f"{loc}.center", d)
    radius = _number(section["radius"], f"{loc}.radius")
    if not 0.0 < radius <= 2.0:
        raise errors.ConfigError(f"radius must lie in (0, 2], got {radius}",
                                 f"{loc}.radius")
    rate = None
    if "rate" in section:
        rate = _number(section["rate"], f"{loc}.rate")
    return McConfig(x0=x0, times=times, n_paths=_integer(section["n_paths"],
                    f"{loc}.n_paths", minimum=1), center=center, radius=radius,
                    rate=rate)


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-10
    max_iter: int = 500
    n_starts: int = 1


def _parse_fixed_point(section, loc="fixed_point"):
    section = _require_map(section, loc)
    _no_extras(section, ("tol", "max_iter", "n_starts"), loc)
    kw = {}
    if "tol" in section:
        kw["tol"] = _number(section["tol"], f"{loc}.tol")
        if kw["tol"] <= 0:
            raise errors.ConfigError("tol must be positive", f"{loc}.tol")
    if "max_iter" in section:
        kw["max_iter"] = _integer(section["max_iter"], f"{loc}.max_iter", minimum=1)
    if "n_starts" in section:
        kw["n_starts"] = _integer(section["n_starts"], f"{loc}.n_starts", minimum=1)
    return FixedPointConfig(**kw)


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    field: FieldConfig
    seed: int = 0
    simulate: SimulateConfig | None = None
    target: TargetConfig | None = None
    solver: dict | None = None
    mc: McConfig | None = None
    fixed_point: FixedPointConfig | None = None

    def solve_options(self):
        return SolveOptions(**(self.solver or {}))


_SECTIONS = ("field", "seed", "simulate", "target", "solver", "mc", "fixed_point")


def parse_config(raw):
    """Validate a loaded mapping into a RunConfig."""
    raw = _require_map(raw, "config")
    _no_extras(raw, _SECTIONS, "config")
    if "field" not in raw:
        raise errors.ConfigError("missing 'field' section", "config")
    fc = _parse_field(raw["field"])
    d = fc.d
    seed = check_seed(raw.get("seed", 0), "config.seed")
    kw = {}
    if "simulate" in raw:
        kw["simulate"] = _parse_simulate(raw["simulate"], d)
    if "target" in raw:
        kw["target"] = _parse_target(raw["target"], d)
    if "solver" in raw:
        kw["solver"] = _parse_solver(raw["solver"])
    if "mc" in raw:
        kw["mc"] = _parse_mc(raw["mc"], d)
    if "fixed_point" in raw:
        kw["fixed_point"] = _parse_fixed_point(raw["fixed_point"])
    return RunConfig(raw=raw, field=fc, seed=seed, **kw)


def load_config(path):
    """Read and validate a YAML run file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise errors.ConfigError(str(exc), str(path)) from exc
    except yaml.YAMLError as exc:
        raise errors.ConfigError(f"not valid YAML: {exc}", str(path)) from exc
    return parse_config(raw)
