"""YAML run configuration: parsing, validation, and field construction.

A run file is a mapping with a required ``field`` section, the optional
sections of ``SECTIONS`` and a top-level ``seed``.  Validation is eager and
every complaint carries the dotted path of the offending key, so a typo in a
nested matrix points at ``field.q0`` rather than at a stack trace.  The
rules are the library's; config adds locations.  It checks only types, list
shapes, sizes against d and required and unknown keys; ``_checked``
applies the library's rule on each other key, integer keys included.
The field section parses to a dict of its family and plain Python lists,
which ``build_field`` builds; every other section parses to a dict of
the values the library takes, which the CLI passes on by keyword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import errors, ldp, mc, sim
from .core import FAMILIES, RateField, as_simplex, check_count
from .varsolve import SolveOptions, as_current


def _require_map(value, loc):
    if not isinstance(value, dict):
        raise errors.ConfigError(f"expected a mapping, got {type(value).__name__}", loc)
    return value


def _no_extras(section, allowed, loc):
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise errors.ConfigError(f"unknown key {extra[0]!r}", loc)


def _reads_as_float(value):
    """Whether value is text that float() reads as a finite number.  PyYAML
    follows YAML 1.1, whose floats need a dot and a signed exponent, so it
    loads 1e-10 and 1.0e10 as such text."""
    try:
        return isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        return False


def _number(value, loc, d=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ("; YAML reads this as text, so write a dot and a signed exponent,"
                " as in 1.0e-10" if _reads_as_float(value) else "")
        raise errors.ConfigError(f"expected a number, got {value!r}{hint}", loc)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise errors.ConfigError(f"expected a finite number, got {value!r}", loc)
    return value


def _as_given(value, loc, d=None):
    return value


def _checked(parse, rule):
    """A parser(value, loc, d): ``parse(value, loc, d)`` reads the value, and the
    library's ``rule`` checks and returns it, its InvalidInput reported at loc."""
    def parser(value, loc, d=None):
        value = parse(value, loc, d)
        try:
            return rule(value)
        except errors.InvalidInput as exc:
            raise errors.ConfigError(str(exc), loc) from exc
    return parser


# a seed, as the --seed flag or the run file's seed key gives it
check_seed = _checked(_as_given, sim.check_seed)


def _vector(value, loc, d=None):
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


def _d_vector(value, loc, d):
    w = _vector(value, loc)
    if len(w) != d:
        raise errors.ConfigError(f"has {len(w)} entries, field has {d}", loc)
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
    matrices = [_square(m, f"{loc}[{i}]") for i, m in enumerate(value)]
    if len({len(m) for m in matrices}) > 1:
        raise errors.ConfigError("the matrices differ in size", loc)
    return matrices


# the parser of every field parameter a family in FAMILIES names
_FIELD_KEYS = {"q0": _square, "strength": _number, "alpha": _vector, "beta": _vector,
               "generators": _matrices, "vertices": _matrices}


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
    return {"family": family, **{key: _FIELD_KEYS[key](section[key], f"{loc}.{key}")
                                 for key in keys}}


def build_field(section):
    """Construct the RateField of a parsed field section.

    The field's own rules surface as ConfigError at field level.  Rates that
    overflow break those rules, so numpy's overflow warning is not shown.
    """
    try:
        with np.errstate(over="ignore"):
            return getattr(RateField, section["family"])(
                **{key: np.array(section[key]) for key in FAMILIES[section["family"]]})
    except errors.InvalidInput as exc:
        raise errors.ConfigError(str(exc), "field") from exc


def _state(value, loc, d):
    return _checked(_as_given, lambda x0: sim.check_x0(x0, d))(value, loc)


def _solver(key, parse):
    """A parser of SolveOptions field ``key``, checked with the others at their defaults."""
    return _checked(parse, lambda value: getattr(SolveOptions(**{key: value}), key))


def _edge_matrix(value, loc, d):
    m = np.array(_square(value, loc))
    if len(m) != d:
        raise errors.ConfigError(
            f"{loc.rpartition('.')[2]} is {len(m)}x{len(m)}, field has {d}", loc)
    return m


_simplex = _checked(_d_vector, as_simplex)


def _count(name):
    """A parser of the count ``name``, checked by core.check_count."""
    return _checked(_as_given, partial(check_count, name))


REQUIRED = object()

# section -> {key: (parser(value, loc, d), default)}.  A key with default
# REQUIRED must be given; one with default None is left out when absent, so
# the callee's own default applies.  The values are what the library takes:
# simulate is batch_simulate's keywords, solver SolveOptions' fields and
# fixed_point the keywords of ldp's fixed-point searches.
SECTIONS = {
    "simulate": {"x0": (_state, REQUIRED),
                 "horizon": (_checked(_number, sim.check_horizon), REQUIRED),
                 "n_paths": (_count("n_paths"), 1)},
    "target": {"gamma": (_simplex, None),
               "flux": (_checked(_edge_matrix, ldp.as_flux), None),
               "current": (_checked(_edge_matrix, as_current), None)},
    "solver": {"grid_horizon": (_solver("grid_horizon", _number), None),
               "grid_cells": (_solver("grid_cells", _as_given), None),
               "n_starts": (_solver("n_starts", _as_given), None)},
    # decay_curve sorts the times it is given
    "mc": {"x0": (_state, REQUIRED),
           "times": (_checked(_vector, lambda t: sim.check_times(sorted(t))), REQUIRED),
           "n_paths": (_count("n_paths"), REQUIRED), "center": (_simplex, REQUIRED),
           "radius": (_checked(_number, mc.check_radius), REQUIRED),
           "rate": (_number, None)},
    "fixed_point": {"tol": (_checked(_number, ldp.check_tol), None),
                    "max_iter": (_count("max_iter"), None),
                    "n_starts": (_count("n_starts"), None)},
}


def _parse_section(name, section, d):
    section = _require_map(section, name)
    keys = SECTIONS[name]
    _no_extras(section, keys, name)
    parsed = {}
    for key, (parse, default) in keys.items():
        if key in section:
            parsed[key] = parse(section[key], f"{name}.{key}", d)
        elif default is REQUIRED:
            raise errors.ConfigError(f"missing {key!r}", name)
        elif default is not None:
            parsed[key] = default
    return parsed


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    field: dict  # the parsed field section, which build_field builds
    seed: int
    sections: dict  # SECTIONS name -> {key: parsed value}

    def need(self, name):
        """A section, or a 'section.key' value, that a command cannot run without."""
        section, _, key = name.partition(".")
        value = self.sections.get(section)
        if value is None:
            raise errors.ConfigError(f"this command needs the {section!r} section", "config")
        if key and key not in value:
            raise errors.ConfigError(f"missing {key!r}", section)
        return value[key] if key else value

    def solve_options(self):
        return SolveOptions(**self.sections["solver"])


def parse_config(raw):
    """Validate a loaded mapping into a RunConfig.

    A section without a REQUIRED key is parsed from its defaults when the
    run file leaves it out.
    """
    raw = _require_map(raw, "config")
    _no_extras(raw, ("field", "seed", *SECTIONS), "config")
    if "field" not in raw:
        raise errors.ConfigError("missing 'field' section", "config")
    field = _parse_field(raw["field"])
    d = len(field[FAMILIES[field["family"]][0]][0])  # q0's first row, or first matrix
    seed = check_seed(raw.get("seed", 0), "config.seed")
    sections = {name: _parse_section(name, raw.get(name, {}), d)
                for name, keys in SECTIONS.items()
                if name in raw or REQUIRED not in [default for _, default in keys.values()]}
    return RunConfig(raw, field, seed, sections)


def load_config(path):
    """Read and validate a YAML run file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise errors.ConfigError(str(exc), str(path)) from exc
    except yaml.YAMLError as exc:  # in one line; PyYAML counts marks from 0
        mark = getattr(exc, "problem_mark", None)
        why = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
               if mark and exc.problem else " ".join(str(exc).split()))
        raise errors.ConfigError(f"not valid YAML: {why}", str(path)) from exc
    return parse_config(raw)
