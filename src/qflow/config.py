"""Flat ``key = value`` run configuration with a fixed key schema.

Lines are UTF-8, ``#`` starts a comment, keys are namespaced
(``solver.dt``, ``grid.n_labels``, ...).  Unknown keys are rejected with
the full offending list so typos never silently fall back to defaults.
Each key's bound sits in its ``SCHEMA`` entry; building a ``Settings``
checks every bound and the few cross-key rules once.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .lagrangian import SolverConfig
from .model import (FreePotential, HarmonicPotential, InitialState,
                    PhysicsParams, TabulatedPotential, make_gaussian_state)
from .qtm import FIT_WINDOW, QtmConfig


class ConfigError(ValidationError):
    """Malformed configuration file or values."""


# the most points one grid may hold
MAX_GRID_POINTS = 10**6


def _as_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s}")
    return v


def _as_int(s):
    v = _as_float(s)
    if v != int(v):
        raise ValueError(f"expected an integer, got {s}")
    return int(v)


def _as_str(s):
    return s


def _auto_or_float(s):
    return None if s.strip().lower() == "auto" else _as_float(s)


def _auto_or_int(s):
    return None if s.strip().lower() == "auto" else _as_int(s)


def _choice(*options):
    def parse(s):
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s
    return parse


# Bounds: each is None or a (test, requirement) pair; ``auto`` (None)
# always passes.  A value failing its test exits 2 naming key and value.
POSITIVE = (lambda v: v > 0, "must be positive")
# the Gaussian forms divide by the square, and 1e-300 squares to 0
POSITIVE_SQUARE = (lambda v: v > 0 and 0.0 < v * v < math.inf,
                   "must be positive, with a square neither 0 nor infinite")


def _at_least(lo):
    return (lambda v: v >= lo, f"must be >= {lo}")


def _grid_points(lo):
    # a larger grid fails to allocate or runs for hours
    return (lambda n: lo <= n <= MAX_GRID_POINTS,
            f"must be between {lo} and {MAX_GRID_POINTS}")


# key: (parse, default, bound)
SCHEMA = {
    "physics.hbar": (_as_float, 1.0, POSITIVE_SQUARE),
    "physics.mass": (_as_float, 1.0, POSITIVE_SQUARE),
    "physics.potential": (_choice("free", "harmonic", "tabulated"), "free", None),
    "physics.omega": (_as_float, 1.0, POSITIVE_SQUARE),
    "physics.potential_file": (_as_str, "", None),
    "state.sigma0": (_as_float, 1.0, POSITIVE_SQUARE),
    "state.boost_k": (_as_float, 0.0, None),
    "grid.n_labels": (_as_int, 401, _grid_points(9)),
    "grid.label_min": (_as_float, -8.0, None),
    "grid.label_max": (_as_float, 8.0, None),
    "grid.n_x": (_as_int, 1024, _grid_points(16)),
    "grid.x_min": (_as_float, -12.0, None),
    "grid.x_max": (_as_float, 12.0, None),
    "solver.t_final": (_as_float, 2.0, POSITIVE),
    "solver.dt": (_auto_or_float, None, POSITIVE),
    "solver.cfl": (_as_float, 0.1, POSITIVE),
    "solver.snapshot_stride": (_as_int, 25, _at_least(1)),
    "solver.projection_degree": (_auto_or_int, None, _at_least(1)),
    "reference.dt": (_as_float, 1e-3, POSITIVE),
    "reference.t_final": (_auto_or_float, None, POSITIVE),
    "reference.snapshot_stride": (_as_int, 50, _at_least(1)),
    # every particle fits its FIT_WINDOW nearest
    "qtm.n_particles": (_as_int, 201, _grid_points(FIT_WINDOW)),
    "qtm.span": (_as_float, 5.0, POSITIVE),
    "qtm.dt": (_auto_or_float, None, POSITIVE),
    "qtm.t_final": (_auto_or_float, None, _at_least(0)),
    "qtm.snapshot_stride": (_as_int, 40, _at_least(1)),
    "output.field_times": (_as_int, 5, _at_least(1)),
    "run.seed": (_as_int, 0, _at_least(0)),
}


def parse_config_text(text: str) -> dict:
    """Raw key -> string map from config text; checks syntax and key names."""
    raw = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            unknown.append(key)
            continue
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return raw


def resolve(raw: dict) -> dict:
    """Typed values for the full schema (defaults filled in)."""
    out = {}
    for key, (parse, default, _) in SCHEMA.items():
        if key in raw:
            try:
                out[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        else:
            out[key] = default
    return out


def _shown(value) -> str:
    """repr of a value, but an integer past 2**53 as the float it was read
    from: ``1e300`` parses to an integer of 301 digits."""
    if isinstance(value, int) and 2**53 < abs(value) <= sys.float_info.max:
        return repr(float(value))
    return repr(value)


def _check(values) -> None:
    """Raise a ConfigError naming the key and value of the first value out
    of its SCHEMA bound, then of the first broken cross-key rule."""
    for key, (_, _, bound) in SCHEMA.items():
        value = values[key]
        if bound is not None and value is not None and not bound[0](value):
            raise ConfigError(f"{key} {bound[1]}, got {_shown(value)}")
    v = values
    # a packet narrower than one x cell leaves the reference a support of
    # a point or two
    dx = (v["grid.x_max"] - v["grid.x_min"]) / v["grid.n_x"]
    for key, ok, requirement in (
            ("grid.label_max", v["grid.label_max"] > v["grid.label_min"],
             f"must be > grid.label_min = {v['grid.label_min']!r}"),
            ("grid.x_max", v["grid.x_max"] > v["grid.x_min"],
             f"must be > grid.x_min = {v['grid.x_min']!r}"),
            ("state.sigma0", v["state.sigma0"] >= dx,
             f"must be >= the x spacing (grid.x_max - grid.x_min) / "
             f"grid.n_x = {dx!r}")):
        if not ok:
            raise ConfigError(f"{key} {requirement}, got {_shown(v[key])}")


@dataclass(frozen=True)
class Settings:
    """Typed, read-only view over a resolved configuration, checked
    against every bound when it is built."""

    values: Mapping

    def __post_init__(self):
        _check(self.values)
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    @classmethod
    def from_file(cls, path) -> "Settings":
        """Settings of the config file at ``path``; a file that cannot be
        read as UTF-8 text raises :class:`ConfigError` naming the path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config {path}: {reason}") from exc
        return cls(resolve(parse_config_text(text)))

    @classmethod
    def defaults(cls, **overrides) -> "Settings":
        vals = resolve({})
        for key, val in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            vals[key] = val
        return cls(vals)

    def __getitem__(self, key):
        return self.values[key]

    def echo(self) -> dict:
        """JSON-ready copy of every resolved key (for reproducibility)."""
        return {k: self.values[k] for k in sorted(self.values)}

    # -- constructors ------------------------------------------------------

    def physics(self) -> PhysicsParams:
        kind = self["physics.potential"]
        if kind == "free":
            pot = FreePotential()
        elif kind == "harmonic":
            pot = HarmonicPotential(omega=self["physics.omega"])
        else:
            path = self["physics.potential_file"]
            if not path:
                raise ConfigError("physics.potential_file required for tabulated")
            try:
                data = np.loadtxt(path, delimiter=",", comments="#")
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"cannot read physics.potential_file {path!r}: {exc}") from exc
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError("potential file must hold two columns: x, V")
            pot = TabulatedPotential(data[:, 0], data[:, 1])
        return PhysicsParams(hbar=self["physics.hbar"], mass=self["physics.mass"],
                             potential=pot)

    def x_grid(self) -> np.ndarray:
        # periodic convention (right endpoint excluded): one grid serves both
        # the spectral reference and the reconstructions
        return np.linspace(self["grid.x_min"], self["grid.x_max"],
                           self["grid.n_x"], endpoint=False)

    def initial_state(self, params: PhysicsParams) -> InitialState:
        labels = np.linspace(self["grid.label_min"], self["grid.label_max"],
                             self["grid.n_labels"])
        try:
            return make_gaussian_state(self["state.sigma0"], params, labels,
                                       boost_k=self["state.boost_k"])
        except ValidationError as exc:
            # the span and spacing that hold the Gaussian to the
            # normalization tolerance depend on all four keys
            names = ", ".join(f"{k} = {self[k]!r}" for k in (
                "state.sigma0", "grid.label_min", "grid.label_max",
                "grid.n_labels"))
            raise ConfigError(f"the label grid cannot carry the Gaussian at "
                              f"{names}: {exc}") from exc

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            t_final=self["solver.t_final"], dt=self["solver.dt"],
            cfl_coefficient=self["solver.cfl"],
            snapshot_stride=self["solver.snapshot_stride"],
            projection_degree=self["solver.projection_degree"])

    def qtm_config(self) -> QtmConfig:
        t_final = self["qtm.t_final"]
        return QtmConfig(
            t_final=self["solver.t_final"] if t_final is None else t_final,
            dt=self["qtm.dt"], snapshot_stride=self["qtm.snapshot_stride"])

    def qtm_labels(self) -> np.ndarray:
        span = self["qtm.span"] * self["state.sigma0"]
        return np.linspace(-span, span, self["qtm.n_particles"])

    def reference_t_final(self) -> float:
        t = self["reference.t_final"]
        return self["solver.t_final"] if t is None else t

    def reference_controls(self) -> tuple[float, float, int]:
        """(dt, t_final, snapshot_stride) of the spectral reference run."""
        return (self["reference.dt"], self.reference_t_final(),
                self["reference.snapshot_stride"])
