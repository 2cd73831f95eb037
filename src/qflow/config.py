"""Flat ``key = value`` run configuration with a fixed key schema.

Lines are UTF-8, ``#`` starts a comment, keys are namespaced
(``solver.dt``, ``grid.n_labels``, ...).  Unknown keys are rejected with
the full offending list so typos never silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .lagrangian import SolverConfig
from .model import (FreePotential, HarmonicPotential, InitialState,
                    PhysicsParams, TabulatedPotential, make_gaussian_state)
from .qtm import QtmConfig


class ConfigError(ValidationError):
    """Malformed configuration file or values."""


# the most points one grid may hold; a larger count fails to allocate or
# runs for hours, so it is rejected up front
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


SCHEMA = {
    "physics.hbar": (_as_float, 1.0),
    "physics.mass": (_as_float, 1.0),
    "physics.potential": (_choice("free", "harmonic", "tabulated"), "free"),
    "physics.omega": (_as_float, 1.0),
    "physics.potential_file": (_as_str, ""),
    "state.sigma0": (_as_float, 1.0),
    "state.boost_k": (_as_float, 0.0),
    "grid.n_labels": (_as_int, 401),
    "grid.label_min": (_as_float, -8.0),
    "grid.label_max": (_as_float, 8.0),
    "grid.n_x": (_as_int, 1024),
    "grid.x_min": (_as_float, -12.0),
    "grid.x_max": (_as_float, 12.0),
    "solver.t_final": (_as_float, 2.0),
    "solver.dt": (_auto_or_float, None),
    "solver.cfl": (_as_float, 0.1),
    "solver.snapshot_stride": (_as_int, 25),
    "solver.projection_degree": (_auto_or_int, None),
    "reference.dt": (_as_float, 1e-3),
    "reference.t_final": (_auto_or_float, None),
    "reference.snapshot_stride": (_as_int, 50),
    "qtm.n_particles": (_as_int, 201),
    "qtm.span": (_as_float, 5.0),
    "qtm.dt": (_auto_or_float, None),
    "qtm.t_final": (_auto_or_float, None),
    "qtm.degree": (_as_int, 4),
    "qtm.stencil_size": (_as_int, 9),
    "qtm.weight_width": (_as_float, 3.0),
    "qtm.snapshot_stride": (_as_int, 40),
    "output.field_times": (_as_int, 5),
    "run.seed": (_as_int, 0),
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
    for key, (parse, default) in SCHEMA.items():
        if key in raw:
            try:
                out[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        else:
            out[key] = default
    return out


@dataclass(frozen=True)
class Settings:
    """Typed view over a resolved configuration."""

    values: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "Settings":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(resolve(parse_config_text(fh.read())))

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
        # squared on Python floats: an overflow raises, a zero square divides by 0
        for key in ("physics.hbar", "physics.mass", "physics.omega"):
            v = self[key]
            if not v > 0:
                raise ConfigError(f"{key} must be positive, got {v!r}")
            if not 0.0 < v * v < math.inf:
                raise ConfigError(
                    f"{key} = {v!r} is out of range (square not finite or 0)")
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

    def label_grid(self) -> np.ndarray:
        n = self["grid.n_labels"]
        lo, hi = self["grid.label_min"], self["grid.label_max"]
        if not (9 <= n <= MAX_GRID_POINTS and hi > lo):
            raise ConfigError(f"9 <= grid.n_labels <= {MAX_GRID_POINTS} and "
                              f"label_max > label_min required")
        return np.linspace(lo, hi, n)

    def x_grid(self) -> np.ndarray:
        n = self["grid.n_x"]
        lo, hi = self["grid.x_min"], self["grid.x_max"]
        if not (16 <= n <= MAX_GRID_POINTS and hi > lo):
            raise ConfigError(f"16 <= grid.n_x <= {MAX_GRID_POINTS} and "
                              f"x_max > x_min required")
        # periodic convention (right endpoint excluded): one grid serves both
        # the spectral reference and the reconstructions
        return np.linspace(lo, hi, n, endpoint=False)

    def initial_state(self, params: PhysicsParams) -> InitialState:
        return make_gaussian_state(self.sigma0(), params, self.label_grid(),
                                   boost_k=self["state.boost_k"])

    def _checked(self, key, ok, requirement: str):
        """The value of ``key``, or a ConfigError naming the key and value
        when ``ok(value)`` fails; ``auto`` (None) always passes."""
        v = self[key]
        if v is not None and not ok(v):
            raise ConfigError(f"{key} {requirement}, got {v!r}")
        return v

    def _positive(self, key):
        return self._checked(key, lambda v: v > 0, "must be positive")

    def _stride(self, key):
        return self._checked(key, lambda v: v >= 1, "must be >= 1")

    def sigma0(self) -> float:
        # the Gaussian forms divide by the square, and 1e-300 squares to 0
        return self._checked(
            "state.sigma0", lambda v: v > 0 and 0.0 < v * v < math.inf,
            "must be positive, with a square neither 0 nor infinite")

    def solver_config(self) -> SolverConfig:
        cfg = SolverConfig(
            t_final=self._positive("solver.t_final"),
            dt=self._positive("solver.dt"),
            cfl_coefficient=self._positive("solver.cfl"),
            snapshot_stride=self._stride("solver.snapshot_stride"),
            projection_degree=self._stride("solver.projection_degree"),
        )
        cfg.validate()
        return cfg

    def qtm_config(self) -> QtmConfig:
        key = "solver.t_final" if self["qtm.t_final"] is None else "qtm.t_final"
        cfg = QtmConfig(
            t_final=self._checked(key, lambda v: v >= 0, "must be nonnegative"),
            dt=self._positive("qtm.dt"),
            degree=self["qtm.degree"],
            stencil_size=self["qtm.stencil_size"],
            weight_width_mult=self["qtm.weight_width"],
            snapshot_stride=self._stride("qtm.snapshot_stride"),
        )
        cfg.validate()
        return cfg

    def qtm_labels(self) -> np.ndarray:
        n = self["qtm.n_particles"]
        span = self["qtm.span"] * self.sigma0()
        if not 9 <= n <= MAX_GRID_POINTS:
            raise ConfigError(f"9 <= qtm.n_particles <= {MAX_GRID_POINTS} required")
        return np.linspace(-span, span, n)

    def field_times(self) -> int:
        n = self["output.field_times"]
        if n < 1:
            raise ConfigError(f"output.field_times must be >= 1, got {n}")
        return n

    def seed(self) -> int:
        seed = self["run.seed"]
        if seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {seed}")
        return seed

    def reference_t_final(self) -> float:
        t = self._positive("reference.t_final")
        return self._positive("solver.t_final") if t is None else t

    def reference_controls(self) -> tuple[float, float, int]:
        """(dt, t_final, snapshot_stride) of the spectral reference run."""
        return (self._positive("reference.dt"), self.reference_t_final(),
                self._stride("reference.snapshot_stride"))
