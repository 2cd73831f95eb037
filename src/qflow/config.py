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


def _as_bool(s):
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s}")


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
    "state.analytic_forms": (_as_bool, True),
    "grid.n_labels": (_as_int, 401),
    "grid.label_min": (_as_float, -8.0),
    "grid.label_max": (_as_float, 8.0),
    "grid.n_x": (_as_int, 1024),
    "grid.x_min": (_as_float, -12.0),
    "grid.x_max": (_as_float, 12.0),
    "solver.t_final": (_as_float, 2.0),
    "solver.dt": (_auto_or_float, None),
    "solver.cfl": (_as_float, 0.1),
    "solver.integrator": (_choice("rk4", "velocity_verlet"), "rk4"),
    "solver.stencil_order": (_as_int, 4),
    "solver.snapshot_stride": (_as_int, 25),
    "solver.acceleration_path": (_choice("direct", "newton", "both_with_check"),
                                 "direct"),
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
        kind = self["physics.potential"]
        if kind == "free":
            pot = FreePotential()
        elif kind == "harmonic":
            pot = HarmonicPotential(omega=self["physics.omega"])
        else:
            path = self["physics.potential_file"]
            if not path:
                raise ConfigError("physics.potential_file required for tabulated")
            data = np.loadtxt(path, delimiter=",", comments="#")
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError("potential file must hold two columns: x, V")
            pot = TabulatedPotential(data[:, 0], data[:, 1])
        return PhysicsParams(hbar=self["physics.hbar"], mass=self["physics.mass"],
                             potential=pot)

    def label_grid(self) -> np.ndarray:
        n = self["grid.n_labels"]
        lo, hi = self["grid.label_min"], self["grid.label_max"]
        if not (n >= 9 and hi > lo):
            raise ConfigError("grid.n_labels >= 9 and label_max > label_min required")
        return np.linspace(lo, hi, n)

    def x_grid(self) -> np.ndarray:
        n = self["grid.n_x"]
        lo, hi = self["grid.x_min"], self["grid.x_max"]
        if not (n >= 16 and hi > lo):
            raise ConfigError("grid.n_x >= 16 and x_max > x_min required")
        # periodic convention (right endpoint excluded): one grid serves both
        # the spectral reference and the reconstructions
        return np.linspace(lo, hi, n, endpoint=False)

    def initial_state(self, params: PhysicsParams) -> InitialState:
        return make_gaussian_state(self["state.sigma0"], params, self.label_grid(),
                                   boost_k=self["state.boost_k"],
                                   analytic=self["state.analytic_forms"])

    def solver_config(self) -> SolverConfig:
        cfg = SolverConfig(
            t_final=self["solver.t_final"],
            dt=self["solver.dt"],
            cfl_coefficient=self["solver.cfl"],
            integrator=self["solver.integrator"],
            stencil_order=self["solver.stencil_order"],
            snapshot_stride=self["solver.snapshot_stride"],
            acceleration_path=self["solver.acceleration_path"],
            projection_degree=self["solver.projection_degree"],
        )
        cfg.validate()
        return cfg

    def qtm_config(self) -> QtmConfig:
        t_final = self["qtm.t_final"]
        if t_final is None:
            t_final = self["solver.t_final"]
        cfg = QtmConfig(
            t_final=t_final,
            dt=self["qtm.dt"],
            degree=self["qtm.degree"],
            stencil_size=self["qtm.stencil_size"],
            weight_width_mult=self["qtm.weight_width"],
            snapshot_stride=self["qtm.snapshot_stride"],
        )
        cfg.validate()
        return cfg

    def qtm_labels(self) -> np.ndarray:
        n = self["qtm.n_particles"]
        span = self["qtm.span"] * self["state.sigma0"]
        if n < 9:
            raise ConfigError("qtm.n_particles >= 9 required")
        return np.linspace(-span, span, n)

    def reference_t_final(self) -> float:
        t = self["reference.t_final"]
        return self["solver.t_final"] if t is None else t
