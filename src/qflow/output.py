"""Deterministic CSV and JSON emission.

Every file starts with a schema marker; reals are written with full
round-trip precision (shortest repr), newlines are ``\\n``, masked field
entries become ``nan`` with the mask column flagging validity.  Outputs
are byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import EulerianField, TrajectoryState

TRAJECTORY_SCHEMA = "qflow.trajectories.v1"
FIELDS_SCHEMA = "qflow.fields.v1"
SUMMARY_SCHEMA = "qflow.summary.v1"
COMPARE_SCHEMA = "qflow.compare.v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _strings(values):
    """Each value's shortest round-trip string, one column at a time (a
    float64 is a ``float``, so ``float.__repr__`` formats it without a
    list of Python floats)."""
    return map(float.__repr__, np.asarray(values, dtype=float))


def write_trajectories(path, snapshots: Sequence[TrajectoryState]) -> None:
    lines = [f"# schema: {TRAJECTORY_SCHEMA}", "t,a,q,qdot,chi"]
    for snap in snapshots:
        columns = (snap.labels, snap.q, snap.qdot, snap.chi)
        lines += map(",".join, zip(repeat(_fmt(snap.t)), *map(_strings, columns)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_trajectories(path) -> list[TrajectoryState]:
    rows = _read_csv(path, TRAJECTORY_SCHEMA, "t,a,q,qdot,chi")
    out = []
    for t in sorted(set(rows[:, 0])):
        block = rows[rows[:, 0] == t]
        out.append(TrajectoryState(labels=block[:, 1], q=block[:, 2],
                                   qdot=block[:, 3], chi=block[:, 4], t=float(t)))
    return out


def write_fields(path, fields: Sequence[EulerianField]) -> None:
    lines = [f"# schema: {FIELDS_SCHEMA}", "t,x,rho,S,v,re_psi,im_psi,mask"]
    for f in fields:
        masked = (np.where(f.mask, c, math.nan)
                  for c in (f.rho, f.S, f.v, f.psi.real, f.psi.imag))
        lines += map(",".join, zip(repeat(_fmt(f.t)), _strings(f.x),
                                   *map(_strings, masked),
                                   map(str, f.mask.astype(int).tolist())))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_fields(path, hbar: float = 1.0) -> list[EulerianField]:
    rows = _read_csv(path, FIELDS_SCHEMA, "t,x,rho,S,v,re_psi,im_psi,mask")
    out = []
    for t in sorted(set(rows[:, 0])):
        block = rows[rows[:, 0] == t]
        mask = block[:, 7] > 0.5
        rho = np.where(mask, block[:, 2], 0.0)
        S = np.where(mask, block[:, 3], 0.0)
        v = np.where(mask, block[:, 4], 0.0)
        psi = np.where(mask, block[:, 5] + 1j * block[:, 6], 0.0)
        out.append(EulerianField(x=block[:, 1], t=float(t), rho=rho, S=S, v=v,
                                 psi=psi, mask=mask, hbar=hbar))
    return out


def _read_csv(path, schema: str, header: str) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}") from exc
    if not text or not text[0].startswith("# schema:"):
        raise ValidationError(f"{path}: missing schema header line")
    found = text[0].split(":", 1)[1].strip()
    if found != schema:
        raise ValidationError(f"{path}: schema {found!r}, expected {schema!r}")
    if len(text) < 2 or text[1] != header:
        raise ValidationError(f"{path}: expected column header {header!r}")
    data = [list(map(float, line.split(","))) for line in text[2:] if line]
    return np.asarray(data, dtype=float)


def write_summary(path, payload: dict, schema: str = SUMMARY_SCHEMA) -> None:
    doc = {"schema": schema}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n",
                          encoding="utf-8", newline="\n")
