"""Deterministic CSV and JSON emission.

Every file starts with a schema marker; reals are written with full
round-trip precision (shortest repr), newlines are ``\\n``, masked field
entries become ``nan`` with the mask column flagging validity.  Outputs
are byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
import warnings
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


def _write_csv(path, schema: str, header: str, blocks) -> None:
    """Write the schema and header lines, then each block of rows (an
    iterable of row strings, one block per snapshot) as it is formed, so
    only one snapshot's text is held at a time."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema: {schema}\n{header}\n")
        for rows in blocks:
            text = "\n".join(rows)
            if text:
                fh.write(text)
                fh.write("\n")


def write_trajectories(path, snapshots: Sequence[TrajectoryState]) -> None:
    def blocks():
        for snap in snapshots:
            columns = (snap.labels, snap.q, snap.qdot, snap.chi)
            yield map(",".join, zip(repeat(_fmt(snap.t)), *map(_strings, columns)))

    _write_csv(path, TRAJECTORY_SCHEMA, "t,a,q,qdot,chi", blocks())


def write_fields(path, fields: Sequence[EulerianField]) -> None:
    def blocks():
        for f in fields:
            masked = (np.where(f.mask, c, math.nan)
                      for c in (f.rho, f.S, f.v, f.psi.real, f.psi.imag))
            yield map(",".join, zip(repeat(_fmt(f.t)), _strings(f.x),
                                    *map(_strings, masked),
                                    map(str, f.mask.astype(int).tolist())))

    _write_csv(path, FIELDS_SCHEMA, "t,x,rho,S,v,re_psi,im_psi,mask", blocks())


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
    """The data rows of a qflow CSV file, one array row each, after its
    schema and column header lines are checked.  An unreadable file, a
    wrong header, a value that is not a number, a row of the wrong length
    or a file with no rows raises :class:`ValidationError` naming the
    path."""
    n_cols = header.count(",") + 1
    try:
        with Path(path).open(encoding="utf-8") as fh:
            first = fh.readline().rstrip("\r\n")
            if not first.startswith("# schema:"):
                raise ValidationError(f"{path}: missing schema header line")
            found = first.split(":", 1)[1].strip()
            if found != schema:
                raise ValidationError(f"{path}: schema {found!r}, expected {schema!r}")
            if fh.readline().rstrip("\r\n") != header:
                raise ValidationError(f"{path}: expected column header {header!r}")
            with warnings.catch_warnings():
                # an empty body is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValidationError:
        # the header checks above; a ValidationError is a ValueError too
        raise
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}") from exc
    except ValueError as exc:
        # numpy's reason, without its advice on selecting columns
        reason = str(exc).split(";")[0].rstrip(".")
        raise ValidationError(f"{path}: malformed data row: {reason}") from exc
    if rows.shape[0] == 0:
        raise ValidationError(f"{path}: no data rows")
    if rows.shape[1] != n_cols:
        raise ValidationError(f"{path}: rows of {rows.shape[1]} values, "
                              f"expected {n_cols} ({header})")
    return rows


def write_summary(path, payload: dict, schema: str = SUMMARY_SCHEMA) -> None:
    doc = {"schema": schema}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n",
                          encoding="utf-8", newline="\n")
