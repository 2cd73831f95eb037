import contextlib
import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qflow.cli
from qflow.cli import main
from qflow.config import (MAX_GRID_POINTS, POSITIVE_SQUARE, SCHEMA, ConfigError,
                          Settings, parse_config_text, resolve)
from qflow.errors import NodeEncountered, ValidationError
from qflow.model import plan_steps
from qflow.pipeline import Check, _truncated_gaussian_state, tensor_check
from qflow.stencils import grid_spacing
from qflow.output import read_fields, write_fields, write_trajectories

ROOT = Path(__file__).resolve().parents[1]

SMALL_RUN = """
# quick run for integration tests
grid.n_labels = 101
grid.n_x = 256
grid.x_min = -10
grid.x_max = 10
solver.t_final = 0.2
solver.snapshot_stride = 10
reference.dt = 2e-3
reference.snapshot_stride = 10
qtm.n_particles = 51
qtm.t_final = 0.1
qtm.snapshot_stride = 20
output.field_times = 3
"""


# settings for which a run takes well under a second
CHEAP_RUN = {"grid.n_labels": "41", "grid.n_x": "128", "solver.t_final": "0.01",
             "solver.snapshot_stride": "5", "qtm.n_particles": "21",
             "qtm.t_final": "0.01", "qtm.snapshot_stride": "5",
             "output.field_times": "2"}


def _write_config(path, lines):
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_RUN, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# top\n\nsolver.dt = 0.5 # trailing\n")
        assert raw == {"solver.dt": "0.5"}

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("solver.dx = 1\nphysics.hbarr = 2\n")
        assert "physics.hbarr" in str(err.value)
        assert "solver.dx" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("solver.dt 0.5")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("solver.dt = 1\nsolver.dt = 2")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="solver.t_final"):
            resolve({"solver.t_final": "soon"})

    @pytest.mark.parametrize("key,value", [
        ("grid.n_labels", "1e400"), ("solver.cfl", "inf"), ("physics.omega", "nan"),
        ("solver.dt", "-inf"), ("reference.t_final", "nan"), ("qtm.n_particles", "inf")])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve({key: value})

    def test_auto_sentinels(self):
        vals = resolve({"solver.dt": "auto", "solver.projection_degree": "auto"})
        assert vals["solver.dt"] is None
        assert vals["solver.projection_degree"] is None

    def test_defaults_complete(self):
        vals = resolve({})
        assert vals["grid.n_labels"] == 401
        assert vals["solver.cfl"] == 0.1

    def test_settings_constructors(self):
        s = Settings.defaults(**{"grid.n_labels": 51, "state.sigma0": 1.0,
                                 "grid.label_min": -6.0, "grid.label_max": 6.0})
        params = s.physics()
        init = s.initial_state(params)
        assert init.n == 51
        x = s.x_grid()
        assert x.size == 1024 and x[0] == -12.0 and x[-1] < 12.0

    def test_tabulated_potential_from_file(self, tmp_path):
        grid = np.linspace(-5, 5, 101)
        table = tmp_path / "pot.csv"
        table.write_text("\n".join(f"{x},{0.5 * x * x}" for x in grid))
        s = Settings.defaults(**{"physics.potential": "tabulated",
                                 "physics.potential_file": str(table)})
        p = s.physics()
        assert p.potential_energy(np.array([2.0]))[0] == pytest.approx(2.0,
                                                                       abs=1e-6)


class TestRoundTripFiles:
    def test_fields(self, tmp_path):
        from qflow.model import EulerianField, assemble_wavefunction
        x = np.linspace(-2, 2, 33)
        mask = np.abs(x) <= 1.5
        rho = np.where(mask, 0.25, 0.0)
        S = np.where(mask, 0.5 * x, 0.0)
        psi = np.where(mask, assemble_wavefunction(rho, S, 1.0), 0.0)
        field = EulerianField(x=x, t=0.25, rho=rho, S=S, v=S * 2, psi=psi,
                              mask=mask)
        path = tmp_path / "fields.csv"
        write_fields(path, [field])
        back = read_fields(path)[0]
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.rho, rho)
        assert np.array_equal(back.psi, psi)

    def test_writers_emit_the_shortest_repr_of_every_value(self, tmp_path):
        from qflow.model import EulerianField, TrajectoryState
        snap = TrajectoryState(labels=[-1.0, 0.0, 1.0], q=[-1.5, -0.0, 1e-300],
                               qdot=[5e-324, -0.0, 2.5], chi=[0.1, 0.0, -1e-300],
                               t=0.125)
        write_trajectories(tmp_path / "t.csv", [snap])
        assert (tmp_path / "t.csv").read_text() == (
            "# schema: qflow.trajectories.v1\n"
            "t,a,q,qdot,chi\n"
            "0.125,-1.0,-1.5,5e-324,0.1\n"
            "0.125,0.0,-0.0,-0.0,0.0\n"
            "0.125,1.0,1e-300,2.5,-1e-300\n")
        # masked rows are written as nan whatever they hold
        field = EulerianField(
            x=[-1.5, -0.0, 1.5, 3.0], t=0.25, rho=[0.5, 0.25, 1e-300, 0.0],
            S=[1.0, -0.0, 0.0, 0.0], v=[2.0, 5e-324, -2.5, 0.0],
            psi=[0.7, complex(0.5, -0.0), 1e-150, 0.0],
            mask=[False, True, True, False])
        write_fields(tmp_path / "f.csv", [field])
        assert (tmp_path / "f.csv").read_text() == (
            "# schema: qflow.fields.v1\n"
            "t,x,rho,S,v,re_psi,im_psi,mask\n"
            "0.25,-1.5,nan,nan,nan,nan,nan,0\n"
            "0.25,-0.0,0.25,-0.0,5e-324,0.5,-0.0,1\n"
            "0.25,1.5,1e-300,0.0,-2.5,1e-150,0.0,1\n"
            "0.25,3.0,nan,nan,nan,nan,nan,0\n")

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text("nope\n")
        with pytest.raises(Exception, match="schema"):
            read_fields(path)

    @pytest.mark.parametrize("body,reason", [
        ("", "no data rows"),
        ("0.0,1.0\n0.0,2.0\n",
         r"rows of 2 values, expected 8 \(t,x,rho,S,v,re_psi,im_psi,mask\)")])
    def test_reader_rejects_an_empty_or_narrow_body(self, tmp_path, body,
                                                    reason):
        path = tmp_path / "f.csv"
        path.write_text("# schema: qflow.fields.v1\nt,x,rho,S,v,re_psi,im_psi,mask\n"
                        + body)
        with pytest.raises(ValidationError, match=f"{path}: {reason}"):
            read_fields(path)

    def test_streamed_files_equal_one_join_of_every_row(self, tmp_path):
        # the writers emit one snapshot's rows at a time; the bytes are those
        # of the whole file's lines joined at once
        from qflow.model import (EulerianField, TrajectoryState,
                                 assemble_wavefunction)
        a = np.linspace(-1, 1, 5)
        snaps = [TrajectoryState(a, a * (1 + t), a * t, a * 0 + t / 3, t)
                 for t in (0.0, 0.5, 1.0)]
        write_trajectories(tmp_path / "t.csv", snaps)
        lines = ["# schema: qflow.trajectories.v1", "t,a,q,qdot,chi"]
        for snap in snaps:
            lines += [",".join(repr(float(v)) for v in (snap.t, *row))
                      for row in zip(snap.labels, snap.q, snap.qdot, snap.chi)]
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines)
                                                     + "\n").encode()
        mask = np.array([False, True, True, True, False])
        rho = np.where(mask, a**2 + 0.1, 0.0)
        fields = [EulerianField(x=a, t=t, rho=rho, S=np.where(mask, a * t, 0.0),
                                v=np.where(mask, a + t, 0.0),
                                psi=assemble_wavefunction(
                                    rho, np.where(mask, a * t, 0.0), 1.0),
                                mask=mask)
                  for t in (0.25, 0.75)]
        write_fields(tmp_path / "f.csv", fields)
        lines = ["# schema: qflow.fields.v1", "t,x,rho,S,v,re_psi,im_psi,mask"]
        for f in fields:
            for i in range(a.size):
                values = [f.rho[i], f.S[i], f.v[i], f.psi[i].real, f.psi[i].imag]
                lines.append(",".join(
                    [repr(f.t), repr(float(f.x[i]))]
                    + [repr(float(v)) if f.mask[i] else "nan" for v in values]
                    + [str(int(f.mask[i]))]))
        assert (tmp_path / "f.csv").read_bytes() == ("\n".join(lines)
                                                     + "\n").encode()


class TestCli:
    def test_run_lagrangian_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run-lagrangian", "--config", str(small_config),
                     "--out", str(out)])
        assert code == 0
        assert (out / "trajectories.csv").exists()
        assert (out / "fields.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "qflow.summary.v1"
        assert summary["trajectory_max_rel_error"] < 1e-4
        first = (out / "trajectories.csv").read_text().splitlines()[0]
        assert first.startswith("# schema:")

    def test_byte_identical_reruns(self, small_config, tmp_path):
        for command, names in (
                ("run-lagrangian", ("trajectories.csv", "fields.csv", "summary.json")),
                ("run-reference", ("fields.csv", "summary.json")),
                ("run-qtm", ("trajectories.csv", "summary.json"))):
            out_a = tmp_path / command / "a"
            out_b = tmp_path / command / "b"
            for out in (out_a, out_b):
                assert main([command, "--config", str(small_config),
                             "--out", str(out), "--quiet"]) == 0
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reference_and_compare(self, small_config, tmp_path):
        lag = tmp_path / "lag"
        ref = tmp_path / "ref"
        cmp_dir = tmp_path / "cmp"
        assert main(["run-lagrangian", "--config", str(small_config),
                     "--out", str(lag), "--quiet"]) == 0
        assert main(["run-reference", "--config", str(small_config),
                     "--out", str(ref), "--quiet"]) == 0
        assert main(["compare", str(lag), str(ref), "--config",
                     str(small_config), "--out", str(cmp_dir), "--quiet"]) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        finals = [c for c in report["comparisons"]
                  if abs(c["t"] - 0.2) < 1e-9]
        assert finals and finals[0]["psi_phase_reduced_l2"] < 1e-4

    def test_anharmonic_trap_against_the_reference(self, tmp_path):
        # a non-quadratic V makes the Gaussian flow non-affine, so the
        # composed force's projection error shows; the psi error is pinned
        x = np.linspace(-40.0, 40.0, 8001)
        table = tmp_path / "trap.csv"
        table.write_text("\n".join(f"{float(a)!r},{float(0.5 * a * a + 0.05 * a**4)!r}"
                                   for a in x) + "\n")
        cfg = tmp_path / "trap.cfg"
        cfg.write_text(f"physics.potential = tabulated\n"
                       f"physics.potential_file = {table}\n"
                       f"grid.label_min = -6\ngrid.label_max = 6\n"
                       f"solver.t_final = 0.6\n")
        lag, ref, cmp_dir = (tmp_path / name for name in ("lag", "ref", "cmp"))
        for args in (["run-lagrangian", "--out", str(lag)],
                     ["run-reference", "--out", str(ref)],
                     ["compare", str(lag), str(ref), "--out", str(cmp_dir)]):
            assert main([*args, "--config", str(cfg), "--quiet"]) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        final = [c for c in report["comparisons"] if abs(c["t"] - 0.6) < 1e-9]
        assert final[0]["psi_phase_reduced_l2"] == pytest.approx(9.437602310e-4,
                                                                 rel=1e-6)

    def test_compare_rejects_non_finite_field(self, tmp_path, capsys):
        # a nan on the support would otherwise read back and compare as nan
        cfg = _write_config(tmp_path / "cheap.cfg", CHEAP_RUN)
        lag = tmp_path / "lag"
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(lag), "--quiet"]) == 0
        lines = (lag / "fields.csv").read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.endswith(",1"))
        cols = lines[i].split(",")
        cols[2] = "nan"
        lines[i] = ",".join(cols)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["compare", str(bad), str(lag), "--config", str(cfg),
                     "--out", str(tmp_path / "cmp"), "--quiet"]) == 2
        assert f"rho[{i - 2}] = nan" in capsys.readouterr().err

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        (b"\xff\xfe\x00", "'utf-8' codec can't decode")])
    def test_compare_on_an_unreadable_result_exits_2(self, tmp_path, capsys,
                                                     content, reason):
        path = tmp_path / "result" / "fields.csv"
        if content is not None:
            path.parent.mkdir()
            path.write_bytes(content)
        assert main(["compare", str(path), str(path),
                     "--out", str(tmp_path / "c"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {path}: {reason}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("edit,reason", [
        ("abc", "could not convert string 'abc' to float64"),
        (None, "the number of columns changed from 8 to 7")])
    def test_compare_on_a_malformed_result_exits_2(self, tmp_path, capsys,
                                                   edit, reason):
        # a value that is not a number, or a row one value short
        cfg = _write_config(tmp_path / "cheap.cfg", CHEAP_RUN)
        lag = tmp_path / "lag"
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(lag), "--quiet"]) == 0
        lines = (lag / "fields.csv").read_text().splitlines()
        cols = lines[5].split(",")
        if edit is None:
            cols.pop()
        else:
            cols[3] = edit
        lines[5] = ",".join(cols)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["compare", str(bad), str(lag), "--config", str(cfg),
                     "--out", str(tmp_path / "cmp"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: malformed data row: {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,reason", [
        ("", "missing schema header line"),
        ("# schema: qflow.trajectories.v1\nt,a,q,qdot,chi\n0,0,0,0,0\n",
         "schema 'qflow.trajectories.v1', expected 'qflow.fields.v1'"),
        ("# schema: qflow.fields.v1\nt,x\n0,0\n",
         "expected column header 't,x,rho,S,v,re_psi,im_psi,mask'")],
        ids=["empty", "wrong-schema", "wrong-header"])
    def test_compare_on_a_wrong_header_exits_2(self, tmp_path, capsys, text,
                                               reason):
        # the reader's own message, not wrapped as a malformed data row
        path = tmp_path / "fields.csv"
        path.write_text(text)
        assert main(["compare", str(path), str(path),
                     "--out", str(tmp_path / "c"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command,stage", [
        ("run-lagrangian", "run_lagrangian"), ("tensor-check", "tensor_check")])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                    monkeypatch, command,
                                                    stage, below):
        # checked before the run: the run itself must not start
        import qflow.cli

        def fail(*args, **kwargs):
            raise AssertionError(f"{stage} ran")
        monkeypatch.setattr(qflow.cli, stage, fail)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" / "dir" if below else taken
        cfg = _write_config(tmp_path / "cheap.cfg", CHEAP_RUN)
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: {taken} exists and is not a directory\n"
        assert taken.read_text() == "kept\n"

    def test_out_created_after_the_run(self, tmp_path):
        # a missing --out, parents included, is made once the run succeeds
        cfg = _write_config(tmp_path / "cheap.cfg", CHEAP_RUN)
        out = tmp_path / "a" / "b"
        assert main(["run-lagrangian", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "summary.json").is_file()

    def test_run_qtm(self, small_config, tmp_path):
        out = tmp_path / "qtm"
        assert main(["run-qtm", "--config", str(small_config),
                     "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=2)
        assert rows[-1, 0] == pytest.approx(0.1)
        # the carried log-density's diagnostics: mass on the final paths
        # and the gap to the divergence-integral route
        summary = json.loads((out / "summary.json").read_text())
        assert summary["discrete_norm_final"] == pytest.approx(1.0, abs=1e-2)
        assert summary["density_route_deviation"] <= 1e-3

    def test_run_qtm_at_the_least_particle_count(self, tmp_path):
        # 9 particles, the bound of qtm.n_particles, are more than the 6 the
        # derivative stencil's one-sided rows span
        cfg = _write_config(tmp_path / "least.cfg", {"qtm.n_particles": "9"})
        out = tmp_path / "qtm"
        assert main(["run-qtm", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rows = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=2)
        assert rows[-1, 0] == pytest.approx(2.0)
        assert np.sum(rows[:, 0] == rows[-1, 0]) == 9

    @pytest.mark.parametrize("failing", ["mkdir", "write"])
    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference",
                                         "run-qtm", "compare", "tensor-check",
                                         "gaussian-accept"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch,
                                       command, failing):
        # the run succeeds, then its output cannot be written: a read-only
        # file system refuses the directory, or a full disk a write (which
        # names no file)
        cfg = _write_config(tmp_path / "run.cfg", CHEAP_RUN)
        args = []
        if command == "compare":
            ref = tmp_path / "ref"
            assert main(["run-reference", "--config", str(cfg),
                         "--out", str(ref), "--quiet"]) == 0
            args = [str(ref), str(ref)]
        # the battery's own work is not under test
        monkeypatch.setattr(qflow.cli, "gaussian_accept",
                            lambda settings: ([], {}))
        out = tmp_path / "o"
        code = errno.EROFS if failing == "mkdir" else errno.ENOSPC

        def fail(path, *args, **kwargs):
            if failing == "mkdir":
                raise OSError(code, os.strerror(code), str(path))
            raise OSError(code, os.strerror(code))

        if failing == "mkdir":
            monkeypatch.setattr(Path, "mkdir", fail)
        else:
            monkeypatch.setattr(qflow.cli, "write_summary", fail)
        assert main([command, *args, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: {os.strerror(code)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"grid.n_labels = 41\n# \xff\xfe\n")
        assert main(["run-lagrangian", "--config", str(path),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config {path}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run-lagrangian", "run-qtm",
                                         "run-reference"])
    @pytest.mark.parametrize("row,point", [(40, "nan"), (0, "-inf"),
                                           (80, "inf")])
    def test_non_finite_potential_grid_exits_2(self, tmp_path, capsys, command,
                                               row, point):
        # NaN fails every comparison, so the grid's increasing check alone
        # let a NaN point, or an infinite end, through to a NaN potential
        rows = [f"{x},{0.5 * x * x}" for x in np.linspace(-40.0, 40.0, 81)]
        rows[row] = f"{point},0.0"
        table = tmp_path / "potential.csv"
        table.write_text("\n".join(rows))
        cfg = _write_config(tmp_path / "table.cfg", {
            **CHEAP_RUN, "physics.potential": "tabulated",
            "physics.potential_file": table})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "tabulated potential grid contains non-finite points" in err
        assert "Traceback" not in err

    def test_invalid_dt_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("solver.dt = -1\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line", [
        pytest.param(line, id=line.split(" =")[0]) for line in [
            "solver.speed = 11",
            # removed solver knobs: a config still naming them is rejected
            "solver.integrator = rk4",
            "solver.acceleration_path = direct",
            "solver.stencil_order = 4",
            "state.analytic_forms = true",
            # the removed particle fit's shape
            "qtm.degree = 4",
            "qtm.stencil_size = 9",
            "qtm.weight_width = 3.0",
        ]])
    def test_unknown_key_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("line,fragment", [
        pytest.param(line, fragment, id=line) for line, fragment in [
            ("grid.n_labels = 1e400", "finite"),
            ("physics.omega = nan", "finite"),
            # finite, but their squares overflow
            ("physics.omega = 1e160",
             "physics.omega must be positive, with a square neither 0 nor infinite, got 1e+160"),
            ("physics.hbar = 1e200",
             "physics.hbar must be positive, with a square neither 0 nor infinite, got 1e+200"),
            # a frequency must be positive
            ("physics.omega = 0", "physics.omega must be positive"),
            ("physics.omega = -1", "physics.omega must be positive"),
        ]])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, line, fragment):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err

    def test_underflowing_state_exits_2(self, tmp_path, capsys):
        # at sigma0 = 0.2 the analytic density underflows to 0 in the +-8
        # tails, where the log-density ratios would be 0/0
        cfg = tmp_path / "tails.cfg"
        cfg.write_text("state.sigma0 = 0.2\ngrid.n_labels = 101\n"
                       "solver.t_final = 0.01\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert ("analytic rho0 underflows to 0 on the label span [-8.0, 8.0]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,line,fragment", [
        pytest.param(command, line, fragment, id=line) for command, line, fragment in [
            ("run-lagrangian", "grid.n_labels = 1e18",
             "grid.n_labels must be between 9 and 1000000"),
            ("run-lagrangian", "grid.n_x = 9223372036854775808",
             "grid.n_x must be between 16 and 1000000"),
            # the integer read from 1e300 is echoed as the float it came from
            ("run-qtm", "qtm.n_particles = 1e300",
             "qtm.n_particles must be between 9 and 1000000, got 1e+300\n"),
            # every particle fits its 9 nearest
            ("run-qtm", "qtm.n_particles = 8",
             "qtm.n_particles must be between 9 and 1000000, got 8\n"),
            # the auto time step underflows to 0
            ("run-lagrangian", "solver.cfl = 5e-324", "over the budget"),
            ("run-qtm", "qtm.span = 1e-300", "over the budget"),
            # 128 points about 8e15 apart: the packet is narrower than a cell
            ("run-lagrangian", "grid.x_max = 1e18",
             "state.sigma0 must be >= the x spacing"),
        ]])
    def test_extreme_size_or_step_exits_2(self, tmp_path, capsys, command, line,
                                          fragment):
        key, value = line.split(" = ")
        cfg = _write_config(tmp_path / "extreme.cfg", {**CHEAP_RUN, key: value})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    def test_fast_boosted_packet_runs(self, tmp_path, capsys):
        # the packet leaves its starting point (x = 0) far behind: nothing
        # in the phase check is tied to a fixed place
        cfg = _write_config(tmp_path / "boost.cfg", {
            **CHEAP_RUN, "state.boost_k": "10", "solver.t_final": "1.0"})
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-lagrangian", "run-qtm"])
    def test_step_budget_exits_2(self, tmp_path, capsys, command):
        # the auto steps are ~1e-154 (solver) and ~1e-153 (qtm)
        cfg = tmp_path / "hbar.cfg"
        cfg.write_text("physics.hbar = 1e150\n")
        t0 = time.perf_counter()
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert time.perf_counter() - t0 < 10
        err = capsys.readouterr().err
        assert "over the budget of 10000000 steps" in err
        assert "Traceback" not in err

    def test_numerical_abort_exits_3(self, tmp_path):
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text("grid.n_labels = 201\nsolver.dt = 3.0\n"
                       "solver.t_final = 40\nsolver.snapshot_stride = 1\n"
                       "solver.projection_degree = 24\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3

    @pytest.mark.parametrize("command,span,code,fragment", [
        # V = -50 x pushes the packet right, out of the [-7, 7] table
        pytest.param("run-lagrangian", 6, 3,
                     "numerical abort: label index 100 left the tabulated "
                     "potential grid in the step from t = 0.19", id="lagrangian"),
        pytest.param("run-qtm", 6, 3,
                     "numerical abort: particle 50 left the tabulated "
                     "potential grid in the step from t = 0.26", id="qtm"),
        # labels outside the table from the start are bad input
        pytest.param("run-lagrangian", 8, 2,
                     "x[0] = -8 outside the tabulated potential grid [-7, 7]",
                     id="outside-at-t0"),
    ])
    def test_leaving_the_potential_table(self, tmp_path, capsys, command, span,
                                         code, fragment):
        table = tmp_path / "slope.csv"
        table.write_text("\n".join(f"{x},{-50.0 * x}"
                                   for x in np.linspace(-7, 7, 141)))
        cfg = tmp_path / "slope.cfg"
        cfg.write_text(f"physics.potential = tabulated\n"
                       f"physics.potential_file = {table}\n"
                       f"grid.label_min = {-span}\ngrid.label_max = {span}\n"
                       f"grid.n_labels = 101\nsolver.t_final = 0.5\n"
                       f"qtm.n_particles = 51\nqtm.t_final = 0.5\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == code
        assert fragment in capsys.readouterr().err

    def test_particle_crossing_in_a_stage_names_the_step(self, tmp_path, capsys):
        # a step of 0.004 = 1.6 dx^2, above the particle step limit of about
        # 1.06 dx^2, folds the particles inside an RK4 stage, whose ordering
        # check knows no time of its own
        cfg = _write_config(tmp_path / "long_step.cfg", {"qtm.dt": "0.004"})
        assert main(["run-qtm", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert ("numerical abort: trajectory crossing at label index 2, "
                "t = 0.064 (particle ordering lost in a stage of the step "
                "from t = 0.064 to 0.068)") in err
        assert "nan" not in err
        assert "Traceback" not in err

    def test_particles_in_the_harmonic_trap_cross(self, tmp_path, capsys):
        # the default particle run under the harmonic potential folds in a
        # stage 872 steps in: the trap contracts every gap, below 0.69 dx by
        # t = 1, so the step of 0.5 dx^2, taken from the seeded spacing, is
        # above the limit of about 1.06 (current gap)^2 (ROADMAP item 20);
        # pins the branch of the particle right-hand side that subtracts V,
        # end to end
        cfg = _write_config(tmp_path / "harmonic.cfg",
                            {"physics.potential": "harmonic"})
        assert main(["run-qtm", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert ("numerical abort: trajectory crossing at label index 199, "
                "t = 1.09 (particle ordering lost in a stage of the step "
                "from t = 1.09 to 1.09125)") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("table", [
        pytest.param(None, id="missing"),
        # numpy scalar reprs, as printing an array's elements writes them
        pytest.param("\n".join(f"{x!r},{-x * x!r}" for x in
                               np.linspace(-40.0, 40.0, 81)), id="reprs"),
    ])
    def test_unreadable_potential_file_exits_2(self, tmp_path, capsys, table):
        path = tmp_path / "potential.csv"
        if table is not None:
            assert table.startswith("np.float64(-40.0),")
            path.write_text(table)
        cfg = tmp_path / "bad_table.cfg"
        cfg.write_text(f"physics.potential = tabulated\n"
                       f"physics.potential_file = {path}\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"cannot read physics.potential_file '{path}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,line,fragment", [
        pytest.param(command, line, fragment, id=f"{command}-{line}")
        for command, line, fragment in [
            ("tensor-check", "run.seed = -1", "run.seed must be >= 0, got -1"),
            # fewer than one output time used to run as two
            ("run-lagrangian", "output.field_times = 0",
             "output.field_times must be >= 1, got 0"),
            ("run-reference", "output.field_times = -1",
             "output.field_times must be >= 1, got -1"),
            ("run-lagrangian", "solver.cfl = 0",
             "solver.cfl must be positive, got 0.0"),
            ("run-lagrangian", "solver.cfl = -1",
             "solver.cfl must be positive, got -1.0"),
            # three keys share the name snapshot_stride
            ("run-lagrangian", "solver.snapshot_stride = 0",
             "solver.snapshot_stride must be >= 1, got 0"),
            ("run-reference", "reference.snapshot_stride = 0",
             "reference.snapshot_stride must be >= 1, got 0"),
            ("run-qtm", "qtm.snapshot_stride = 0",
             "qtm.snapshot_stride must be >= 1, got 0"),
            ("run-lagrangian", "solver.projection_degree = 0",
             "solver.projection_degree must be >= 1, got 0"),
            ("run-reference", "reference.dt = -1",
             "reference.dt must be positive, got -1.0"),
            ("run-reference", "reference.t_final = 0",
             "reference.t_final must be positive, got 0.0"),
        ]])
    def test_bad_setting_names_its_key(self, tmp_path, capsys, command, line,
                                       fragment):
        key, value = line.split(" = ")
        cfg = _write_config(tmp_path / "bad.cfg", {**CHEAP_RUN, key: value})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1e-300", "5e-324", "1e300"])
    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference",
                                         "run-qtm"])
    def test_sigma0_without_a_square_exits_2(self, tmp_path, capsys, command,
                                             value):
        # 1e-300 squares to 0, which the Gaussian forms divide by
        cfg = _write_config(tmp_path / "bad.cfg",
                            {**CHEAP_RUN, "state.sigma0": value})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert (f"state.sigma0 must be positive, with a square neither 0 nor "
                f"infinite, got {float(value)!r}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        assert main(["tensor-check", "--seed", "-1",
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "run.seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference",
                                         "run-qtm", "compare",
                                         "gaussian-accept"])
    def test_seed_option_only_on_tensor_check(self, tmp_path, capsys, command):
        # the other commands read no seed: --seed is an unknown flag there
        args = ["a", "b"] if command == "compare" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["tensor-check", "run-lagrangian"])
    def test_closed_stdout_finishes_the_run(self, tmp_path, command):
        # stdout on a pipe whose reader has gone (as under `| head -0`): the
        # run writes the files of a normal run and exits with its own code
        argv = [command]
        if command == "run-lagrangian":
            argv += ["--config", str(_write_config(tmp_path / "cheap.cfg",
                                                   CHEAP_RUN))]
        normal, piped = tmp_path / "normal", tmp_path / "piped"
        assert main(argv + ["--out", str(normal), "--quiet"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qflow.cli", *argv, "--out", str(piped)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        names = sorted(f.name for f in normal.iterdir())
        assert sorted(f.name for f in piped.iterdir()) == names
        for name in names:
            assert (piped / name).read_bytes() == (normal / name).read_bytes()

    @pytest.mark.parametrize("argv, code", [
        (["tensor-check", "--seed", "-1"], 2),
        (["run-qtm", "--config", "long_step.cfg"], 3)],
        ids=["tensor-check", "run-qtm"])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, argv, code):
        # stderr on a pipe whose reader has gone: the error line is lost, the
        # exit code is not
        _write_config(tmp_path / "long_step.cfg", {"qtm.dt": "0.004"})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qflow.cli", *argv,
                 "--out", str(tmp_path / "o")],
                stdout=subprocess.PIPE, stderr=write_end, env=env,
                cwd=tmp_path, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stdout == b""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference"])
    def test_more_field_times_than_snapshots(self, tmp_path, command):
        # every snapshot, without a grid of 1e18 candidate times
        cfg = _write_config(tmp_path / "many.cfg", {
            **CHEAP_RUN, "output.field_times": "1e18", "solver.dt": "2e-3",
            "reference.dt": "2e-3", "solver.snapshot_stride": "1",
            "reference.snapshot_stride": "1"})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["times"]) > 3
        assert summary["field_times"] == summary["times"]

    def test_tensor_check_reports_all_draws(self, tmp_path, capsys):
        out = tmp_path / "tensor"
        code = main(["tensor-check", "--out", str(out), "--seed", "0"])
        assert code == 0
        assert "100/100" in capsys.readouterr().out
        report = json.loads((out / "tensor_check.json").read_text())
        assert report["passed"] is True
        assert report["seed"] == 0

    def test_tensor_check_failing_draw_named(self, tmp_path, capsys, monkeypatch):
        # one draw over the bound: the line gives the worst ratio and FAIL,
        # not a count of zero passing draws
        report = tensor_check(0)
        report.update(cofactor_identity_rel_max=3e-12, passed=False)
        monkeypatch.setattr(qflow.cli, "tensor_check", lambda **kw: report)
        out = tmp_path / "tensor"
        assert main(["tensor-check", "--out", str(out), "--seed", "0"]) == 1
        printed = capsys.readouterr().out
        assert ("cofactor identity: max rel 3.00e-12 over 100 draws (<= 1e-12) "
                "FAIL, at least 1/100 draws over\n") in printed
        assert "0/100" not in printed
        written = json.loads((out / "tensor_check.json").read_text())
        assert sorted(written) == sorted(list(report) + ["schema", "seed"])

    def test_quiet_acceptance_prints_only_the_criteria(self, tmp_path, capsys,
                                                       monkeypatch):
        checks = [Check.le(1, "first", 0.5, 1.0), Check.ge(2, "second", 0.5, 1.0)]
        monkeypatch.setattr(qflow.cli, "gaussian_accept",
                            lambda settings: (checks, {}))
        out = tmp_path / "accept"
        assert main(["gaussian-accept", "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().out == (
            "criterion  1 first: 5.000e-01 (<= 1.0e+00) PASS\n"
            "criterion  2 second: 5.000e-01 (>= 1.0e+00) FAIL\n")
        written = json.loads((out / "acceptance.json").read_text())
        assert written["checks"][1] == {
            "criterion": 2, "name": "second", "value": 0.5, "tolerance": 1.0,
            "op": ">=", "passed": False}
        assert list(written) == ["schema", "checks", "details", "passed"]

    def test_config_byte_order_mark_ignored(self, tmp_path):
        # as some editors save UTF-8: the mark must not join the first key
        text = "".join(f"{k} = {v}\n" for k, v in CHEAP_RUN.items())
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for cfg in (plain, marked):
            assert main(["run-lagrangian", "--config", str(cfg), "--out",
                         str(tmp_path / cfg.stem), "--quiet"]) == 0
        assert ((tmp_path / "marked" / "summary.json").read_bytes()
                == (tmp_path / "plain" / "summary.json").read_bytes())


# the numeric keys (the named choices only ever exit 2 on a number)
FUZZ_KEYS = sorted(k for k, v in resolve({}).items()
                   if k.split(".")[0] in ("physics", "grid", "solver", "qtm")
                   and not isinstance(v, str))
# non-finite, overflowing, subnormal, signed-zero, 64-bit-edge and
# non-integral values
EXTREME_VALUES = ["nan", "inf", "-inf", "1e400", "-1e400",
                  "1.7976931348623157e308", "-1.7976931348623157e308",
                  "1e300", "-1e300", "1e150", "-1e150", "1e-150", "1e-300",
                  "5e-324", "-5e-324", "0", "-0.0", "-1", "2", "4.5", "1e18",
                  "-1e18", "9223372036854775808", "-9223372036854775809"]


class TestConfigFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(harmonic=st.booleans(),
           values=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                                  st.sampled_from(EXTREME_VALUES),
                                  min_size=1, max_size=2))
    def test_extreme_values_exit_cleanly(self, harmonic, values):
        command = ("run-qtm" if any(k.startswith("qtm.") for k in values)
                   else "run-lagrangian")
        lines = dict(CHEAP_RUN, **values)
        if harmonic:
            lines["physics.potential"] = "harmonic"
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _write_config(Path(tmp) / "fuzz.cfg", lines)
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg),
                             "--out", str(Path(tmp) / "o"), "--quiet"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


def _adjacent_floats(pred, a, b):
    """The two adjacent positive floats between ``a`` and ``b`` where the
    monotone ``pred`` turns from ``pred(a)`` to ``pred(b)`` (bisection on
    the bit patterns, which positive doubles order like their values)."""
    def as_float(n):
        return struct.unpack("<d", struct.pack("<q", n))[0]

    bits = [struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b)]
    while bits[1] - bits[0] > 1:
        mid = (bits[0] + bits[1]) // 2
        bits[pred(as_float(mid)) != pred(a)] = mid
    return tuple(as_float(n) for n in bits)


def _square_edges():
    """The smallest and the largest float whose square is neither 0 nor
    infinite, each paired with its neighbour outside."""
    below, lo = _adjacent_floats(lambda v: v * v > 0, 0.0, 1.0)
    hi, above = _adjacent_floats(lambda v: v * v == math.inf, 1.0,
                                 sys.float_info.max)
    return [(below, lo), (above, hi)]


def _at_least_edges(lo):
    return [(lo - 1, lo), (math.nextafter(lo, -math.inf), lo)]


def _grid_edges(lo):
    return [(lo - 1, lo), (MAX_GRID_POINTS + 1, MAX_GRID_POINTS)]


# (outside, inside) value pairs at each bound's edges, by requirement
BOUND_EDGES = {
    "must be positive": [(0.0, 5e-324)],
    POSITIVE_SQUARE[1]: _square_edges(),
    "must be >= 0": _at_least_edges(0),
    "must be >= 1": _at_least_edges(1),
    f"must be between 9 and {MAX_GRID_POINTS}": _grid_edges(9),
    f"must be between 16 and {MAX_GRID_POINTS}": _grid_edges(16),
}
NUMERIC_KEYS = [k for k, (_, default, _) in SCHEMA.items()
                if not isinstance(default, str)]
COMMON_VALUES = [0, -1, 5e-324, 1e-300, 1e300]


def _is_int_key(key):
    try:
        SCHEMA[key][0]("4.5")
    except ValueError:
        return True
    return False


def _fuzz_values(key):
    values = list(COMMON_VALUES)
    if _is_int_key(key):
        values.append(4.5)
    bound = SCHEMA[key][2]
    if bound is not None:
        for pair in BOUND_EDGES[bound[1]]:
            values.extend(pair)
    return values


def _set_up(settings):
    """Everything a run does before its first time step."""
    params = settings.physics()
    init = settings.initial_state(params)
    settings.x_grid()
    cfg = settings.solver_config()
    plan_steps(cfg.t_final, cfg.auto_dt(grid_spacing(init.labels), params))
    labels = settings.qtm_labels()
    seeded = _truncated_gaussian_state(settings["state.sigma0"], params, labels,
                                       boost_k=settings["state.boost_k"])
    qcfg = settings.qtm_config()
    # the particle solver seeds only a strictly positive density
    if np.all(seeded.rho0 > 0):
        plan_steps(qcfg.t_final,
                   qcfg.auto_dt(float(np.min(np.diff(labels))), params))
    dt, t_final, _ = settings.reference_controls()
    plan_steps(t_final, dt)


class TestSchemaBounds:
    def test_every_bound_has_edges(self):
        for key, (_, _, bound) in SCHEMA.items():
            if bound is None:
                continue
            ok, requirement = bound
            assert requirement in BOUND_EDGES, key
            for outside, inside in BOUND_EDGES[requirement]:
                assert not ok(outside) and ok(inside), (key, outside, inside)

    def test_defaults_pass_every_bound(self):
        _set_up(Settings.defaults())

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_set_up_fails_only_by_naming_the_key(self, key):
        bound = SCHEMA[key][2]
        for value in _fuzz_values(key):
            rejected = ((_is_int_key(key) and value != int(value))
                        or (bound is not None and not bound[0](value)))
            try:
                # extreme values over- and underflow on the way to the
                # ValidationError; numpy warns, and nothing else may raise
                with np.errstate(all="ignore"):
                    _set_up(Settings(resolve({key: repr(value)})))
            except ConfigError as exc:
                assert key in str(exc) or not rejected, (value, str(exc))
            except ValidationError as exc:
                assert not rejected, (value, str(exc))

    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference",
                                         "compare", "tensor-check"])
    def test_out_of_bound_value_exits_2_from_every_command(self, tmp_path,
                                                           capsys, command):
        cfg = _write_config(tmp_path / "bad.cfg", {"qtm.span": "0"})
        args = ["a", "b"] if command == "compare" else []
        assert main([command, *args, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "qtm.span must be positive, got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # sigma0 = 0.03 is narrower than the label spacing 0.04, wider than the
    # x spacing 0.023
    @pytest.mark.parametrize("line", ["state.sigma0 = 2", "state.sigma0 = 0.03",
                                      "grid.n_labels = 9", "grid.n_labels = 10"])
    def test_unnormalizable_gaussian_names_its_keys(self, tmp_path, capsys, line):
        key, value = line.split(" = ")
        cfg = _write_config(tmp_path / "bad.cfg", {key: value})
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        for name in ("state.sigma0", "grid.label_min", "grid.label_max",
                     "grid.n_labels"):
            assert name in err
        assert f"{key} = {SCHEMA[key][0](value)!r}" in err
        assert "not normalized" in err
        # the trapezoid is printed as a plain float, not a numpy repr
        assert re.search(r"trapezoid = \d\.\d+(e[+-]\d+)? \(tolerance", err)

    @pytest.mark.parametrize("value", ["1e-150", "1e-8", "0.02"])
    @pytest.mark.parametrize("command", ["run-lagrangian", "run-reference",
                                         "run-qtm"])
    def test_sigma0_narrower_than_an_x_cell_exits_2(self, tmp_path, capsys,
                                                     command, value):
        # the default x spacing is 24 / 1024 = 0.0234375
        cfg = _write_config(tmp_path / "bad.cfg", {"state.sigma0": value})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert ("state.sigma0 must be >= the x spacing (grid.x_max - "
                f"grid.x_min) / grid.n_x = 0.0234375, got {float(value)!r}"
                in err)
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_readme_table_matches_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Configuration")[1]
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in section.split("###")[0].splitlines()
                if line.startswith("| `")]
        assert [row[0] for row in rows] == list(SCHEMA)
        for key, default, bound, _ in rows:
            _, expected, rule = SCHEMA[key]
            assert default == ("auto" if expected is None else str(expected)), key
            if rule is not None:
                assert bound.startswith(rule[1].removeprefix("must be ")), key

    def test_readme_commands_match_parser(self):
        # the command block names each command once, and the common-flags
        # line the options every command takes
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line")[1].split("```")[1]
        names = [line.split()[1] for line in block.splitlines() if line]
        commands = next(a for a in qflow.cli._build_parser()._actions
                        if a.choices).choices
        assert names == list(commands)
        shared = set.intersection(*(
            {o for a in c._actions for o in a.option_strings}
            for c in commands.values())) - {"-h", "--help"}
        line = next(line for line in readme.splitlines()
                    if line.startswith("Common flags:"))
        flags = [flag.split()[0] for flag in re.findall(r"`([^`]+)`", line)]
        assert sorted(flags) == sorted(shared)

    def test_settings_are_read_only(self):
        settings = Settings.defaults()
        with pytest.raises(TypeError):
            settings.values["run.seed"] = 1


def test_node_in_reference_exits_3(tmp_path, capsys, monkeypatch):
    def node(*args, **kwargs):
        raise NodeEncountered(7, 0.0, 1e-300)

    monkeypatch.setattr("qflow.pipeline.reference_fields", node)
    cfg = _write_config(tmp_path / "cheap.cfg", CHEAP_RUN)
    assert main(["run-reference", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "numerical abort: |psi| = 0.000e+00 at grid index 7" in err
    assert "Traceback" not in err
