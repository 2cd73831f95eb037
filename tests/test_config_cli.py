import json

import numpy as np
import pytest

from qflow.cli import main
from qflow.config import ConfigError, Settings, parse_config_text, resolve
from qflow.output import (read_fields, read_trajectories, write_fields,
                          write_trajectories)

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
        ("solver.dt", "-inf"), ("reference.t_final", "nan"), ("qtm.degree", "inf")])
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
        assert vals["solver.acceleration_path"] == "direct"

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
    def test_trajectories(self, tmp_path):
        from qflow.model import TrajectoryState
        a = np.linspace(-1, 1, 9)
        snaps = [TrajectoryState(a, a * (1 + t), a * t, a * 0 + t, t)
                 for t in (0.0, 0.5)]
        path = tmp_path / "trajectories.csv"
        write_trajectories(path, snaps)
        back = read_trajectories(path)
        assert len(back) == 2
        assert np.array_equal(back[1].q, snaps[1].q)
        assert np.array_equal(back[1].chi, snaps[1].chi)

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

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text("nope\n")
        with pytest.raises(Exception, match="schema"):
            read_fields(path)


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
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run-lagrangian", "--config", str(small_config),
                     "--out", str(out_a), "--quiet"]) == 0
        assert main(["run-lagrangian", "--config", str(small_config),
                     "--out", str(out_b), "--quiet"]) == 0
        for name in ("trajectories.csv", "fields.csv", "summary.json"):
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

    def test_run_qtm(self, small_config, tmp_path):
        out = tmp_path / "qtm"
        assert main(["run-qtm", "--config", str(small_config),
                     "--out", str(out), "--quiet"]) == 0
        snaps = read_trajectories(out / "trajectories.csv")
        assert snaps[-1].t == pytest.approx(0.1)

    def test_invalid_dt_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("solver.dt = -1\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("solver.speed = 11\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "solver.speed" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["grid.n_labels = 1e400",
                                      "physics.omega = nan"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        # at sigma0 = 0.2 the analytic density underflows to 0 in the +-8
        # tails, so the log-density ratios there are 0/0
        cfg = tmp_path / "tails.cfg"
        cfg.write_text("state.sigma0 = 0.2\ngrid.n_labels = 101\n"
                       "solver.t_final = 0.01\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_numerical_abort_exits_3(self, tmp_path):
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text("grid.n_labels = 201\nsolver.dt = 3.0\n"
                       "solver.t_final = 40\nsolver.snapshot_stride = 1\n"
                       "solver.projection_degree = 24\n")
        assert main(["run-lagrangian", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 3

    def test_tensor_check_reports_all_draws(self, tmp_path, capsys):
        out = tmp_path / "tensor"
        code = main(["tensor-check", "--out", str(out), "--seed", "0"])
        assert code == 0
        assert "100/100" in capsys.readouterr().out
        report = json.loads((out / "tensor_check.json").read_text())
        assert report["passed"] is True
        assert report["seed"] == 0
