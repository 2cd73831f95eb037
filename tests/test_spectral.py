import numpy as np
import pytest

from qflow.benchmarks import error_norms, gaussian_wavefunction
from qflow.errors import NodeEncountered, ValidationError, WrapAroundRiskWarning
from qflow.model import (HarmonicPotential, PhysicsParams,
                         assemble_wavefunction)
from qflow.spectral import (energy_of, norm_of, reference_fields,
                            split_step_evolve)

PARAMS = PhysicsParams()
X = np.linspace(-12, 12, 1024, endpoint=False)
DX = X[1] - X[0]


def _gaussian_psi0(boost_k=0.0, sigma0=1.0, center=0.0):
    rho = (2 * np.pi * sigma0**2) ** -0.5 * np.exp(-(X - center) ** 2
                                                   / (2 * sigma0**2))
    psi = assemble_wavefunction(rho, PARAMS.hbar * boost_k * X, PARAMS.hbar)
    return psi / np.sqrt(norm_of(psi, DX))


@pytest.fixture(scope="module")
def free_run():
    return split_step_evolve(_gaussian_psi0(), X, PARAMS, dt=1e-3, t_final=2.0,
                             snapshot_stride=100)


class TestSplitStep:
    def test_density_spread_value(self, free_run):
        psi = free_run[-1].psi
        i0 = np.argmin(np.abs(X))
        assert abs(psi[i0]) ** 2 == pytest.approx(0.2820948, abs=1e-6)

    def test_norm_conserved(self, free_run):
        norms = [norm_of(w.psi, DX) for w in free_run]
        assert max(abs(n - 1.0) for n in norms) <= 1e-10

    def test_matches_closed_form(self, free_run):
        rho, S = gaussian_wavefunction(X, 2.0, 1.0, PARAMS)
        psi_exact = assemble_wavefunction(rho, S, 1.0)
        norms = error_norms(free_run[-1].psi, psi_exact, X)
        assert norms.phase_reduced_l2 <= 1e-6

    def test_plane_wave_dispersion(self):
        k = 2 * np.pi * 8 / 24.0
        psi0 = np.exp(1j * k * X) / np.sqrt(24.0)
        with pytest.warns(WrapAroundRiskWarning):
            waves = split_step_evolve(psi0, X, PARAMS, dt=1e-3, t_final=1.0,
                                      snapshot_stride=1000)
        expected = psi0 * np.exp(-1j * PARAMS.hbar * k**2 * 1.0 / (2 * PARAMS.mass))
        assert np.max(np.abs(waves[-1].psi - expected)) < 1e-10

    def test_energy_constant_in_harmonic_trap(self):
        params = PhysicsParams(potential=HarmonicPotential(omega=1.0))
        psi0 = _gaussian_psi0(center=1.0)
        waves = split_step_evolve(psi0, X, params, dt=5e-5, t_final=0.5,
                                  snapshot_stride=2000)
        energies = [energy_of(w.psi, X, params) for w in waves]
        drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
        assert drift <= 1e-8

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            split_step_evolve(2.0 * _gaussian_psi0(), X, PARAMS, 1e-3, 0.1)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValidationError):
            split_step_evolve(_gaussian_psi0(), X, PARAMS, -1e-3, 0.1)

    def test_step_budget(self):
        with pytest.raises(ValidationError, match="over the budget"):
            split_step_evolve(_gaussian_psi0(), X, PARAMS, 1e-300, 0.1)


class TestReferenceFields:
    def test_phase_difference_across_spread(self, free_run):
        field = reference_fields(free_run[-1], X, PARAMS)
        i0 = np.argmin(np.abs(X))
        i1 = np.argmin(np.abs(X - 1.0))
        # quadratic phase coefficient grows linearly in time: at t=2 it is
        # m*alpha*t*sigma0^2/(2 sigma^2) = 1/8, so S(1) - S(0) = 1/8
        expected = 0.125 * X[i1] ** 2
        assert field.S[i1] - field.S[i0] == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(0.125, abs=2e-3)

    def test_phase_pinned_and_valued(self, free_run):
        field = reference_fields(free_run[-1], X, PARAMS)
        i0 = np.argmin(np.abs(X))
        assert -np.pi < field.S[i0] <= np.pi
        assert field.S[i0] == pytest.approx(-np.arctan(1.0) / 2, abs=1e-6)

    def test_velocity_at_rest(self):
        waves = split_step_evolve(_gaussian_psi0(), X, PARAMS, 1e-3, 1e-3)
        field = reference_fields(waves[0], X, PARAMS)
        assert np.max(np.abs(field.v[field.mask])) < 1e-9

    def test_boosted_velocity_uniform(self):
        waves = split_step_evolve(_gaussian_psi0(boost_k=1.0), X, PARAMS,
                                  1e-3, 1e-3)
        field = reference_fields(waves[0], X, PARAMS)
        m = field.mask
        assert field.v[m] == pytest.approx(np.ones(m.sum()), abs=1e-6)

    def test_far_tails_masked(self, free_run):
        field = reference_fields(free_run[0], X, PARAMS)
        assert not field.mask[0] and not field.mask[-1]
        assert field.mask[np.argmin(np.abs(X))]

    def test_interior_node_raises(self):
        psi = X * np.exp(-X**2 / 4)  # odd state: node at the origin
        psi = psi.astype(complex) / np.sqrt(norm_of(psi, DX))
        snap = split_step_evolve(psi, X, PARAMS, 1e-3, 1e-3)[0]
        with pytest.raises(NodeEncountered):
            reference_fields(snap, X, PARAMS)
