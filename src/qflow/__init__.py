"""Quantum evolution computed from fluid trajectories.

A Lagrangian quantum-hydrodynamics toolkit: integrate the trajectory
continuum of a single quantum particle, rebuild the time-dependent
wavefunction purely from the paths, and cross-validate against an
independent spectral wave solver and closed-form benchmarks.
"""

import os as _os

# QFLOW_THREADS caps the numerical backends' thread pools; it must be
# applied before the numeric libraries initialize, hence here.
_cap = _os.environ.get("QFLOW_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .benchmarks import (Norms, error_norms, gaussian_alpha,
                         gaussian_scale_factor, gaussian_trajectory,
                         gaussian_wavefunction)
from .config import ConfigError, Settings
from .errors import (NodeEncountered, NumericalInstability,
                     PhaseInconsistencyWarning, QflowError, QtmDerivativeError,
                     TrajectoryCrossing, ValidationError, WrapAroundRiskWarning)
from .kinematics import (cofactor_matrix, hyper_cofactor, internal_energy,
                         jacobian, levi_civita, quantum_potential,
                         stress_eulerian, stress_lagrangian)
from .lagrangian import (ModeProjector, SolverConfig, acceleration_direct,
                         acceleration_newton, energy_of, evolve,
                         initial_velocity)
from .model import (AnalyticForms, EulerianField, FreePotential,
                    HarmonicPotential, InitialState, PhysicsParams,
                    TabulatedPotential, TrajectoryState, assemble_wavefunction,
                    madelung_decompose, make_gaussian_state)
from .qtm import ParticleSet, QtmConfig, QtmResult, mwls_derivatives, qtm_evolve
from .reconstruction import (advect_labels_check, continuity_euler_residuals,
                             eulerian_moments, invert_map, lagrangian_moments,
                             phase_consistency_deviation, qhj_residual,
                             reconstruct_wavefunction)
from .spectral import (WaveSnapshot, energy_of as wave_energy_of, norm_of,
                       reference_fields, split_step_evolve)

__version__ = "0.1.0"
