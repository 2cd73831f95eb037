import numpy as np
import pytest

from qflow.model import EulerianField, assemble_wavefunction


def _complete_field(x, t, rho, S=None, v=None):
    """A complete EulerianField (hbar = 1) from rho and, where given, S and
    v (zero otherwise); psi is assembled from (rho, S)."""
    S = np.zeros_like(x) if S is None else S
    v = np.zeros_like(x) if v is None else v
    return EulerianField(x=x, t=t, rho=rho, S=S, v=v,
                         psi=assemble_wavefunction(rho, S, 1.0))


@pytest.fixture
def make_field():
    """Factory for complete fields, for tests that set only some members."""
    return _complete_field
