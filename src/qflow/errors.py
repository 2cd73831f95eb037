"""Exceptions and warnings shared across the solvers."""


class QflowError(Exception):
    """Base class for package errors."""


class ValidationError(QflowError, ValueError):
    """Bad inputs or configuration (caller error, exit code 2 in the CLI)."""


class OutsidePotentialTable(ValidationError):
    """A potential was evaluated outside its tabulated grid.

    ``index`` is the offending point's position in the evaluated array.  As
    bad input it exits 2; the solvers re-raise it as
    :class:`NumericalInstability` when a trajectory leaves the table after
    t = 0.
    """

    def __init__(self, index, x, lo, hi):
        self.index = int(index)
        super().__init__(
            f"evaluation point x[{index}] = {x:.6g} outside the tabulated "
            f"potential grid [{lo:.6g}, {hi:.6g}]")


class NodeEncountered(QflowError):
    """A wavefunction magnitude fell below the node floor.

    The hydrodynamic decomposition is only defined on nodeless states; the
    offending grid index is carried in ``index``.
    """

    def __init__(self, index, magnitude, floor):
        self.index = int(index)
        self.magnitude = float(magnitude)
        self.floor = float(floor)
        super().__init__(
            f"|psi| = {magnitude:.3e} at grid index {index} is at or below "
            f"the node floor {floor:.3e}; state is not nodeless"
        )


class TrajectoryCrossing(QflowError):
    """Two trajectories met (the flow map lost monotonicity)."""

    def __init__(self, index, time, detail=""):
        self.index = int(index)
        self.time = float(time)
        msg = f"trajectory crossing at label index {index}, t = {time:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NumericalInstability(QflowError):
    """The time integration left its stability envelope (exit code 3)."""


class WrapAroundRiskWarning(UserWarning):
    """Wavepacket density is approaching the periodic domain edge."""
