"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class GridMismatchError(ValueError):
    """Operands were built on different time grids or path sets."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed; carries diagnostics, never regularizes."""


class BlowupError(RuntimeError):
    """State integration exceeded the blow-up guard; identifies path and step."""

    def __init__(self, path_index: int, step: int, value: float):
        self.path_index = path_index
        self.step = step
        self.value = value
        super().__init__(
            f"state blow-up at path {path_index}, step {step}: "
            f"|X| = {abs(value):.3e}"
        )


class UnsupportedModelError(ValueError):
    """Operation requires structure (e.g. linear-in-state) the model lacks."""


class UnsupportedRegimeError(ValueError):
    """Operation invoked outside the implemented regime."""


class RegressionError(RuntimeError):
    """Cross-sectional regression failed; carries conditioning diagnostics."""
