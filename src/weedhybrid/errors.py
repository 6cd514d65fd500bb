"""Exception types shared across the package, and the one divergence rule."""

import contextlib


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class NumericError(ArithmeticError):
    """An operation produced NaN or infinity from finite inputs."""


class DivergenceError(RuntimeError):
    """A model forward or loss went non-finite; carries the offending component."""

    def __init__(self, component: str, detail: str = ""):
        self.component = component
        msg = f"{component} diverged: non-finite values"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@contextlib.contextmanager
def diverges_as(component: str):
    """Turn a NumericError inside the block into DivergenceError(component)."""
    try:
        yield
    except NumericError as exc:
        raise DivergenceError(component, detail=str(exc)) from exc


class FormatError(ValueError):
    """A serialized artifact (checkpoint, image file) is malformed."""


class DataError(ValueError):
    """A dataset input (manifest, config) failed validation; message carries line numbers."""
