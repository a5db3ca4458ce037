"""Shared exception types."""


class InputError(ValueError):
    """Caller supplied an argument with a bad shape, type, or value."""


class ModelError(RuntimeError):
    """A drift model produced invalid (wrong-shape or non-finite) output."""


class UnsupportedError(ValueError):
    """Requested operation is outside the supported domain."""


class ConfigurationError(ValueError):
    """Invalid run configuration.  The CLI maps this to exit code 2."""


class DivergenceError(RuntimeError):
    """A chain left the numerically trusted region ``|x_i| <= 1e12``."""

    def __init__(self, message, chain=None, step=None, state=None, eta=None):
        super().__init__(message)
        self.chain = chain
        self.step = step
        self.state = state
        self.eta = eta
