"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: configuration and input
problems exit 1, infeasible certificates exit 2, solver divergence
exits 3, bound violations exit 4.
"""


class TopologyError(ValueError):
    """Adjacency/leader-link data violates a construction rule."""


class ConfigError(ValueError):
    """Malformed experiment configuration or data file."""


class CertificateError(ValueError):
    """Certificate cannot be produced (infeasible gains or topology)."""


class DivergenceError(RuntimeError):
    """Simulation produced non-finite or absurdly large field values."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
