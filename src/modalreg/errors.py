"""Exception types shared across the toolkit."""


class ModeMismatchError(ValueError):
    """Two objects were combined whose mode ranges or periods differ."""


class SingularResolventError(ValueError):
    """Resolvent requested exactly at an eigenvalue."""

    def __init__(self, mode, eigenvalue):
        self.mode = mode
        self.eigenvalue = eigenvalue
        super().__init__(
            f"resolvent point coincides with eigenvalue {eigenvalue} at mode {mode}"
        )


class AssumptionFailure(RuntimeError):
    """A scenario violates one of the feedforward design assumptions."""


class ConfigError(ValueError):
    """Run configuration is missing, malformed, or inconsistent."""
