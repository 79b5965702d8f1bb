"""Exception types shared across the engine."""


class FormatError(ValueError):
    """Malformed input data: bad instance file, oversized edge, bad header."""


class UnsupportedParameterError(ValueError):
    """Parameter outside the supported range (the engine requires d >= 3)."""


class OracleCeilingError(RuntimeError):
    """The exact oracle was asked to decide an instance above its size ceiling."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, never a user error."""


class InvalidCrownError(ValueError):
    """A crown decomposition failed validation; carries the detailed verdict."""

    def __init__(self, verdict):
        super().__init__(f"invalid crown decomposition: {verdict.problems}")
        self.verdict = verdict
