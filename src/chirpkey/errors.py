"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates an operation's stated preconditions."""


class PreambleNotFoundError(RuntimeError):
    """No correlation peak above the detection threshold in a capture."""


class CaptureFormatError(ValueError):
    """A capture file does not parse as interleaved little-endian float32 I/Q."""


class ReconciliationError(RuntimeError):
    """Parity answers that no key could give: reconciliation cannot end."""
