"""Exception types shared across the toolkit."""


class MeimError(Exception):
    """Base of every toolkit error; each subclass also keeps its builtin base."""


class ShapeError(MeimError, ValueError):
    """Operands have incompatible shapes; the message names the offending axis."""


class ValidationError(MeimError, ValueError):
    """Numerical input violates a contract (e.g. a target row does not sum to one)."""


class ConfigError(MeimError, ValueError):
    """Inconsistent model or run configuration."""


class IdLookupError(MeimError, LookupError):
    """Entity or relation id outside the vocabulary range."""


class ParseError(MeimError, ValueError):
    """Malformed dataset line; the message carries file name and line number."""


class CheckpointError(MeimError, RuntimeError):
    """Corrupt, truncated, or version-incompatible checkpoint/cache payload."""


class EvaluationError(MeimError, RuntimeError):
    """Evaluation cannot proceed (e.g. NaN scores)."""


class DivergenceError(MeimError, RuntimeError):
    """Training produced a non-finite loss; the message names the batch."""
