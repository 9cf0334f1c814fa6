"""Exception hierarchy shared by all sentihier modules."""


class SentihierError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SentihierError):
    """Operands have incompatible dimensions."""


class ParseError(SentihierError):
    """A file (embeddings, CSV, checkpoint) could not be parsed."""


class ConfigurationError(SentihierError):
    """Invalid configuration or unusable input data."""


class ContractViolation(SentihierError):
    """A caller broke a documented precondition."""


class TrainingDivergedError(SentihierError):
    """Training produced a NaN or infinite loss."""


class CheckpointError(ParseError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ended early, or stores arrays its config does not ask for."""
