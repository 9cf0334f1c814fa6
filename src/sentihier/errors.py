"""Exception hierarchy shared by all sentihier modules: one class per exit
code of the command-line driver."""


class SentihierError(Exception):
    """Base class for all errors raised by this package; a runtime failure
    (exit code 4) unless it is one of the subclasses below."""


class ConfigurationError(SentihierError):
    """Invalid configuration or unusable input data (exit code 2)."""


class ParseError(SentihierError):
    """A file (embeddings, CSV, checkpoint) could not be parsed (exit code 3)."""
