"""The package's two exception types. A value that the type built from it
refuses raises ``ValueError`` instead."""


class WakespotError(Exception):
    """Base class for package-specific errors."""


class FileFormatError(WakespotError):
    """A WAV, weight, model or manifest file could not be read; the message
    starts with its path."""
