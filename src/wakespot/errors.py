"""Exception types shared across the package."""


class WakespotError(Exception):
    """Base class for package-specific errors."""


class AudioError(WakespotError):
    """Unusable audio input: wrong container, wrong rate, or too short."""


class FileFormatError(WakespotError):
    """A serialized artifact could not be parsed or failed validation."""


class UnknownVersionError(FileFormatError):
    """Unrecognized magic bytes or unsupported file version."""


class DimensionError(FileFormatError):
    """Stored shapes are inconsistent with the header or the alphabet."""


class NonFiniteError(FileFormatError):
    """Stored values contain NaNs or infinities."""
