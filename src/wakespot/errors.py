"""Exception types shared across the package."""


class WakespotError(Exception):
    """Base class for package-specific errors."""


class AudioError(WakespotError):
    """Unusable audio input: wrong container, wrong rate, or too short."""


class FileFormatError(WakespotError):
    """A file could not be read back; the message starts with its path."""

