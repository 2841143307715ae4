"""The binary container behind the GRU weight file (:mod:`wakespot.label_model`).

Little-endian: 4 magic bytes, a u32 version, N u32 header fields (N fixed
by the format), then the format's parts in order. A part is a float32
row-major matrix whose shape the fields imply, or an alphabet: a u32
count, then per label a u32 byte length and the UTF-8 bytes. Nothing
follows the last part. A :class:`Reader` reads the file once and checks
every size the file claims against the bytes left before it slices.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DimensionError, FileFormatError, UnknownVersionError

_U32 = struct.Struct("<I")


def write(path, magic: bytes, version: int, fields, parts) -> None:
    """Write a container; each part is an array (stored as float32) or a tuple of labels."""
    chunks = [magic, struct.pack(f"<{1 + len(fields)}I", version, *fields)]
    for part in parts:
        if isinstance(part, tuple):
            chunks.append(_U32.pack(len(part)))
            for label in part:
                raw = label.encode("utf-8")
                chunks += [_U32.pack(len(raw)), raw]
        else:
            chunks.append(np.ascontiguousarray(part, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class Reader:
    """Reads a container's parts in order. A short header, another magic or
    another version raise :class:`UnknownVersionError`; a part that runs
    past the end, or bytes after the last part, :class:`DimensionError`."""

    def __init__(self, path, magic: bytes, version: int, num_fields: int, what: str):
        self.path = path
        with open(path, "rb") as fh:
            self._data = fh.read()
        header = struct.Struct(f"<4s{1 + num_fields}I")
        if len(self._data) < header.size:
            raise UnknownVersionError(f"{path}: truncated {what} header")
        found, found_version, *fields = header.unpack_from(self._data)
        if found != magic:
            raise UnknownVersionError(f"{path}: not a {what} file (magic {found!r})")
        if found_version != version:
            raise UnknownVersionError(f"{path}: unsupported {what} version {found_version}")
        self.fields = tuple(fields)
        self._pos = header.size

    def _take(self, size: int) -> bytes:
        left = len(self._data) - self._pos
        if size > left:
            raise DimensionError(f"{self.path}: truncated file ({size} bytes claimed, {left} left)")
        self._pos += size
        return self._data[self._pos - size : self._pos]

    def matrix(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next part as a float64 array of ``shape``."""
        raw = self._take(4 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)

    def labels(self) -> tuple[str, ...]:
        """The next part as an alphabet's labels; non-UTF-8 bytes raise :class:`FileFormatError`."""
        (count,) = _U32.unpack(self._take(4))
        labels = []
        for _ in range(count):
            (size,) = _U32.unpack(self._take(4))
            try:
                labels.append(self._take(size).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"{self.path}: label is not UTF-8 ({exc})") from None
        return tuple(labels)

    def end(self) -> None:
        """Check that the parts taken so far fill the file exactly."""
        if self._pos != len(self._data):
            raise DimensionError(f"{self.path}: trailing bytes after the last part")
