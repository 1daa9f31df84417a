"""Bit-exact PGM (P5) / PPM (P6) reading and writing."""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass


class BadMagic(ValueError):
    pass


class BadHeader(ValueError):
    pass


class MaxvalUnsupported(ValueError):
    pass


class ShortData(ValueError):
    pass


@dataclass
class ImageGrid:
    """Row-major, channel-interleaved 8-bit image."""

    width: int
    height: int
    channels: int  # 1 = gray, 3 = RGB
    data: bytearray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if len(self.data) != self.width * self.height * self.channels:
            raise ValueError("data length does not match shape")

    @classmethod
    def blank(cls, width: int, height: int, channels: int) -> "ImageGrid":
        size = width * height * channels
        shape = f"{width}x{height}x{channels} image"
        if size > sys.maxsize:
            raise ValueError(f"a {shape} needs {size} bytes, more than {sys.maxsize}")
        try:
            data = bytearray(size)
        except MemoryError:
            raise MemoryError(f"no memory for the {size} bytes of a {shape}") from None
        return cls(width, height, channels, data)

    @property
    def steps(self) -> int:
        return self.width * self.height * self.channels


# The header after the magic is width, height and maxval, each after a run of gaps, then
# one gap before the raster. A gap is one whitespace byte, or a '#' comment with the
# newline that ends it, so a comment may end the header.
_GAP = rb"(?:\s|#[^\n]*\n)"
_HEADER = re.compile((_GAP + rb"+(\d+)") * 3 + _GAP)


def read_bytes(source) -> bytes:
    """All bytes of `source`: bytes, a binary file object, or a path."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as f:
        return f.read()


def write_bytes(blob: bytes, sink) -> bytes:
    """Write `blob` to a binary file object or a path (None: nowhere); returns it."""
    if hasattr(sink, "write"):
        sink.write(blob)
    elif sink is not None:
        with open(sink, "wb") as f:
            f.write(blob)
    return blob


def read_image(source) -> ImageGrid:
    """Parse a binary PGM/PPM from bytes, a path, or a binary file object."""
    buf = read_bytes(source)
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise BadMagic(f"not a binary PGM/PPM: {magic!r}" if buf else "empty input")
    header = _HEADER.match(buf, len(magic))
    if header is None:
        raise BadHeader("expected width, height, maxval")
    width, height, maxval = map(int, header.groups())
    if width <= 0 or height <= 0:
        raise BadHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MaxvalUnsupported(f"maxval {maxval} (only 255 supported)")
    channels = 1 if magic == b"P5" else 3
    start, need = header.end(), width * height * channels
    if len(buf) - start < need:
        raise ShortData(f"need {need} raster bytes, have {len(buf) - start}")
    return ImageGrid(width, height, channels, bytearray(buf[start : start + need]))


def write_image(grid: ImageGrid, sink=None) -> bytes:
    """Emit the canonical header + raw raster; returns the bytes either way."""
    magic = b"P5" if grid.channels == 1 else b"P6"
    out = magic + b"\n%d %d\n255\n" % (grid.width, grid.height) + bytes(grid.data)
    return write_bytes(out, sink)
