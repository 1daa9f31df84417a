"""Bit-exact PGM (P5) / PPM (P6) reading and writing, plus raster traversal."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


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
        return cls(width, height, channels, bytearray(width * height * channels))

    @property
    def steps(self) -> int:
        return self.width * self.height * self.channels


class SequencePosition(NamedTuple):
    """One coding step: subpixel index plus its raster coordinates."""

    index: int
    row: int
    col: int
    channel: int


def sequence_positions(width: int, height: int, channels: int) -> Iterator[SequencePosition]:
    """Positions in coding order: row-major, channels interleaved per pixel."""
    i = 0
    for row in range(height):
        for col in range(width):
            for ch in range(channels):
                yield SequencePosition(i, row, col, ch)
                i += 1


def _tokens(buf: bytes) -> Iterator[tuple[bytes, int]]:
    """Header tokens with the offset just past each token; '#' starts a comment."""
    i = 0
    n = len(buf)
    while i < n:
        c = buf[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and not buf[j : j + 1].isspace() and buf[j : j + 1] != b"#":
                j += 1
            yield buf[i:j], j
            i = j


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
    toks = _tokens(buf)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise BadMagic("empty input") from None
    if magic not in (b"P5", b"P6"):
        raise BadMagic(f"not a binary PGM/PPM: {magic!r}")
    channels = 1 if magic == b"P5" else 3

    fields = []
    end = 0
    try:
        for _ in range(3):
            tok, end = next(toks)
            fields.append(int(tok))
    except (StopIteration, ValueError):
        raise BadHeader("expected width, height, maxval") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise BadHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MaxvalUnsupported(f"maxval {maxval} (only 255 supported)")

    # exactly one whitespace byte separates the header from the raster
    data = buf[end + 1 :]
    need = width * height * channels
    if len(data) < need:
        raise ShortData(f"need {need} raster bytes, have {len(data)}")
    return ImageGrid(width, height, channels, bytearray(data[:need]))


def write_image(grid: ImageGrid, sink=None) -> bytes:
    """Emit the canonical header + raw raster; returns the bytes either way."""
    magic = b"P5" if grid.channels == 1 else b"P6"
    out = magic + b"\n%d %d\n255\n" % (grid.width, grid.height) + bytes(grid.data)
    return write_bytes(out, sink)
