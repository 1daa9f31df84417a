"""Bit-level message handling: windowed access, framing, deterministic padding."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

HEADER_BITS = 32

_M64 = (1 << 64) - 1


class OversizePayload(ValueError):
    """Payload bit count does not fit in the 32-bit length header."""


class TruncatedStream(ValueError):
    """Recovered bit sequence ends before the framed payload does."""


def _pad_word(seed: int, block: int) -> int:
    # splitmix64-style mixer: random-access 64-bit padding blocks per seed
    x = (seed + (block + 1) * 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class BitString:
    """MSB-first bit sequence: whole bytes in `data`, the last `length % 8` bits pending.

    `append` keeps at most 7 bits in an accumulator and moves every byte they
    complete to `data`, so its cost does not grow with the length.
    """

    __slots__ = ("data", "length", "_acc")

    def __init__(self, data: bytes = b"", length: int | None = None):
        """The first `length` bits of `data` (all of them by default)."""
        nbits = 8 * len(data) if length is None else length
        if not 0 <= nbits <= 8 * len(data):
            raise ValueError(f"{nbits} bits do not fit {len(data)} bytes")
        whole, rest = divmod(nbits, 8)
        self.data = bytearray(data[:whole])
        self.length = nbits
        self._acc = data[whole] >> (8 - rest) if rest else 0

    def append(self, bits: int, width: int) -> None:
        """Append the low `width` bits of `bits`, MSB-first."""
        n = (self.length & 7) + width
        acc = (self._acc << width) | (bits & ((1 << width) - 1))
        self.length += width
        if n >= 8:
            rest = n & 7
            self.data += (acc >> rest).to_bytes(n >> 3, "big")
            acc &= (1 << rest) - 1
        self._acc = acc

    def to_bytes(self, fill: bool = False) -> bytes:
        """The whole bytes; a trailing partial byte is dropped, or zero-filled if `fill`."""
        if fill and self.length & 7:
            return bytes(self.data) + bytes([self._acc << (8 - (self.length & 7))])
        return bytes(self.data)


@dataclass
class BitStream:
    """Message bits with a confirmed-consumption pointer and seeded padding.

    Reads past the payload end draw deterministic pseudo-random bits from
    pad_seed, so the same (payload, seed) always yields the same windows.
    The payload is copied once, when the stream is made, into a buffer that
    the padding words then extend, 64 bits at a time, as reads reach them.
    """

    payload: BitString = field(default_factory=BitString)
    pad_seed: int | None = None
    confirmed_ptr: int = 0

    def __post_init__(self):
        if self.pad_seed is None:
            self.pad_seed = int.from_bytes(os.urandom(8), "big")
        self._buf = BitString(self.payload.to_bytes(fill=True), self.payload.length)
        self._pad_blocks = 0

    def window(self, offset: int, width: int) -> int:
        """The `width` bits at `offset`, MSB-first, padded past the payload end."""
        end = offset + width
        buf = self._buf
        while len(buf.data) << 3 < end:  # windows read whole bytes: pending bits wait
            buf.append(_pad_word(self.pad_seed, self._pad_blocks), 64)
            self._pad_blocks += 1
        stop = (end + 7) >> 3
        word = int.from_bytes(buf.data[offset >> 3 : stop], "big")
        return (word >> ((stop << 3) - end)) & ((1 << width) - 1)


def frame_encode(payload: bytes) -> BitString:
    """Prefix the payload bits with a 32-bit big-endian bit-length header."""
    nbits = 8 * len(payload)
    if nbits >= 1 << HEADER_BITS:
        raise OversizePayload(f"{len(payload)} bytes do not fit a 32-bit bit count")
    return BitString(nbits.to_bytes(HEADER_BITS // 8, "big") + payload)


def frame_decode(bits: BitString) -> bytes:
    """Parse the length header and return exactly that many payload bits as bytes.

    Trailing bits beyond the framed payload are discarded. The header keeps the
    payload byte-aligned, so it is a slice of the recovered bytes.
    """
    if bits.length < HEADER_BITS:
        raise TruncatedStream(f"need {HEADER_BITS} header bits, have {bits.length}")
    data = bits.to_bytes(fill=True)
    nbits = int.from_bytes(data[: HEADER_BITS // 8], "big")
    end = HEADER_BITS + nbits
    if bits.length < end:
        raise TruncatedStream(
            f"header promises {nbits} payload bits, only {bits.length - HEADER_BITS} present"
        )
    body = bytearray(data[HEADER_BITS // 8 : (end + 7) // 8])
    if nbits % 8:  # malformed foreign header; zero-fill
        body[-1] &= (0xFF << (8 - nbits % 8)) & 0xFF
    return bytes(body)
