"""Bit-level message handling: windowed access, framing, deterministic padding."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

HEADER_BITS = 32
MAX_PAYLOAD_BYTES = 1 << 29

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


@dataclass
class BitString:
    """Immutable-ish MSB-first bit sequence backed by a big int."""

    value: int = 0
    length: int = 0

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls(int.from_bytes(data, "big"), 8 * len(data))

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def slice(self, offset: int, width: int) -> int:
        """Integer formed by `width` bits starting at `offset` (must be in range)."""
        end = offset + width
        if end > self.length:
            raise IndexError((offset, width))
        return (self.value >> (self.length - end)) & ((1 << width) - 1)

    def append(self, bits: int, width: int) -> None:
        self.value = (self.value << width) | (bits & ((1 << width) - 1))
        self.length += width

    def to_bytes(self) -> bytes:
        """Pack whole bytes; a trailing partial byte is dropped."""
        nbytes = self.length // 8
        if nbytes == 0:
            return b""
        return (self.value >> (self.length - 8 * nbytes)).to_bytes(nbytes, "big")


@dataclass
class BitStream:
    """Message bits with a confirmed-consumption pointer and seeded padding.

    Reads past the payload end draw deterministic pseudo-random bits from
    pad_seed, so the same (payload, seed) always yields the same windows.
    """

    payload: BitString = field(default_factory=BitString)
    pad_seed: int | None = None
    confirmed_ptr: int = 0

    def __post_init__(self):
        if self.pad_seed is None:
            self.pad_seed = int.from_bytes(os.urandom(8), "big")

    def _pad_bits(self, k: int, width: int) -> int:
        """`width` <= 64 padding bits starting at padding bit k, MSB-first."""
        block = k >> 6
        bits = _pad_word(self.pad_seed, block)
        avail = 64 - (k & 63)  # bits of `bits` from padding bit k to its end
        if width > avail:
            bits = (bits << 64) | _pad_word(self.pad_seed, block + 1)
            avail += 64
        return (bits >> (avail - width)) & ((1 << width) - 1)

    def window(self, offset: int, width: int) -> int:
        """The `width` bits at `offset`, MSB-first, padded past the payload end."""
        assert width <= 64
        n = self.payload.length
        if offset + width <= n:
            return self.payload.slice(offset, width)
        if offset >= n:
            return self._pad_bits(offset - n, width)
        head = n - offset
        pad = width - head
        return (self.payload.slice(offset, head) << pad) | self._pad_bits(0, pad)

    def advance(self, s: int) -> None:
        assert s >= 0
        self.confirmed_ptr += s


def frame_encode(payload: bytes) -> BitString:
    """Prefix the payload bits with a 32-bit big-endian bit-length header."""
    nbits = 8 * len(payload)
    if len(payload) > MAX_PAYLOAD_BYTES or nbits >= (1 << HEADER_BITS):
        raise OversizePayload(f"{len(payload)} bytes do not fit a 32-bit bit count")
    out = BitString(nbits, HEADER_BITS)
    out.append(int.from_bytes(payload, "big"), nbits)
    return out


def frame_decode(bits: BitString) -> bytes:
    """Parse the length header and return exactly that many payload bits as bytes.

    Trailing bits beyond the framed payload are discarded.
    """
    if bits.length < HEADER_BITS:
        raise TruncatedStream(f"need {HEADER_BITS} header bits, have {bits.length}")
    nbits = bits.slice(0, HEADER_BITS)
    if bits.length < HEADER_BITS + nbits:
        raise TruncatedStream(
            f"header promises {nbits} payload bits, only {bits.length - HEADER_BITS} present"
        )
    body = BitString(bits.slice(HEADER_BITS, nbits), nbits)
    if nbits % 8:
        body.append(0, 8 - nbits % 8)  # malformed foreign header; zero-fill
    return body.to_bytes()
