import pytest
from hypothesis import example, given, strategies as st

from stegosampler.bitio import (
    HEADER_BITS,
    BitStream,
    BitString,
    OversizePayload,
    TruncatedStream,
    _pad_word,
    frame_decode,
    frame_encode,
)


def stream(bits01="", seed=0):
    bits = BitString()
    bits.append(int(bits01 or "0", 2), len(bits01))
    return BitStream(bits, seed)


class TestWindow:
    def test_five_bit_register(self):
        assert stream("01111").window(0, 5) == 15

    def test_empty_zero_width(self):
        assert stream().window(0, 0) == 0

    def test_mid_byte_msb_first(self):
        s = BitStream(BitString(b"\xab"), 0)
        assert s.window(4, 4) == 0b1011

    def test_payload_bits_verbatim_in_range(self):
        s = BitStream(BitString(b"\xde\xad"), 99)
        assert s.window(0, 16) == 0xDEAD

    def test_partial_byte_payload(self):
        # selftest's 5-bit register; the low bits of the last byte are not payload
        bits = BitString(b"\x7f", 5)
        assert (bits.length, bits.to_bytes(), bits.to_bytes(fill=True)) == (5, b"", b"\x78")
        s = BitStream(bits, 4)
        assert s.window(0, 5) == 0b01111
        assert s.window(3, 8) == (0b11 << 6) | BitStream(BitString(), 4).window(0, 6)
        with pytest.raises(ValueError):
            BitString(b"\x7f", 9)

    def test_padding_deterministic_per_seed(self):
        a = stream("1", seed=7)
        b = stream("1", seed=7)
        for off in (0, 1, 5, 100):
            assert a.window(off, 26) == b.window(off, 26)
        assert stream("1", seed=8).window(1, 26) != a.window(1, 26)

    def test_padding_seed_drawn_when_none(self):
        a = BitStream(BitString(b"\x01"))
        assert 0 <= a.pad_seed < 1 << 64
        b = BitStream(BitString(b"\x01"), a.pad_seed)
        for off in (0, 5, 100):
            assert a.window(off, 26) == b.window(off, 26)


class TestFraming:
    def test_one_byte(self):
        bits = frame_encode(b"\xab")
        assert bits.length == 40
        assert bits.to_bytes() == b"\x00\x00\x00\x08\xab"

    def test_empty(self):
        bits = frame_encode(b"")
        assert (bits.to_bytes(), bits.length) == (bytes(4), 32)

    def test_two_bytes(self):
        bits = frame_encode(b"ab")
        assert bits.to_bytes() == b"\x00\x00\x00\x10ab"
        assert bits.length == 48

    def test_decode_tolerates_junk(self):
        bits = frame_encode(b"\xab")
        bits.append(0x15A7F, 17)
        assert frame_decode(bits) == b"\xab"

    def test_foreign_header_zero_fills(self):
        # 13 payload bits: the decoded bytes end in 3 zero bits, junk after them is dropped
        bits = BitString((13).to_bytes(4, "big") + b"\xff\xff\xff")
        assert frame_decode(bits) == b"\xff\xf8"

    def test_foreign_header_pending_bits(self):
        # the last payload bits are still in the accumulator, not yet in a whole byte
        bits = BitString((13).to_bytes(4, "big"))
        bits.append(0b1011001110101, 13)
        assert bits.to_bytes() == (13).to_bytes(4, "big") + b"\xb3"
        assert frame_decode(bits) == b"\xb3\xa8"

    def test_short_header(self):
        with pytest.raises(TruncatedStream):
            frame_decode(BitString(bytes(4), 31))

    def test_short_payload(self):
        bits = BitString((8).to_bytes(4, "big"))
        bits.append(0, 5)
        with pytest.raises(TruncatedStream):
            frame_decode(bits)

    def test_oversize(self):
        def claiming(n):
            class FakeBytes(bytes):  # empty, but reports n bytes
                def __len__(self):
                    return n

            return FakeBytes()

        # 2^29 bytes are 2^32 bits, one more than the header counts
        with pytest.raises(OversizePayload):
            frame_encode(claiming(1 << 29))
        header = frame_encode(claiming((1 << 29) - 1)).to_bytes()
        assert header == (8 * ((1 << 29) - 1)).to_bytes(4, "big")


@given(st.binary(max_size=200))
def test_frame_roundtrip(payload):
    assert frame_decode(frame_encode(payload)) == payload


@given(st.binary(max_size=50), st.integers(0, 500), st.integers(0, 64), st.integers(0, 2**64 - 1))
def test_window_repeatable(payload, offset, width, seed):
    a = BitStream(BitString(payload), seed)
    b = BitStream(BitString(payload), seed)
    assert a.window(offset, width) == a.window(offset, width) == b.window(offset, width)


@given(st.binary(min_size=1, max_size=50), st.data())
def test_window_matches_payload_in_range(payload, data):
    n = 8 * len(payload)
    width = data.draw(st.integers(0, min(64, n)))
    offset = data.draw(st.integers(0, n - width))
    s = BitStream(BitString(payload), 0)
    expect = 0
    for j in range(offset, offset + width):
        expect = (expect << 1) | ((payload[j // 8] >> (7 - j % 8)) & 1)
    assert s.window(offset, width) == expect


def pad_bit(seed: int, k: int) -> int:
    """Padding bit k: bit 63 - k % 64 of the splitmix64 word of block k // 64."""
    return (_pad_word(seed, k // 64) >> (63 - k % 64)) & 1


@st.composite
def payload_bits(draw):
    data = draw(st.binary(max_size=24))
    return data, draw(st.integers(0, 8 * len(data)))


def oracle_window(data: bytes, n: int, seed: int, offset: int, width: int) -> int:
    """The window bit by bit: payload bits below n, padding bit j - n from n on."""
    expect = 0
    for j in range(offset, offset + width):
        bit = (data[j // 8] >> (7 - j % 8)) & 1 if j < n else pad_bit(seed, j - n)
        expect = (expect << 1) | bit
    return expect


@given(payload_bits(), st.integers(0, 128), st.integers(-150, 150), st.integers(0, 2**64 - 1))
@example((b"\xa5" * 3, 21), 128, -3, 99).via("payload and two padding words, 128 bits")
def test_window_matches_per_bit_oracle(payload, width, shift, seed):
    """Offsets land near the payload end, so windows straddle payload and padding; widths
    past 64 span more than one padding word."""
    data, n = payload
    offset = max(0, n - width + shift)
    s = BitStream(BitString(data, n), seed)
    assert s.window(offset, width) == oracle_window(data, n, seed, offset, width)


@given(payload_bits(), st.lists(st.integers(0, 40), max_size=60), st.integers(1, 128))
def test_padding_grows_with_the_reads(payload, steps, width):
    """Read monotonically to offset N, the buffer's whole bytes, which windows read, end at most
    width + 64 bits past N."""
    data, n = payload
    s, offset = BitStream(BitString(data, n), 5), 0
    for step in steps:
        offset += step
        assert s.window(offset, width) == oracle_window(data, n, 5, offset, width)
        assert 8 * len(s._buf.data) <= max(n, offset + width + 64)


@given(st.lists(st.tuples(st.integers(0, 64), st.integers(-(2**80), 2**80)), max_size=40))
def test_append_matches_big_int_oracle(chunks):
    """Random widths, with garbage above `width` (and negative ints) that must be masked off."""
    bits, value, length = BitString(), 0, 0
    for width, word in chunks:
        bits.append(word, width)
        value = (value << width) | (word & ((1 << width) - 1))
        length += width
        assert bits.length == length
        assert bits.to_bytes() == (value >> (length % 8)).to_bytes(length // 8, "big")
    filled = value << (-length % 8)
    assert bits.to_bytes(fill=True) == filled.to_bytes((length + 7) // 8, "big")
    s, offset = BitStream(bits, 0), 0
    for width, word in chunks:
        assert s.window(offset, width) == word & ((1 << width) - 1)
        offset += width


@given(st.integers(0, 96), st.integers(0, 40), st.binary(max_size=16))
def test_frame_decode_matches_big_int_oracle(nbits, extra, body):
    """Any header, whole-byte or foreign, with the bits after it arriving through append."""
    bits = BitString(nbits.to_bytes(4, "big"))
    stream = int.from_bytes(body, "big")
    total = min(8 * len(body), nbits + extra)
    bits.append(stream >> (8 * len(body) - total), total)
    if total < nbits:
        with pytest.raises(TruncatedStream):
            frame_decode(bits)
        return
    payload = (stream >> (8 * len(body) - nbits)) & ((1 << nbits) - 1)
    expect = (payload << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")
    assert frame_decode(bits) == expect
    assert bits.length == HEADER_BITS + total
