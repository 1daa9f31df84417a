from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stegosampler.bitio import BitStream, BitString
from stegosampler.coder import (
    BrokenInvariant,
    CapacityExceeded,
    CoderState,
    NoParityMass,
    UndecodablePixel,
    _apply,
    embed_image,
    embed_step,
    extract_image,
    extract_step,
    lsb_embed,
    lsb_extract,
    quantize,
)
from stegosampler.models import (
    DegenerateModel,
    FixedModel,
    PixelDistribution,
    UniformModel,
    train_context_model,
)
from stegosampler.pnm import ImageGrid

UNIFORM = PixelDistribution(np.ones(256, dtype=np.int64))


def golden_weights():
    # total 32: rank order is value 0 (14), value 4 (2), then sixteen singles,
    # so value 4 owns the integer subinterval [14, 16) of a full 5-bit register
    w = np.zeros(256, dtype=np.int64)
    w[0] = 14
    w[4] = 2
    for v in list(range(1, 4)) + list(range(5, 18)):
        w[v] = 1
    return PixelDistribution(w)


def stream(bits01="", seed=0):
    bits = BitString()
    bits.append(int(bits01 or "0", 2), len(bits01))
    return BitStream(bits, seed)


class TestQuantize:
    def test_uniform_full_interval(self):
        part = quantize(UNIFORM, CoderState(26))
        # independent oracle: per-symbol floor of width * weight / total
        expect = [(1 << 26) * 1 // 256] * 256
        assert list(np.diff(part.cut)) == expect
        assert part.cut == [k << 18 for k in range(257)]

    def test_point_mass(self):
        state = CoderState(26, low=5, high=900)
        part = quantize(DegenerateModel(7).distribution(None, None), state)
        assert part.order[0] == 7
        assert part.cut == [0, state.width]

    def test_width_two_deficit_to_most_probable(self):
        # all floors are 0 at width 2; the deficit hands both slots to rank 0
        w = np.zeros(256, dtype=np.int64)
        w[10] = 4  # p = 0.4
        w[20] = 3
        w[30] = 3
        half = 1 << 25
        part = quantize(PixelDistribution(w), CoderState(26, low=half - 1, high=half))
        assert part.order[0] == 10
        assert part.cut == [0, 2]

    def test_sort_stable_ties_ascending(self):
        w = np.ones(256, dtype=np.int64)
        w[100] = 5
        w[50] = 5
        part = quantize(PixelDistribution(w), CoderState(26))
        assert list(part.order[:2]) == [50, 100]
        assert list(part.order[2:5]) == [0, 1, 2]


class TestEmbedStep:
    def test_golden_five_bit_vector(self):
        state = CoderState(5)
        rec = embed_step(state, golden_weights(), stream("01111"))
        assert rec.pixel_value == 4
        assert rec.bits_confirmed == 4
        assert (state.low, state.high) == (0, 31)

    def test_point_mass_zero_bits(self):
        state = CoderState(26)
        rec = embed_step(state, DegenerateModel(7).distribution(None, None), stream("1010"))
        assert (rec.pixel_value, rec.bits_confirmed) == (7, 0)
        assert (state.low, state.high) == (0, (1 << 26) - 1)

    def test_uniform_confirms_top_byte(self):
        # brute-force rational oracle: with 256 equal cells the selected pixel
        # is floor(t / 2^prc * 256) and exactly 8 bits become shared prefix
        for byte in (0, 1, 137, 255):
            msg = stream(format(byte << 18, "026b"), 3)
            state = CoderState(26)
            rec = embed_step(state, UNIFORM, msg)
            assert rec.pixel_value == int(Fraction(byte << 18, 1 << 26) * 256)
            assert rec.bits_confirmed == 8
            assert msg.confirmed_ptr == 8


class TestExtractStep:
    def test_golden_mirror(self):
        state = CoderState(5)
        prefix, s = extract_step(state, golden_weights(), 4)
        assert (prefix, s) == (0b0111, 4)
        assert (state.low, state.high) == (0, 31)

    def test_point_mass(self):
        state = CoderState(26)
        prefix, s = extract_step(state, DegenerateModel(7).distribution(None, None), 7)
        assert (prefix, s) == (0, 0)

    def test_undecodable(self):
        with pytest.raises(UndecodablePixel):
            extract_step(CoderState(26), DegenerateModel(7).distribution(None, None), 8)

    def test_uniform_image_bits(self):
        state = CoderState(26)
        out = BitString()
        for pixel in [15, 240, 170, 85]:
            prefix, s = extract_step(state, UNIFORM, pixel)
            out.append(prefix, s)
        assert out.to_bytes() == bytes([0x0F, 0xF0, 0xAA, 0x55])


class TestImages:
    def test_uniform_raw_passthrough(self):
        payload = bytes([0x0F, 0xF0, 0xAA, 0x55])
        grid, rep = embed_image(UniformModel(), 2, 2, 1, payload, framed=False, pad_seed=0)
        assert bytes(grid.data) == payload
        assert rep.bits_confirmed == 32
        assert rep.er_per_pixel == 8.0

    def test_degenerate_capacity(self):
        grid, rep = embed_image(DegenerateModel(7), 3, 3, 1, b"", framed=False, pad_seed=0)
        assert bytes(grid.data) == b"\x07" * 9
        assert rep.bits_confirmed == 0
        with pytest.raises(CapacityExceeded):
            embed_image(DegenerateModel(7), 3, 3, 1, b"", framed=True, pad_seed=0)

    def test_framed_roundtrip(self):
        grid, _ = embed_image(UniformModel(), 4, 4, 1, b"hello", pad_seed=5)
        assert extract_image(UniformModel(), grid) == b"hello"

    def test_raw_extract(self):
        grid = ImageGrid(2, 2, 1, bytearray([15, 240, 170, 85]))
        assert extract_image(UniformModel(), grid, framed=False) == bytes(
            [0x0F, 0xF0, 0xAA, 0x55]
        )

    def test_undecodable_image(self):
        grid = ImageGrid(1, 1, 1, bytearray([8]))
        with pytest.raises(UndecodablePixel):
            extract_image(DegenerateModel(7), grid, framed=False)

    def test_undecodable_pixel_names_its_step(self):
        weights = np.ones(256, dtype=np.int64)
        weights[200] = 0
        model = FixedModel(weights)
        grid, _ = embed_image(model, 3, 2, 3, b"", prc=30, framed=False, pad_seed=4)
        grid.data[(1 * 3 + 2) * 3 + 1] = 200  # row 1, column 2, channel 1
        where = r"step 16 \(row 1, column 2, channel 1\) at prc 30: pixel 200 "
        with pytest.raises(UndecodablePixel, match=where):
            extract_image(model, grid, prc=30, framed=False)

    def test_prc_range(self):
        with pytest.raises(ValueError):
            embed_image(UniformModel(), 2, 2, 1, b"", prc=7, framed=False)
        with pytest.raises(ValueError):
            embed_image(UniformModel(), 2, 2, 1, b"", prc=63, framed=False)
        grid = ImageGrid.blank(2, 2, 1)
        for prc in (4, 7, 63, 70):
            with pytest.raises(ValueError, match="prc"):
                extract_image(UniformModel(), grid, prc=prc, framed=False)


class TestLsbBaseline:
    def test_lsb_parity_matches_bits(self):
        grid = lsb_embed(UniformModel(), 2, 2, 1, b"\xa0", rng_seed=1, pad_seed=0)
        assert [b & 1 for b in grid.data] == [1, 0, 1, 0]

    def test_lsb_extract(self):
        grid = ImageGrid(2, 2, 1, bytearray([3, 8, 255, 0]))
        bits = lsb_extract(grid)
        assert (bits.to_bytes(fill=True), bits.length) == (b"\xa0", 4)

    def test_exact_one_bit_per_step(self):
        grid = lsb_embed(UniformModel(), 5, 3, 1, b"\xde\xad", rng_seed=2, pad_seed=9)
        recovered = lsb_extract(grid)
        assert recovered.length == 15
        assert BitStream(recovered, 0).window(0, 15) == (0xDEAD >> 1)

    def test_no_parity_mass(self):
        w = np.zeros(256, dtype=np.int64)
        w[2] = 1  # only even values carry weight
        with pytest.raises(NoParityMass):
            lsb_embed(FixedModel(w), 8, 1, 1, b"\xff", rng_seed=0, pad_seed=0)


def weight_arrays():
    return st.lists(st.integers(0, 1000), min_size=256, max_size=256).filter(
        lambda w: sum(w) > 0
    )


@settings(max_examples=60, deadline=None)
@given(weight_arrays(), st.integers(8, 40), st.data())
def test_tiling_property(weights, prc, data):
    low = data.draw(st.integers(0, (1 << prc) - 2))
    high = data.draw(st.integers(low + 1, (1 << prc) - 1))
    part = quantize(PixelDistribution(weights), CoderState(prc, low=low, high=high))
    ws = list(np.diff(part.cut))
    assert sum(ws) == high - low + 1
    assert all(w >= 0 for w in ws)
    assert part.cut == sorted(part.cut)
    assert ws[0] >= 1


def quantize_oracle(weights, low, high):
    """Exact Python-int reference: (order, cut) as the per-symbol loop defines them."""
    width = high - low + 1
    total = sum(weights)
    order = sorted(range(256), key=lambda v: (-weights[v], v))
    ws = []
    for v in order:
        w = width * weights[v] // total
        if w == 0:
            break
        ws.append(w)
    if not ws:
        ws = [0]
    ws[0] += width - sum(ws)
    cut = [0]
    for w in ws:
        cut.append(cut[-1] + w)
    return order, cut


def wide_weight_arrays():
    # up to 32-bit weights: totals reach just under 2^40, the model limit
    return (
        st.integers(1, 32)
        .flatmap(lambda b: st.lists(st.integers(0, (1 << b) - 1), min_size=256, max_size=256))
        .filter(lambda w: sum(w) > 0)
    )


@st.composite
def registers(draw):
    """(prc, low, high) for any valid interval of a prc-bit register, prc 8..62."""
    prc = draw(st.integers(8, 62))
    width = draw(st.integers(2, 1 << prc))
    low = draw(st.integers(0, (1 << prc) - width))
    return prc, low, low + width - 1


@settings(max_examples=200, deadline=None)
@given(wide_weight_arrays(), registers())
# int64 path: 8-bit register, 1-bit weights
@example([1] * 256, (8, 0, 255)).via("int64 path")
# widest int64 case: 33-bit width times 30-bit weights, products just under 2^63
@example([(1 << 30) - 1] * 256, (33, 0, (1 << 33) - 2)).via("int64 path, edge")
# one weight bit more: products reach 2^64, so the Python-int fallback runs
@example([(1 << 31) - 1] * 256, (33, 0, (1 << 33) - 2)).via("fallback, edge")
# Python-int fallback: full 62-bit register, 32-bit weights
@example([(1 << 32) - 1 - v for v in range(256)], (62, 0, (1 << 62) - 1)).via("fallback")
def test_quantize_matches_exact_oracle(weights, register):
    prc, low, high = register
    part = quantize(PixelDistribution(weights), CoderState(prc, low=low, high=high))
    order, cut = quantize_oracle(weights, low, high)
    assert part.order.tolist() == order
    assert part.cut == cut
    assert all(type(c) is int for c in part.cut)


@st.composite
def run_weights(draw):
    """256 weights drawn from a few values, zeros included, so that runs are long."""
    bits = draw(st.sampled_from([2, 8, 24, 32]))
    values = draw(st.lists(st.integers(1 << (bits - 1), (1 << bits) - 1), min_size=1, max_size=4))
    w = draw(st.lists(st.sampled_from([0, *values]), min_size=256, max_size=256))
    w[draw(st.integers(0, 255))] = values[0]  # total > 0
    return w


@st.composite
def scaled_registers(draw):
    """(prc, low, high) like `registers`, with the width's bit length drawn evenly from 1..prc,
    so that intervals fall on both sides of the int64 guard."""
    prc = draw(st.integers(8, 62))
    bits = draw(st.integers(1, prc))
    width = draw(st.integers(max(2, 1 << (bits - 1)), 1 << bits))
    low = draw(st.integers(0, (1 << prc) - width))
    return prc, low, low + width - 1


def clone(state):
    return CoderState(state.prc, state.low, state.high)


@settings(max_examples=150, deadline=None)
@given(run_weights(), scaled_registers())
# one run of 255 equal symbols behind rank 0, on the int64 side of the guard
@example([5] * 256, (26, 0, (1 << 26) - 1)).via("int64 path")
# past the guard, with a tail of zero weights: 62-bit interval, 32-bit weights
@example([(1 << 32) - 1] * 200 + [0] * 56, (62, 3, (1 << 62) - 1)).via("fallback")
def test_derived_cut_matches_the_oracle(weights, register):
    """`cut`, derived from the run ends, is the per-symbol oracle's tiling."""
    prc, low, high = register
    dist = PixelDistribution(weights)
    part = quantize(dist, CoderState(prc, low=low, high=high))
    order, cut = quantize_oracle(weights, low, high)
    assert (part.order.tolist(), part.cut) == (order, cut)
    assert all(type(c) is int for c in part.cut)
    assert part.cut[-1] == part.width == high - low + 1


@settings(max_examples=150, deadline=None)
@given(run_weights(), scaled_registers(), st.integers(0, 2**64 - 1))
# one run of 255 equal symbols behind rank 0, on the int64 side of the guard
@example([5] * 256, (26, 0, (1 << 26) - 1), 12345).via("int64 path")
# the same past the guard: 62-bit interval, 32-bit weights
@example([(1 << 32) - 1] * 200 + [0] * 56, (62, 3, (1 << 62) - 1), 1 << 61).via("fallback")
def test_run_steps_match_the_full_cut(weights, register, u):
    """embed_step and extract_step over runs give what bisecting the per-symbol `cut` gives."""
    prc, low, high = register
    dist = PixelDistribution(weights)
    state = CoderState(prc, low=low, high=high)
    order, cut = quantize_oracle(weights, low, high)
    x = u % state.width  # the message window, relative to low

    k = bisect_right(cut, x) - 1
    expect = clone(state)
    s = _apply(expect, cut[k], cut[k + 1] - cut[k])[0]
    got = clone(state)
    rec = embed_step(got, dist, stream(format(low + x, f"0{prc}b")))
    assert (rec.pixel_value, rec.q_width, rec.bits_confirmed) == (order[k], cut[k + 1] - cut[k], s)
    assert (got.low, got.high) == (expect.low, expect.high)

    for k, pixel in enumerate(order):
        got = clone(state)
        if k + 1 >= len(cut):
            with pytest.raises(UndecodablePixel):
                extract_step(got, dist, pixel)
            continue
        expect = clone(state)
        s, prefix = _apply(expect, cut[k], cut[k + 1] - cut[k])
        assert extract_step(got, dist, pixel) == (prefix, s)
        assert (got.low, got.high) == (expect.low, expect.high)


@st.composite
def distributions(draw):
    """A PixelDistribution with 1..256 nonzero weights below 2^32 (totals below 2^40)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.integers(1, 32))
    nonzero = draw(st.integers(1, 256))
    w = np.zeros(256, dtype=np.int64)
    w[rng.choice(256, nonzero, replace=False)] = rng.integers(1, 1 << bits, nonzero)
    return PixelDistribution(w)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(distributions(), min_size=1, max_size=24),
    st.integers(8, 62),
    st.binary(max_size=16),
    st.integers(0, 2**64 - 1),
)
def test_steps_keep_interval_invariants(dists, prc, payload, seed):
    """embed_step and extract_step mirror each other and keep [low, high] legal."""
    msg = BitStream(BitString(payload), seed)
    sender, receiver = CoderState(prc), CoderState(prc)
    for dist in dists:
        ptr = msg.confirmed_ptr
        assert sender.low <= msg.window(ptr, prc) <= sender.high
        rec = embed_step(sender, dist, msg)
        sender.check()
        prefix, s = extract_step(receiver, dist, rec.pixel_value)
        receiver.check()
        assert s == rec.bits_confirmed
        assert prefix == msg.window(ptr, s)
        assert (receiver.low, receiver.high) == (sender.low, sender.high)


def test_check_raises_without_assert():
    # a real exception, so it runs under python -O; not a ValueError, which the
    # CLI would report as bad input
    assert not issubclass(BrokenInvariant, ValueError)
    with pytest.raises(BrokenInvariant, match="prc 8"):
        CoderState(8, low=5, high=5).check()
    with pytest.raises(BrokenInvariant):
        CoderState(8, low=0, high=256).check()


@settings(max_examples=25, deadline=None)
@given(
    st.binary(max_size=12),
    st.integers(0, 2**64 - 1),
    st.sampled_from([8, 16, 26, 40]),
    weight_arrays(),
)
def test_fixed_model_roundtrip(payload, seed, prc, weights):
    model = FixedModel(np.array(weights) + 1)  # smoothed: every pixel decodable
    grid, rep = embed_image(model, 16, 16, 1, payload, prc=prc, framed=False, pad_seed=seed)
    bits = BitString(payload)
    recovered = extract_image(model, grid, prc=prc, framed=False)
    n = min(rep.bits_confirmed, bits.length) // 8
    assert recovered[:n] == payload[:n]
    # code-length bound: confirmed tracks the quantized self-information
    assert abs(rep.bits_confirmed - rep.self_information_bits) <= prc


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=1, max_size=6), st.integers(0, 2**32))
def test_trained_model_framed_roundtrip(payload, seed):
    imgs = [
        ImageGrid(4, 4, 1, bytearray((seed + i * 37 + j) % 256 for j in range(16)))
        for i in range(3)
    ]
    model = train_context_model(imgs, buckets=4)
    grid, _ = embed_image(model, 12, 12, 1, payload, pad_seed=seed)
    assert extract_image(model, grid) == payload


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.binary(min_size=1, max_size=4))
def test_lsb_roundtrip_any_seed(seed, payload):
    model = FixedModel(np.arange(1, 257))
    n = 8 * len(payload)
    grid = lsb_embed(model, n, 1, 1, payload, rng_seed=seed, pad_seed=1)
    assert lsb_extract(grid).to_bytes() == payload
