import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stegosampler import models
from stegosampler.bitio import BitStream, BitString, frame_encode
from stegosampler.coder import (
    BrokenInvariant,
    CapacityExceeded,
    ChannelMismatch,
    CoderState,
    NoParityMass,
    UndecodablePixel,
    _apply,
    _located,
    embed_image,
    embed_step,
    extract_bits,
    extract_image,
    extract_step,
    lsb_embed,
    lsb_extract,
    quantize,
)
from stegosampler.metrics import STATS, step_stats
from stegosampler.models import (
    INT64_MAX,
    MANY_RUNS,
    ContextModel,
    DegenerateModel,
    FixedModel,
    STREAM_CHUNK,
    NotADistribution,
    PixelDistribution,
    StreamExhausted,
    StreamModel,
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
        value, s, q_width, width = embed_step(state, golden_weights(), stream("01111"))
        assert value == 4
        assert s == 4
        assert (state.low, state.high) == (0, 31)

    def test_point_mass_zero_bits(self):
        state = CoderState(26)
        value, s, q_width, width = embed_step(
            state, DegenerateModel(7).distribution(None, None), stream("1010")
        )
        assert (value, s) == (7, 0)
        assert (state.low, state.high) == (0, (1 << 26) - 1)

    def test_uniform_confirms_top_byte(self):
        # brute-force rational oracle: with 256 equal cells the selected pixel
        # is floor(t / 2^prc * 256) and exactly 8 bits become shared prefix
        for byte in (0, 1, 137, 255):
            msg = stream(format(byte << 18, "026b"), 3)
            state = CoderState(26)
            value, s, q_width, width = embed_step(state, UNIFORM, msg)
            assert value == int(Fraction(byte << 18, 1 << 26) * 256)
            assert s == 8
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

    def test_no_distribution_names_its_step(self):
        # (shape, the zero row, where it lies) of a 3x2 gray image and of a 3x2 RGB one
        for shape, zero, where in [
            ((3, 2, 1), 4, r"step 4 \(row 1, column 1, channel 0\) at prc 30: total 0 outside"),
            ((3, 2, 3), 16, r"step 16 \(row 1, column 2, channel 1\) at prc 30: total 0 outside"),
        ]:
            table = np.ones((np.prod(shape), 256), dtype=np.int64)
            table[zero] = 0
            with pytest.raises(NotADistribution, match=where):
                embed_image(StreamModel(table), *shape, b"", prc=30, framed=False, pad_seed=0)
            with pytest.raises(NotADistribution, match=where):
                extract_image(StreamModel(table), ImageGrid.blank(*shape), prc=30, framed=False)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 3), (7, 2, 3), (28, 28, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_located_names_the_nested_loops_place(self, shape):
        """Steps run in raster order, channels interleaved per pixel: at every step of a
        width x height x channels image, a located error names the (row, column, channel) that
        nested row, column and channel loops reach there."""
        width, height, channels = shape
        image = ImageGrid.blank(*shape)
        places = product(range(height), range(width), range(channels))
        for step, (row, col, channel) in enumerate(places):
            e = _located(UndecodablePixel("why"), step, image, 26)
            where = f"step {step} (row {row}, column {col}, channel {channel})"
            assert type(e) is UndecodablePixel and str(e) == f"{where} at prc 26: why"
        assert step == image.steps - 1

    def test_prc_range(self):
        with pytest.raises(ValueError):
            embed_image(UniformModel(), 2, 2, 1, b"", prc=7, framed=False)
        with pytest.raises(ValueError):
            embed_image(UniformModel(), 2, 2, 1, b"", prc=63, framed=False)
        grid = ImageGrid.blank(2, 2, 1)
        for prc in (4, 7, 63, 70):
            with pytest.raises(ValueError, match="prc"):
                extract_image(UniformModel(), grid, prc=prc, framed=False)
        # the register itself holds 2 to 64 bits
        assert (CoderState(prc=2).high, CoderState(prc=64).high) == (3, (1 << 64) - 1)
        for prc in (1, 65):
            with pytest.raises(ValueError, match="prc"):
                CoderState(prc=prc)


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

    def test_draws_from_p_restricted_to_the_parity(self):
        # odd values hold 4 of 10^6 + 4 units: a draw from p almost never has LSB 1
        w = np.zeros(256, dtype=np.int64)
        w[[0, 1, 3]] = 10**6, 1, 3
        grid = lsb_embed(FixedModel(w), 400, 1, 1, b"\xff" * 50, rng_seed=3, pad_seed=0)
        ones = grid.data.count(1)
        assert grid.data.count(3) == 400 - ones
        assert 60 < ones < 140  # about 1 in 4

    @pytest.mark.parametrize("trained, channels", [(1, 3), (3, 1)])
    def test_channel_mismatch(self, trained, channels):
        """The baseline refuses a model of another channel count, as embed and extract do."""
        corpus = [ImageGrid.blank(2, 2, trained)]
        model = train_context_model(corpus, buckets=4)
        want = rf"model has {trained} channel\(s\), image has {channels}"
        with pytest.raises(ChannelMismatch, match=want):
            lsb_embed(model, 2, 2, channels, b"\xff", rng_seed=0, pad_seed=0)


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


def with_runs(n):
    """256 weights in n runs: n, n - 1, ..., 2 alone, then 1 for the rest."""
    return [max(n - v, 1) for v in range(256)]


# 256 runs whose top weight, 2^30, is nearly all of the total: at the int64 guard's edge its
# product with the width, the largest product of the int64 pass, falls just under 2^63
EDGE = [1 << 30, *range(255, 0, -1)]
# the top two weights equal: at a width of 2^33, width times run_w[1] is 2^63 as well, so a
# wrapped product no longer falls on run 0 alone, whose error the deficit would absorb
TWIN_EDGE = [1 << 30, 1 << 30, *range(254, 0, -1)]
# MANY_RUNS runs of weights below 2^32: at prc 62 their products pass int64 too
WIDE_MANY_RUNS = [w * ((1 << 26) - 1) for w in with_runs(MANY_RUNS)]


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
# 8-bit register, 1-bit weights: two runs
@example([1] * 256, (8, 0, 255)).via("Python ints, two runs")
# the most runs kept as runs of equal weight, which take Python ints, and one run more, kept
# as int64 run arrays, which take int64; then the most runs again, past the guard
@example(with_runs(MANY_RUNS), (26, 0, (1 << 26) - 1)).via("Python ints, MANY_RUNS runs")
@example(with_runs(MANY_RUNS + 1), (26, 0, (1 << 26) - 1)).via("int64 path, MANY_RUNS + 1 runs")
@example(WIDE_MANY_RUNS, (62, 0, (1 << 62) - 1)).via("Python ints, MANY_RUNS runs past the guard")
# widest int64 case: width times the top weight, which bounds every product, at most 2^63 - 1
@example(EDGE, (33, 0, INT64_MAX // EDGE[0] - 1)).via("int64 path, edge")
# one unit of width more: width times the top weight passes 2^63 - 1, so the guard sends 256
# runs to Python ints
@example(EDGE, (33, 0, INT64_MAX // EDGE[0])).via("past the guard, edge")
# width times each of the top two weights is 2^63: a guard one unit looser wraps both
@example(TWIN_EDGE, (33, 0, (1 << 33) - 1)).via("past the guard, two top weights at the edge")
# past the guard: full 62-bit register, 32-bit weights, 256 runs
@example([(1 << 32) - 1 - v for v in range(256)], (62, 0, (1 << 62) - 1)).via("past the guard")
def test_quantize_matches_exact_oracle(weights, register):
    prc, low, high = register
    part = quantize(PixelDistribution(weights), CoderState(prc, low=low, high=high))
    order, cut = quantize_oracle(weights, low, high)
    assert list(part.order) == order
    assert part.cut == cut
    assert all(type(c) is int for c in part.cut)


@st.composite
def run_weights(draw):
    """256 weights drawn from up to 256 values, zeros included, so that runs are long or short
    and their count falls on both sides of MANY_RUNS."""
    bits = draw(st.sampled_from([2, 8, 24, 32]))
    values = draw(st.lists(st.integers(1 << (bits - 1), (1 << bits) - 1), min_size=1, max_size=256))
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
# one run of 255 equal symbols behind rank 0
@example([5] * 256, (26, 0, (1 << 26) - 1)).via("Python ints, two runs")
# the most runs kept as runs of equal weight, which take Python ints, and one run more, kept
# as int64 run arrays, which take int64; then the most runs again, past the guard
@example(with_runs(MANY_RUNS), (26, 0, (1 << 26) - 1)).via("Python ints, MANY_RUNS runs")
@example(with_runs(MANY_RUNS + 1), (26, 0, (1 << 26) - 1)).via("int64 path, MANY_RUNS + 1 runs")
@example(WIDE_MANY_RUNS, (62, 0, (1 << 62) - 1)).via("Python ints, MANY_RUNS runs past the guard")
# a tail of zero weights: 62-bit interval, 32-bit weights
@example([(1 << 32) - 1] * 200 + [0] * 56, (62, 3, (1 << 62) - 1)).via("Python ints, zero tail")
# many runs past the guard
@example([(1 << 32) - 1 - v for v in range(256)], (62, 3, (1 << 62) - 1)).via("past the guard")
def test_derived_cut_matches_the_oracle(weights, register):
    """`cut`, derived from the run ends, is the per-symbol oracle's tiling, and the ends a
    step reads are Python ints on every tiling path."""
    prc, low, high = register
    dist = PixelDistribution(weights)
    part = quantize(dist, CoderState(prc, low=low, high=high))
    order, cut = quantize_oracle(weights, low, high)
    assert (list(part.order), part.cut) == (order, cut)
    assert all(type(c) is int for c in part.cut)
    assert all(type(e) is int for e in part.ends)
    assert part.cut[-1] == part.width == high - low + 1


@settings(max_examples=150, deadline=None)
@given(run_weights(), scaled_registers(), st.integers(0, 2**64 - 1))
# one run of 255 equal symbols behind rank 0
@example([5] * 256, (26, 0, (1 << 26) - 1), 12345).via("Python ints, two runs")
# the most runs kept as runs of equal weight, which take Python ints, and one run more, kept
# as int64 run arrays, which take int64; then the most runs again, past the guard
@example(with_runs(MANY_RUNS), (26, 0, (1 << 26) - 1), 1 << 25).via("Python ints, MANY_RUNS runs")
@example(with_runs(MANY_RUNS + 1), (26, 0, (1 << 26) - 1), 1 << 25).via("int64 path, MANY_RUNS + 1 runs")
@example(WIDE_MANY_RUNS, (62, 0, (1 << 62) - 1), 1 << 61).via("Python ints, MANY_RUNS runs past the guard")
# a tail of zero weights: 62-bit interval, 32-bit weights
@example([(1 << 32) - 1] * 200 + [0] * 56, (62, 3, (1 << 62) - 1), 1 << 61).via("Python ints, zero tail")
# many runs past the guard
@example([(1 << 32) - 1 - v for v in range(256)], (62, 3, (1 << 62) - 1), 1 << 61).via("past the guard")
# width times each of the top two weights is 2^63: a guard one unit looser wraps both
@example(TWIN_EDGE, (33, 0, (1 << 33) - 1), 3 << 31).via("past the guard, two top weights at the edge")
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
    value, bits, q_width, width = embed_step(got, dist, stream(format(low + x, f"0{prc}b")))
    assert (value, q_width, bits) == (order[k], cut[k + 1] - cut[k], s)
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


# run counts around the cut and past it: the most runs kept as pairs, one more, 64, 65, 256
RUN_COUNTS = [MANY_RUNS, MANY_RUNS + 1, 64, 65, 256]


def both_layouts(weights):
    """`weights` kept as (weight, length) pairs of Python ints and as int64 run arrays."""
    with mock.patch.object(models, "MANY_RUNS", 256):
        pairs = PixelDistribution(weights)
    with mock.patch.object(models, "MANY_RUNS", 0):
        arrays = PixelDistribution(weights)
    assert type(pairs.runs) is tuple and pairs.run_w is None
    assert arrays.runs is None and arrays.run_len is not None
    return pairs, arrays


def assert_tilings_agree(weights, state):
    """The int64 run arrays tile `state`'s interval to the ends the Python pairs give, with
    ends that index to Python ints, and both derive the oracle's per-symbol cut. Returns
    whether the arrays took the int64 pass."""
    pairs, arrays = both_layouts(weights)
    want, got = quantize(pairs, state), quantize(arrays, state)
    assert type(want.ends) is list
    assert all(type(e) is int for e in got.ends)
    assert list(got.ends) == want.ends
    assert got.cut == want.cut == quantize_oracle(weights, state.low, state.high)[1]
    return type(got.ends) is not list


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RUN_COUNTS), st.integers(0, 24), st.integers(0, 2**32 - 1),
       scaled_registers())
def test_int64_runs_tile_as_the_pairs_do(runs, scale_bits, seed, register):
    """Rows around and past MANY_RUNS, of weights up to 2^32, tile to the same ends as int64
    run arrays, whether the int64 pass or the Python-int walk past the guard reads them, as
    kept as pairs, at prc 8..62."""
    scale = int(np.random.default_rng(seed).integers(1 << scale_bits, 2 << scale_bits))
    weights = np.random.default_rng(seed).permutation([w * scale for w in with_runs(runs)])
    prc, low, high = register
    assert_tilings_agree(weights.tolist(), CoderState(prc, low=low, high=high))


@pytest.mark.parametrize("runs", RUN_COUNTS)
@pytest.mark.parametrize("prc", [8, 26, 40, 62])
def test_int64_runs_tile_as_the_pairs_do_at_the_guard(runs, prc):
    """The full register and, where the register holds them, the widths on each side of the
    int64 guard: width times the top weight at most INT64_MAX takes the int64 pass, one unit
    more the Python-int walk."""
    weights = [w * ((1 << 24) - 1) for w in with_runs(runs)]  # totals below 2^40 at 256 runs
    guard = INT64_MAX // weights[0]
    for width in (1 << prc, guard, guard + 1):
        if width <= 1 << prc:
            state = CoderState(prc, high=width - 1)
            assert assert_tilings_agree(weights, state) is (width <= guard), width


@pytest.mark.parametrize("prc", [40, 62])
def test_a_context_of_256_runs_round_trips(prc):
    """A context row of 256 distinct weights is kept as int64 runs: its run_of wrapped in uint8
    when it was cut, and is right mod 256, which is all of 0..255. Embed and extract round-trip
    exactly, through a pixel of rank 255, by the int64 pass at prc 40 and the Python-int walk
    at 62. (At prc 26 this near-uniform row can leave a few units straddling the midpoint,
    which the coder, without underflow handling, never renormalizes.)"""
    model = ContextModel(1, buckets=0)
    model.counts[0, 0, 0] = np.random.default_rng(1).permutation(256) + 1000
    dist = model.distribution(ImageGrid.blank(1, 1, 1), 0)
    assert dist.runs is None and len(dist.run_w) == 256
    assert list(dist.run_of) == list(range(256))
    payload = bytes(range(256)) * 2
    grid, _ = embed_image(model, 32, 32, 1, payload, prc=prc, pad_seed=3)
    assert dist.order[255] in grid.data
    assert extract_image(model, grid, prc=prc) == payload


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
        value, bits, q_width, width = embed_step(sender, dist, msg)
        sender.check()
        prefix, s = extract_step(receiver, dist, value)
        receiver.check()
        assert s == bits
        assert prefix == msg.window(ptr, s)
        assert (receiver.low, receiver.high) == (sender.low, sender.high)


class RowsAloneModel:
    """Serves PixelDistribution(table[step]) at each step: each row sorted alone and stored as
    its runs, as a distribution that serves many steps is."""

    def __init__(self, table):
        self.table = table

    def distribution(self, prefix, step):
        return PixelDistribution(self.table[step])


@st.composite
def stream_tables(draw):
    """(steps, 256) stream weights below 2^32, each row drawn from 1 to 256 distinct values
    (zeros included), over up to 384 steps, so that a stream takes a partial chunk or two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 384))):
        bits = int(rng.integers(1, 33))
        values = rng.integers(0, 1 << bits, int(rng.integers(1, 257)))
        w = np.concatenate([values, rng.choice(values, 256 - len(values))])
        w[0] += w.sum() == 0  # total > 0
        rows.append(rng.permutation(w))
    return np.array(rows)


def coded(model, steps, payload, prc, framed, seed):
    """(image, step records) of a steps x 1 embed with stats, or the error it raised."""
    try:
        grid, rep = embed_image(model, steps, 1, 1, payload, prc=prc, framed=framed,
                                pad_seed=seed, collect=True)
    except CapacityExceeded as e:
        return str(e), None
    return bytes(grid.data), rep.steps


@settings(max_examples=30, deadline=None)
@given(stream_tables(), st.integers(8, 62), st.booleans(), st.binary(max_size=8),
       st.integers(0, 2**64 - 1))
def test_stream_codes_what_rows_sorted_alone_code(weights, prc, framed, payload, seed):
    """A stream, whose rows are stored one symbol per run, embeds and extracts the bits of a
    model that sorts each step's row alone and stores it as its runs."""
    got = coded(StreamModel(weights), len(weights), payload, prc, framed, seed)
    want = coded(RowsAloneModel(weights), len(weights), payload, prc, framed, seed)
    assert got[0] == want[0]
    if want[1] is None:  # both ran out of capacity alike
        return
    for field in ("pixel_value", "bits_confirmed", "q_width", "width_before"):
        assert np.array_equal(got[1][field], want[1][field]), field
    # the tolerances of test_step_stats_of_one_symbol_rows_match_their_runs
    for field, atol in (("h_p", 0), ("h_q", 0), ("kld", 1e-12), ("jsd", 1e-12)):
        np.testing.assert_allclose(got[1][field], want[1][field], rtol=1e-12, atol=atol,
                                   err_msg=field)
    grid = ImageGrid(len(weights), 1, 1, bytearray(got[0]))
    assert extract_image(StreamModel(weights), grid, prc, framed) == extract_image(
        RowsAloneModel(weights), grid, prc, framed)


def per_step_extract(model, image, prc):
    """The extract loop that looks up each step's distribution through model.distribution, and
    locates a failure at the row, column and channel of the step it is raised in."""
    state, out = CoderState(prc), BitString()
    places = product(range(image.height), range(image.width), range(image.channels))
    try:
        for step, (row, col, channel) in enumerate(places):
            dist = model.distribution(image, step)
            prefix, s = extract_step(state, dist, image.data[step])
            out.append(prefix, s)
    except (UndecodablePixel, StreamExhausted, NotADistribution) as e:
        where = f"step {step} (row {row}, column {col}, channel {channel})"
        raise type(e)(f"{where} at prc {prc}: {e}") from None
    state.check()
    return out


def extract_outcome(extract, model, image, prc):
    """(bytes, bit length) of what `extract` recovers, or (type, message) of what it raises."""
    try:
        bits = extract(model, image, prc)
    except ValueError as e:
        return type(e), str(e)
    return bits.to_bytes(), bits.length


@st.composite
def received_images(draw):
    """(ContextModel, received image): random counts over 1 or 3 channels, 0..8 buckets and
    smooth 0 or 1, so that with smooth 0 an unseen context is no distribution and an unseen
    value undecodable; and a 1x1 to 12x12 image of random bytes, or one the model embedded."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels, buckets = draw(st.sampled_from([1, 3])), draw(st.integers(0, 8))
    rows = channels * (buckets + 1) ** 2
    # each context's counts lie below 2^bits, for bits from a drawn few: past 31, its total
    # can reach 2^40; each context is seen or not, and sees a share of the values
    bits = rng.choice(draw(st.lists(st.sampled_from([1, 4, 16, 31, 33, 41]), min_size=1)), rows)
    seen = (rng.random((rows, 256)) < rng.random((rows, 1))) & (rng.random((rows, 1)) < 0.8)
    counts = np.where(seen, rng.integers(1, 1 << bits[:, None], (rows, 256)), 0)
    model = ContextModel(channels, buckets, draw(st.integers(0, 1)), counts)
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        try:
            grid, _ = embed_image(model, width, height, channels, b"", prc=draw(st.integers(8, 62)),
                                  framed=False, pad_seed=draw(st.integers(0, 2**64 - 1)),
                                  collect=False)
            return model, grid
        except NotADistribution:
            pass
    alphabet = rng.integers(0, 256, draw(st.sampled_from([1, 2, 256])))  # few values: few contexts
    data = rng.choice(alphabet, width * height * channels).astype(np.uint8)
    return model, ImageGrid(width, height, channels, bytearray(data.tobytes()))


def heavy_context_model(smooth):
    """A gray 4-bucket model whose context (0, 0), first read at row 1, column 1, holds a count
    of 2^41; with smooth 0 only the (edge, edge) context and the first row's value 0 are seen."""
    model = ContextModel(1, buckets=4, smooth=smooth)
    model.counts[0, 0, 0, 0] = 1 << 41
    model.counts[0, 4, 4] = model.counts[0, 0, 4, 0] = 1
    return model


@settings(max_examples=120, deadline=None)
@given(received_images(), st.integers(8, 62))
@example((heavy_context_model(1), ImageGrid(4, 3, 1, bytearray(12))), 30).via(
    "a count of 2^41 first read at step 5")
@example((heavy_context_model(0), ImageGrid(4, 3, 1, bytearray([0, 7] + [0] * 10))), 30).via(
    "an undecodable pixel at step 1, before the count of 2^41")
def test_extract_gives_what_the_per_step_lookup_gives(received, prc):
    """A context model's extract, which gathers every context of the image at once, recovers
    the bits of the per-step lookup, or raises its error with its message, step included."""
    model, image = received
    got = extract_outcome(extract_bits, model, image, prc)  # first: the contexts are not sorted
    assert got == extract_outcome(per_step_extract, model, image, prc)


@st.composite
def received_streams(draw):
    """(stream table, received image, prc): a 1x1 to 12x12 image of one or three channels, and 1 to
    600 steps, or up to the image's, of weights below 2^bits for bits from a drawn few, each
    row with a share of zeros; at a few steps a negative weight, a weight of 2^40 or more, or
    an all-zero row. The image is of random bytes, or embedded at the prc where each row of
    the stream is a distribution, and with uniform rows elsewhere. At high prc a row's
    products pass int64."""
    channels = draw(st.sampled_from([1, 3]))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(1, 600) | st.integers(1, width * height * channels))
    bits = rng.choice(draw(st.lists(st.sampled_from([1, 4, 16, 31]), min_size=1)), steps)
    table = rng.integers(0, 1 << bits[:, None], (steps, 256))
    table[rng.random((steps, 256)) < rng.random((steps, 1))] = 0
    table[np.arange(steps), rng.integers(0, 256, steps)] |= 1  # total > 0
    bad = st.sampled_from([-1, 1 << 40, 0])  # one negative weight, one too large, all zero
    bad_steps = draw(st.lists(st.tuples(st.integers(0, steps - 1), bad), max_size=3))
    sender = np.ones((max(steps, width * height * channels), 256), dtype=np.int64)
    sender[:steps] = table
    for step, weight in bad_steps:
        table[step, 0 if weight else slice(None)] = weight
        sender[step] = 1
    prc = draw(st.integers(8, 62))
    if draw(st.booleans()):
        grid, _ = embed_image(StreamModel(sender), width, height, channels, b"", prc=prc,
                              framed=False, pad_seed=draw(st.integers(0, 2**64 - 1)),
                              collect=False)
        return table, grid, prc
    alphabet = rng.integers(0, 256, draw(st.sampled_from([1, 2, 256])))
    data = rng.choice(alphabet, width * height * channels).astype(np.uint8)
    return table, ImageGrid(width, height, channels, bytearray(data.tobytes())), prc


def uniform_stream(steps, bad=None):
    """A stream of `steps` uniform rows, one of them (step `bad`) with a weight of 2^40, a
    12x12 RGB image of zeros, 432 steps, that every uniform row decodes, and prc 30."""
    table = np.ones((steps, 256), dtype=np.int64)
    if bad is not None:
        table[bad, 5] = 1 << 40
    return table, ImageGrid(12, 12, 3, bytearray(432)), 30


@settings(max_examples=120, deadline=None)
@given(received_streams())
@example(uniform_stream(STREAM_CHUNK - 1)).via("a stream that ends a step before a chunk")
@example(uniform_stream(STREAM_CHUNK)).via("a stream that ends with its first chunk")
@example(uniform_stream(STREAM_CHUNK + 1)).via("a stream that ends a step into a chunk")
@example(uniform_stream(432)).via("a stream as long as the image, over two chunks")
@example(uniform_stream(600, bad=300)).via("no distribution at step 300, in the second chunk")
def test_stream_extract_gives_what_the_per_step_lookup_gives(received):
    """A stream's extract, which builds each chunk's distributions for the image, recovers the
    bits of the per-step lookup, or raises its error with its message, step included."""
    table, image, prc = received
    got = extract_outcome(extract_bits, StreamModel(table), image, prc)
    assert got == extract_outcome(per_step_extract, StreamModel(table), image, prc)


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


def records_model(kind):
    """A model of each kind that embed_image serves step by step: a 3-channel context model
    whose contexts hold both run layouts, a stream, or a fixed model."""
    rng = np.random.default_rng(7)
    if kind == "context":
        counts = rng.integers(0, 4, (12, 256))  # a few runs of equal weight
        counts[::2] = rng.permutation(1 << 12)[:256]  # 256 runs: one symbol per run
        return ContextModel(3, 1, 1, counts)
    if kind == "stream":
        return StreamModel(rng.integers(1, 1 << 20, (RECORDS_STEPS, 256)))
    weights = np.arange(1, 257) % 7 + 1
    weights[40:] = 0  # few enough values that prc 8 confirms the framed byte
    return FixedModel(weights)


RECORDS_SHAPE = (9, 7, 3)
RECORDS_STEPS = 9 * 7 * 3
INT_FIELDS = ["pixel_value", "bits_confirmed", "q_width", "width_before"]


@pytest.mark.parametrize("framed", [True, False], ids=["framed", "raw"])
@pytest.mark.parametrize("prc", [8, 26, 62])
@pytest.mark.parametrize("kind", ["context", "stream", "fixed"])
def test_records_are_what_embed_step_returns(kind, prc, framed):
    """embed_image's image and the int columns of its records are what a loop of embed_step
    over model.distribution gives; its stats are step_stats of those distributions when
    collected, and NaN when not."""
    bits = frame_encode(b"\xc5") if framed else BitString(b"\xc5")
    state, msg = CoderState(prc), BitStream(bits, 3)
    grid, model = ImageGrid.blank(*RECORDS_SHAPE), records_model(kind)
    rows, dists = [], []
    for step in range(RECORDS_STEPS):
        dists.append(model.distribution(grid, step))
        rows.append(embed_step(state, dists[-1], msg))
        grid.data[step] = rows[-1][0]
    assert msg.confirmed_ptr >= bits.length
    if kind == "context":
        assert {d.runs is None for d in dists} == {True, False}
    stats = step_stats(dists, np.array([row[3] for row in rows]))
    for collect in (True, False):
        got, rep = embed_image(records_model(kind), *RECORDS_SHAPE, b"\xc5", prc, framed, 3,
                               collect)
        assert got.data == grid.data
        assert rep.steps[INT_FIELDS].tolist() == rows
        for name, col in zip(STATS, stats.T):
            assert np.array_equal(rep.steps[name], col if collect else np.full_like(col, np.nan),
                                  equal_nan=True), name


def test_embed_holds_no_object_per_step():
    """A 96x96 RGB embed without stats holds its record array, its image and a few KiB
    besides at its peak: no Python object per step, as a list of each step's ints would be."""
    width = height = 96
    tracemalloc.start()
    try:
        grid, rep = embed_image(UniformModel(), width, height, 3, b"", framed=False, pad_seed=1,
                                collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = rep.steps.nbytes + len(grid.data)
    assert peak < held + (64 << 10), f"a peak of {peak} B for {held} B of records and image"
