import re
import struct
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stegosampler import coder
from stegosampler.bitio import BitStream, BitString
from stegosampler.corpus import noise_corpus, stroke_corpus
from stegosampler.coder import CoderState, _apply, embed_step, extract_step, quantize
from stegosampler.models import (
    ALL_RANKS,
    INT64_MAX,
    MANY_RUNS,
    BadMagic,
    ContextModel,
    CorruptTable,
    DegenerateModel,
    EmptyCorpus,
    MixedChannelCorpus,
    NegativeProbability,
    NotADistribution,
    STREAM_CHUNK,
    PixelDistribution,
    StreamExhausted,
    StreamModel,
    UniformModel,
    UnsupportedVersion,
    load_model,
    load_stream,
    save_model,
    save_stream,
    train_context_model,
    weights_from_floats,
)
from stegosampler.pnm import ImageGrid


def gray(rows):
    h, w = len(rows), len(rows[0])
    return ImageGrid(w, h, 1, bytearray(v for row in rows for v in row))


def context_query(left: int, up: int, buckets: int):
    """(prefix, step) whose gray context is (left, up); bucket index `buckets` is the edge."""
    prefix = gray([[0, 0], [0, 0]])
    row, col = int(up != buckets), int(left != buckets)
    if left != buckets:
        prefix.data[2 * row] = (left * 256 + buckets - 1) // buckets
    if up != buckets:
        prefix.data[col] = (up * 256 + buckets - 1) // buckets
    return prefix, 2 * row + col


class TestDistribution:
    def test_uniform(self):
        d = UniformModel().distribution(None, 0)
        assert d.total == 256
        assert (d.weights == 1).all()

    def test_degenerate(self):
        d = DegenerateModel(7).distribution(None, 0)
        assert d.weights[7] == 1 and d.total == 1

    def test_context_trained_on_zero_image(self):
        model = train_context_model([gray([[0, 0], [0, 0]])])
        d = model.distribution(gray([[0, 0], [0, 0]]), 0)
        assert d.weights[0] == 2
        assert (d.weights[1:] == 1).all()
        assert d.total == 257

    def test_validation(self):
        with pytest.raises(ValueError):
            PixelDistribution(np.zeros(256, dtype=np.int64))
        with pytest.raises(ValueError):
            PixelDistribution(np.ones(255, dtype=np.int64))
        w = np.ones(256, dtype=np.int64)
        w[3] = -1
        with pytest.raises(ValueError):
            PixelDistribution(w)


class TestTraining:
    def test_hand_counted_2x2(self):
        model = train_context_model([gray([[0, 0], [0, 0]])])
        B = model.buckets
        assert model.counts[0, B, B, 0] == 1  # (EDGE, EDGE)
        assert model.counts[0, 0, B, 0] == 1  # (bucket(0), EDGE)
        assert model.counts[0, B, 0, 0] == 1  # (EDGE, bucket(0))
        assert model.counts[0, 0, 0, 0] == 1
        assert model.counts.sum() == 4

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_context_model([])

    def test_mixed_channels(self):
        imgs = [gray([[0]]), ImageGrid(1, 1, 3, bytearray(3))]
        with pytest.raises(MixedChannelCorpus):
            train_context_model(imgs)

    def test_contexts_built_at_once_match_single_rows(self):
        model = train_context_model([gray([[1, 200], [30, 4]]), gray([[255, 0], [9, 9]])], smooth=3)
        model.counts[0, 2, 5] = 0
        model.counts[0, 2, 5, 9] = (1 << 40) - 1 - 256 * 3  # the largest total a context can hold
        model.counts[0, 3, 4] = np.arange(256) * 7 % 256  # 256 runs: kept as int64 runs
        B = model.buckets
        layouts = set()
        for left in range(B + 1):
            for up in range(B + 1):
                query = context_query(left, up, B)
                assert model.context_of(*query) == left * (B + 1) + up
                got = model.distribution(*query)
                want = PixelDistribution(model.counts[0, left, up].astype(np.int64) + 3)
                for field in ("weights", "total", "run_start", "run_w", "run_len", "run_of"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (left, up)
                assert (got.top, got.order, got.runs) == (want.top, want.order, want.runs)
                # order is bytes in either layout, and a value's rank is its index there
                rank = np.argsort(np.argsort(-want.weights, kind="stable")).tolist()
                assert type(got.order) is bytes, (left, up)
                assert [got.order.index(v) for v in range(256)] == rank, (left, up)
                layouts.add(got.runs is None)
        assert layouts == {False, True}  # run rows and a row past MANY_RUNS

    @pytest.mark.parametrize("channels", [1, 3])
    def test_training_counts_the_rows_lookup_reads(self, channels):
        images = stroke_corpus(3, 9, 7, channels, seed=4, noise=0.2)
        model = train_context_model(images, buckets=5)
        rows = model.counts.reshape(-1, 256)
        for img in images:
            for step in range(img.steps):
                assert rows[model.context_of(img, step), img.data[step]] > 0, step

    def test_invalid_context_raises_when_asked_for(self):
        model = train_context_model([gray([[0, 0], [0, 0]])], smooth=0)
        B = model.buckets
        model.counts[0, 3, 3, 7] = 1 << 40
        assert model.distribution(*context_query(B, B, B)).total == 1  # (EDGE, EDGE) was seen
        with pytest.raises(ValueError, match="total 0"):
            model.distribution(*context_query(1, 1, B))  # never seen, smooth 0
        with pytest.raises(ValueError, match=r"total 1099511627776 outside"):
            model.distribution(*context_query(3, 3, B))
        assert model.distribution(*context_query(0, 0, B)).total == 1

    def test_context_whose_total_passes_int64_raises(self):
        """Four counts of 2^62 and smoothing sum to 2^64 + 260, which an int64 row sum wraps to
        260; every weight must be below 2^40, so the loaded context raises, naming a weight."""
        model = ContextModel(1, buckets=4, smooth=1)
        model.counts[0, 4, 4, :4] = 1 << 62
        model.counts[0, 4, 4, 4] = 4
        model = load_model(save_model(model, None))
        total = 4 * ((1 << 62) + 1) + 5 + 251
        want = f"weight {(1 << 62) + 1} of value 0 is not below 2^40, total {total} outside"
        with pytest.raises(ValueError, match=re.escape(want)):
            model.distribution(*context_query(4, 4, 4))
        assert model.distribution(*context_query(0, 0, 4)).total == 256  # never seen

    @pytest.mark.parametrize("count", [1 << 63, (1 << 64) - 1])
    def test_context_count_past_int64_raises_naming_it(self, count):
        """A stored count of 2^63 or more is no int64: it is named exactly, not as a negative
        weight, and 2^64 - 1 does not wrap to a weight of 0 that would code."""
        model = ContextModel(1, buckets=4, smooth=1)
        model.counts[0, 4, 4, 0] = count
        model.counts[0, 4, 4, 1] = 5
        model = load_model(save_model(model, None))
        want = f"weight {count + 1} of value 0 is not below 2^40, total {count + 1 + 6 + 254} "
        with pytest.raises(ValueError, match=re.escape(want)):
            model.distribution(*context_query(4, 4, 4))
        assert model.distribution(*context_query(0, 0, 4)).total == 256  # never seen

    def test_duplication_doubles_counts(self):
        imgs = [gray([[1, 200], [30, 4]]), gray([[255, 0], [9, 9]])]
        once = train_context_model(imgs)
        twice = train_context_model(imgs + imgs)
        assert (twice.counts == 2 * once.counts).all()


class TestSerialization:
    def test_roundtrip(self):
        model = train_context_model([gray([[0, 0], [0, 0]])], buckets=4, smooth=2)
        back = load_model(save_model(model, None))
        assert (back.channels, back.buckets, back.smooth) == (1, 4, 2)
        assert (back.counts == model.counts).all()

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_model(b"NOPE" + b"\x00" * 100)

    def test_unsupported_version(self):
        blob = bytearray(save_model(ContextModel(1, 2), None))
        blob[4] = 9
        with pytest.raises(UnsupportedVersion):
            load_model(bytes(blob))

    def test_truncated_table(self):
        blob = save_model(ContextModel(1, 2), None)
        with pytest.raises(CorruptTable):
            load_model(blob[:-5])

    def test_channels_are_one_or_three(self):
        """A channel count an image cannot have is refused, in the constructor and so on load,
        and not by the u8 header field it would overflow."""
        for channels, buckets in ((0, 1), (2, 4), (256, 1)):
            with pytest.raises(ValueError, match=f"channels {channels} "):
                ContextModel(channels, buckets)
        header = struct.pack("<4sHBBI", b"PSCM", 1, 2, 3, 1)  # 2 channels, 3 buckets
        with pytest.raises(ValueError, match="channels 2 "):
            load_model(header + bytes(2 * 4 * 4 * 256 * 8))

    def test_file_sink(self, tmp_path):
        model = ContextModel(3, 2)
        path = tmp_path / "m.pscm"
        save_model(model, path)
        assert load_model(path).channels == 3


@pytest.mark.parametrize("kind", ["stream", "model"])
def test_loading_holds_one_copy_of_the_file(kind, tmp_path):
    """A load keeps a view of the bytes it read as its table: from a path it peaks at about one
    file size, and from bytes it allocates next to nothing."""
    path = tmp_path / "big"
    if kind == "stream":
        save_stream(np.ones((1 << 14, 256), dtype=np.int64), path)  # 16 MiB
        load = load_stream
    else:
        save_model(ContextModel(1, 90), path)  # 91^2 contexts of 256 u64: 16.2 MiB
        load = load_model
    size = path.stat().st_size
    for source, most in ((path, 1.05 * size), (path.read_bytes(), 0.05 * size)):
        tracemalloc.start()
        try:
            load(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < most, f"peak {peak} B loading a {size} B file from {type(source).__name__}"


@pytest.mark.parametrize("kind", ["stream", "model"])
def test_saving_holds_one_copy_of_the_table(kind):
    """A save joins its header and a view of the table in one step: it peaks at the table's
    size and a little more, not at twice it."""
    if kind == "stream":
        table = np.ones((1 << 14, 256), dtype="<u4")  # 16 MiB
        save, arg = save_stream, table
    else:
        arg = ContextModel(1, 90)  # 91^2 contexts of 256 u64: 16.2 MiB
        save, table = save_model, arg.counts
    tracemalloc.start()
    try:
        save(arg, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + (64 << 10), f"peak {peak} B saving a {table.nbytes} B table"


def runs_of(sorted_weights) -> list[tuple[int, int, int]]:
    """(first rank, weight, length) of each run: rank 0 alone, then ranks of equal weight."""
    runs = [[0, sorted_weights[0], 1]]
    for k in range(1, 256):
        if k > 1 and sorted_weights[k] == runs[-1][1]:
            runs[-1][2] += 1
        else:
            runs.append([k, sorted_weights[k], 1])
    return [tuple(r) for r in runs]


class TestStream:
    def test_roundtrip_and_exhaustion(self):
        table = np.arange(2 * 256).reshape(2, 256) % 7 + 1
        model = load_stream(save_stream(table, None))
        assert model.steps == 2
        d = model.distribution(None, 1)
        assert (d.weights == table[1]).all()
        with pytest.raises(StreamExhausted):
            model.distribution(None, 2)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_stream(b"PSCM" + b"\x00" * 20)

    def test_rejects_a_table_of_another_shape(self):
        with pytest.raises(ValueError, match="steps, 256"):
            StreamModel(np.ones((2, 255)))

    def test_corrupt(self):
        with pytest.raises(CorruptTable):
            load_stream(save_stream(np.ones((2, 256)), None)[:-3])

    def test_file_sink(self, tmp_path):
        path = tmp_path / "s.psds"
        save_stream(np.ones((1, 256)), path)
        assert load_stream(path).steps == 1

    @pytest.mark.parametrize("value", [
        -1, 1 << 32, 1 << 33, 1.5, -0.5, 2.0 ** 32 - 0.5, np.nan, np.inf, -np.inf])
    def test_save_rejects_weights_outside_u32(self, value):
        """Of an integer table, and of a float table, which must hold integers only."""
        table = np.ones((2, 256), dtype=np.float64 if isinstance(value, float) else np.int64)
        table[1, 5] = value
        with pytest.raises(ValueError, match="stream weights must"):
            save_stream(table, None)

    @pytest.mark.parametrize("shape", [(256,), (2, 255), (2, 256, 1), (1, 2, 256)])
    def test_save_rejects_a_table_not_shaped_steps_by_256(self, shape):
        with pytest.raises(ValueError, match=r"\(steps, 256\)"):
            save_stream(np.ones(shape, dtype=np.int64), None)

    def test_save_rejects_a_table_of_no_integer_or_float_dtype(self):
        with pytest.raises(ValueError, match="must be integers"):
            save_stream(np.full((1, 256), 1 + 0j), None)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64, np.float32,
                                       np.float64, bool])
    def test_save_keeps_integral_weights_of_any_dtype(self, dtype):
        table = (np.arange(3 * 256).reshape(3, 256) % 5 + 1).astype(dtype)
        table[2, 9] = 0
        assert (load_stream(save_stream(table, None)).table == table.astype(np.int64)).all()

    def test_chunks_build_what_single_rows_build(self):
        """A stream's distribution serves one step, so each chunk row is stored one symbol per
        run, whatever its run count, and tiles to what the row alone, stored as its runs,
        tiles to. The row alone keeps the layout of its run count: pairs up to MANY_RUNS runs,
        int64 run arrays above."""
        # 600 steps: whole chunks and a partial one; weights from a few values, so runs are long
        rng = np.random.default_rng(4)
        table = rng.choice([0, 1, 3, 1 << 31], (600, 256))
        table[::7] = rng.integers(0, 1 << 32, (86, 256))
        # from 17 to 256 values: rows on both sides of MANY_RUNS
        for step in range(3, 600, 7):
            table[step] = rng.choice(rng.integers(0, 1 << 20, step % 240 + 17), 256)
        table[:, 9] += 1
        for step, runs in zip((12, 13), (MANY_RUNS, MANY_RUNS + 1)):
            table[step] = rng.permutation([max(runs - v, 1) for v in range(256)])  # `runs` runs
        table[300] = 0
        table[300, 17] = (1 << 40) - 1  # the largest weight a distribution can hold
        model = StreamModel(table)
        assert 600 % STREAM_CHUNK and 600 > 2 * STREAM_CHUNK
        layouts = [len(runs_of(np.sort(row)[::-1])) for row in table]
        assert {MANY_RUNS, MANY_RUNS + 1} <= set(layouts)
        assert min(layouts) < MANY_RUNS and max(layouts) > MANY_RUNS + 1
        states = [CoderState(8), CoderState(26, low=12345, high=(1 << 26) - 7), CoderState(62)]
        past_int64 = {state.prc: 0 for state in states}  # steps tiled in Python ints
        for step in range(600):
            got = model.distribution(None, step)
            want = PixelDistribution(table[step])
            assert (got.total, got.top) == (want.total, want.top)
            assert type(got.top) is int and got.top == got.run_w[0]
            assert np.array_equal(got.weights, want.weights), step
            order = np.argsort(-table[step], kind="stable")
            assert list(got.order) == list(want.order) == order.tolist(), step
            # one symbol per run: order is bytes, and a value's rank is its index there
            assert type(got.order) is bytes and got.runs is None, step
            assert [got.order.index(v) for v in range(256)] == np.argsort(order).tolist(), step
            assert got.run_start is ALL_RANKS, step
            assert np.array_equal(got.run_w, table[step][order]), step
            assert got.run_len is None and got.run_of is ALL_RANKS, step
            # the standalone distribution serves many steps, so it keeps its runs
            runs = runs_of(table[step][order])
            assert type(want.order) is bytes, step
            assert [want.order.index(v) for v in range(256)] == np.argsort(order).tolist(), step
            assert list(want.run_start) == [first for first, _, _ in runs] + [256], step
            if len(runs) > MANY_RUNS:  # int64 run arrays
                assert want.runs is None, step
                assert want.run_w.tolist() == [w for _, w, _ in runs], step
                assert want.run_len.tolist() == [n for _, _, n in runs], step
            else:
                assert want.run_w is None and want.run_len is None, step
                assert want.runs == tuple((w, n) for _, w, n in runs), step
                assert all(type(x) is int for pair in want.runs for x in pair), step
            for state in states:
                past_int64[state.prc] += state.width * got.top > INT64_MAX
                assert quantize(got, state).cut == quantize(want, state).cut, (step, state.prc)
        # at prc 62 every row (top weight >= 2), at prc 26 the row of top weight 2^40 - 1
        assert past_int64 == {8: 0, 26: 1, 62: 600}

    def test_invalid_step_raises_when_asked_for(self):
        table = np.ones((300, 256), dtype=np.int64)
        table[280] = 0
        model = StreamModel(table)
        for step in range(280):
            model.distribution(None, step)
        with pytest.raises(NotADistribution, match="total 0"):
            model.distribution(None, 280)

    def test_lookups_after_a_pass_match_a_fresh_model(self):
        """Lookups that go back after a pass over 3.5 chunks, as a second pass over an image
        does, give the rows a fresh model gives."""
        table = np.random.default_rng(6).integers(1, 1 << 16, (4 * STREAM_CHUNK, 256))
        model = StreamModel(table)
        for step in range(7 * STREAM_CHUNK // 2):
            model.distribution(None, step)
        for step in (5, 300, 700):
            got, want = model.distribution(None, step), StreamModel(table).distribution(None, step)
            for field in ("weights", "total", "order", "run_w"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (step, field)

    def test_bad_row_past_the_image_is_never_reached(self):
        """A lookup builds a whole chunk, past the image's end on a longer stream: a bad row
        there is built and never raises, and extract recovers the bits."""
        table = np.random.default_rng(7).integers(1, 1 << 12, (STREAM_CHUNK, 256))
        table[100] = 0
        image, _ = coder.embed_image(StreamModel(table), 6, 4, 3, b"\xa5\x0f", framed=False,
                                     pad_seed=2, collect=True)
        got = coder.extract_image(StreamModel(table), image, framed=False)
        assert got[:2] == b"\xa5\x0f"

    def test_load_rejects_all_zero_step(self):
        table = np.ones((3, 256), dtype=np.int64)
        table[1] = 0
        with pytest.raises(CorruptTable, match="step 1"):
            load_stream(save_stream(table, None))


class TestWeightsFromFloats:
    def test_uniform(self):
        d = weights_from_floats([1 / 256] * 256)
        assert (d.weights == (1 << 23) + 1).all()
        assert d.total == 256 * ((1 << 23) + 1)

    def test_point_mass(self):
        probs = [0.0] * 256
        probs[9] = 1.0
        d = weights_from_floats(probs)
        assert d.weights[9] == (1 << 31) + 1
        assert d.weights[0] == 1

    def test_negative(self):
        probs = [1 / 255] * 256
        probs[0] = -1 / 255
        with pytest.raises(NegativeProbability):
            weights_from_floats(probs)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            weights_from_floats([0.5 / 256] * 256)

    def test_needs_256_probabilities(self):
        with pytest.raises(ValueError, match="256"):
            weights_from_floats([1 / 255] * 255)


@st.composite
def trained_model_and_image(draw):
    w = draw(st.integers(2, 5))
    h = draw(st.integers(2, 5))
    imgs = []
    for _ in range(draw(st.integers(1, 3))):
        data = draw(st.binary(min_size=w * h, max_size=w * h))
        imgs.append(ImageGrid(w, h, 1, bytearray(data)))
    model = train_context_model(imgs, buckets=draw(st.sampled_from([4, 16])))
    query = ImageGrid(w, h, 1, bytearray(draw(st.binary(min_size=w * h, max_size=w * h))))
    return model, query


@settings(max_examples=40)
@given(trained_model_and_image(), st.data())
def test_causality(bundle, data):
    model, img = bundle
    steps = img.width * img.height
    idx = data.draw(st.integers(0, steps - 1))
    before = model.distribution(img, idx).weights.copy()
    mutate_at = data.draw(st.integers(idx, steps - 1))
    img.data[mutate_at] = data.draw(st.integers(0, 255))
    assert (model.distribution(img, idx).weights == before).all()


@settings(max_examples=20)
@given(trained_model_and_image())
def test_smoothing_floor(bundle):
    model, img = bundle
    for step in range(img.steps):
        d = model.distribution(img, step)
        assert d.weights.min() >= 1
        assert d.total == d.weights.sum()


@settings(max_examples=20)
@given(st.permutations(list(range(4))))
def test_training_order_independent(perm):
    imgs = [
        gray([[0, 255], [4, 8]]),
        gray([[7, 7], [7, 7]]),
        gray([[250, 1], [128, 130]]),
        gray([[0, 0], [0, 1]]),
    ]
    base = train_context_model(imgs)
    shuffled = train_context_model([imgs[i] for i in perm])
    assert (base.counts == shuffled.counts).all()


@st.composite
def many_step_distributions(draw):
    """(weights, distribution) of a distribution that serves many steps: random weights with
    ties, a row of MANY_RUNS runs or one more or of 256, or a trained context."""
    kind = draw(st.sampled_from(["ties", "edge", "context"]))
    if kind == "context":
        model, _ = draw(trained_model_and_image())
        B = model.buckets
        left, up = draw(st.integers(0, B)), draw(st.integers(0, B))
        weights = model.counts[0, left, up].astype(np.int64) + model.smooth
        return weights, model.distribution(*context_query(left, up, B))
    if kind == "ties":
        values = draw(st.lists(st.integers(2, (1 << 32) - 1), min_size=1, max_size=256))
        weights = draw(st.lists(st.sampled_from([0, *values]), min_size=256, max_size=256))
        weights[draw(st.integers(0, 255))] = values[0]  # total > 0
    else:
        runs = draw(st.sampled_from([MANY_RUNS, MANY_RUNS + 1, 256]))
        scale = draw(st.integers(1, 1 << 24))
        weights = draw(st.permutations([max(runs - v, 1) * scale for v in range(256)]))
    return np.array(weights, dtype=np.int64), PixelDistribution(weights)


def codes_by_rank_past_int64(dist, pixel) -> None:
    """At prc 62 the products of a row kept as int64 arrays pass int64, so `quantize` walks
    those arrays in Python ints; the pixel still codes to its cell of the per-symbol cut."""
    assert dist.runs is None and CoderState(62).width * dist.top > INT64_MAX
    part = quantize(dist, CoderState(62))
    assert type(part.ends) is list
    cut, k = part.cut, dist.order.index(pixel)
    if k + 1 >= len(cut):
        with pytest.raises(coder.UndecodablePixel):
            extract_step(CoderState(62), dist, pixel)
        return
    want = CoderState(62)
    s, prefix = _apply(want, cut[k], cut[k + 1] - cut[k])
    got = CoderState(62)
    assert extract_step(got, dist, pixel) == (prefix, s)
    assert (got.low, got.high) == (want.low, want.high)
    window = BitStream(BitString((cut[k] << 2).to_bytes(8, "big"), 62), 0)
    value, bits, q_width, width = embed_step(CoderState(62), dist, window)
    assert (value, bits, q_width) == (pixel, s, cut[k + 1] - cut[k])


@settings(max_examples=120, deadline=None)
@given(many_step_distributions(), st.integers(0, 255))
def test_many_step_lookups_are_python_ints_that_match_the_sort(bundle, pixel):
    """A distribution that serves many steps keeps its step lookups as Python ints, and they
    are what the numpy sort gives. A row kept as int64 run arrays, here or one symbol per run
    in a stream, still codes to its cell where its products pass int64."""
    weights, dist = bundle
    order = np.argsort(-weights, kind="stable")
    assert list(dist.order) == order.tolist()
    # order is bytes in either layout, and a value's rank is its index there
    assert type(dist.order) is bytes
    assert [dist.order.index(v) for v in range(256)] == np.argsort(order).tolist()
    runs = runs_of(weights[order])
    lookups = [dist.order, dist.run_start, dist.run_of]
    assert list(dist.run_start) == [first for first, _, _ in runs] + [256]
    assert list(dist.run_of) == [bisect_right(dist.run_start, k) - 1 for k in range(256)]
    if dist.runs is None:  # int64 run arrays
        assert len(runs) > MANY_RUNS
        assert dist.run_w.dtype == dist.run_len.dtype == np.int64
        assert dist.run_w.base is dist.run_len.base is None  # view none of the sorted table
        assert list(zip(dist.run_w.tolist(), dist.run_len.tolist())) == [r[1:] for r in runs]
    else:
        lookups += dist.runs
        assert dist.run_w is dist.run_len is None
    assert all(type(x) is int for table in lookups for x in table)
    if dist.top > 1:  # a top weight of 1 keeps every product at prc 62 within int64
        if dist.runs is None:
            codes_by_rank_past_int64(dist, pixel)
        codes_by_rank_past_int64(StreamModel(weights[None]).distribution(None, 0), pixel)


def test_all_ranks_is_a_read_only_identity_that_numpy_reads_in_place():
    """ALL_RANKS, the run_start and run_of of every row stored one symbol per run, holds 0..256
    as Python ints, refuses a write, and numpy reads it without a copy, as `cut` does."""
    assert list(ALL_RANKS) == list(range(257))
    assert all(type(k) is int for k in ALL_RANKS)
    with pytest.raises(TypeError):
        ALL_RANKS[0] = 1
    with pytest.raises(ValueError):
        np.asarray(ALL_RANKS)[0] = 1
    assert np.shares_memory(np.asarray(ALL_RANKS), np.asarray(ALL_RANKS))


def test_sorted_contexts_stay_compact():
    """A context's step lookups are compact arrays, and its runs are pairs of Python ints or,
    above MANY_RUNS, int64 arrays, that view none of the (contexts, 256) tables they were cut
    from: sorting the 75 contexts of an RGB noise model holds under 4.5 KiB per distinct
    distribution."""
    model = train_context_model(noise_corpus(100, 32, 32, 3, seed=3), buckets=4)
    tracemalloc.start()
    try:
        model.distribution(ImageGrid.blank(1, 1, 3), 0)  # sorts every context
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    distinct = {id(d): d for d in model._dists}.values()
    assert len(distinct) == 75
    for d in distinct:
        assert (d.runs is None) == (len(d.run_start) - 1 > MANY_RUNS)
        assert type(d.runs) is tuple or d.run_w.base is d.run_len.base is None
    assert held < 4.5 * 1024 * len(distinct), f"{held} B held for {len(distinct)} distributions"


def test_context_rows_holds_two_image_sized_arrays():
    """context_rows holds the image's bucketed values and the rows it returns, and no third
    uint32 array of the image's size: the left neighbour's product goes into the rows."""
    vals = np.random.default_rng(0).integers(0, 256, (1, 128, 128, 3), dtype=np.uint8)
    model = ContextModel(3, 16)
    tracemalloc.start()
    try:
        rows = model.context_rows(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows.nbytes, f"a peak of {peak} B for {rows.nbytes} B of rows"


@st.composite
def image_stacks(draw):
    """Images of one to three shapes within 9x9, with one channel count, and a bucket count."""
    channels = draw(st.sampled_from([1, 3]))
    shapes = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=3))
    images = []
    for w, h in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=5)):
        data = draw(st.binary(min_size=w * h * channels, max_size=w * h * channels))
        images.append(ImageGrid(w, h, channels, bytearray(data)))
    return images, draw(st.sampled_from([0, 1, 4, 16, 255]))


@settings(max_examples=60, deadline=None)
@given(image_stacks())
def test_context_rows_is_context_of_everywhere(bundle):
    """The array form of the context rule gives context_of at every step, and training a
    corpus of mixed shapes counts what context_of reads, and what training each image alone
    counts. Training runs at 16 buckets at most: at 255, every context an image touches maps a
    page of a 400 MB table."""
    images, buckets = bundle
    model = ContextModel(images[0].channels, buckets)
    for img in images:
        vals = np.frombuffer(img.data, dtype=np.uint8).reshape(1, img.height, img.width, -1)
        rows = model.context_rows(vals)
        assert rows.dtype == np.uint32
        assert rows.ravel().tolist() == [model.context_of(img, step) for step in range(img.steps)]
    model = train_context_model(images, min(buckets, 16))
    want = np.zeros_like(model.counts).reshape(-1, 256)
    for img in images:
        for step in range(img.steps):
            want[model.context_of(img, step), img.data[step]] += 1
    assert np.array_equal(model.counts.reshape(-1, 256), want)
    alone = sum(train_context_model([img], model.buckets).counts for img in images)
    assert np.array_equal(model.counts, alone)


WHOLE_NUMBER_BUILDERS = {
    "distribution": lambda w: PixelDistribution(np.full(256, w)).weights,
    "stream": lambda w: StreamModel(np.full((4, 256), w)).distribution(None, 0).weights,
    "context counts": lambda w: ContextModel(1, 4, counts=np.full((1, 5, 5, 256), w)).counts,
    "saved stream": lambda w: load_stream(save_stream(np.full((4, 256), w), None)).table,
}


@pytest.mark.parametrize("build", WHOLE_NUMBER_BUILDERS.values(), ids=WHOLE_NUMBER_BUILDERS)
def test_weights_that_are_no_whole_numbers_are_refused_not_truncated(build):
    """Every table of weights or counts refuses a fraction or NaN that an integer cast would
    truncate, as saving a stream does, and keeps floats that are whole numbers exactly."""
    for bad in (1.7, 2.9, 1.5, np.nan):
        with pytest.raises(ValueError, match="must be integers"):
            build(bad)
    assert (build(2.0) == 2).all() and (build(np.float32(3)) == 3).all()


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_whole_float_weight_past_int64_is_named_exactly():
    """numpy stores a list holding 2^63 as floats, which pass as whole numbers; the weight is
    named exactly, not as the negative weight that its cast to int64 gives."""
    want = f"weight {1 << 63} of value 0 is not below 2^40, total {(1 << 63) + 255} outside"
    with pytest.raises(NotADistribution, match=re.escape(want)):
        PixelDistribution([1 << 63] + [1] * 255)


@pytest.mark.parametrize(
    "weight, why",
    [
        (1 << 64, f"weight {1 << 64} of value 0 is not below 2^40, total {(1 << 64) + 255} outside"),
        (-(1 << 70), "weights must be non-negative"),
    ],
    ids=["2^64", "-2^70"],
)
def test_int_weight_past_int64_is_named_exactly(weight, why):
    """numpy keeps a list holding an int past int64 as objects, which are whole numbers: the
    distribution names why its weights are none, as it does for a float past int64."""
    with pytest.raises(NotADistribution, match=re.escape(why)):
        PixelDistribution([weight] + [1] * 255)


def test_stream_of_int_objects_codes_and_names_a_weight_past_int64():
    """A stream table of Python ints codes as its int64 copy would; a row holding an int past
    int64 is refused, at its own step, for what it is."""
    table = np.array([[5] * 256, [1 << 64] + [1] * 255, [3] * 256], dtype=object)
    assert StreamModel(table).distribution(None, 0).total == 5 * 256
    with pytest.raises(NotADistribution, match=rf"^step 1 .* weight {1 << 64} of value 0 is not"):
        coder.embed_image(StreamModel(table), 3, 1, 1, b"", framed=False, pad_seed=0)
    table[1] = 4
    got = coder.embed_image(StreamModel(table), 3, 1, 1, b"\x9e", framed=False, pad_seed=0)
    want = coder.embed_image(
        StreamModel(table.astype(np.int64)), 3, 1, 1, b"\x9e", framed=False, pad_seed=0)
    assert got[0].data == want[0].data


def test_context_counts_outside_uint64_are_refused_not_wrapped():
    """Counts given as Python ints are held as uint64 when they fit. A count outside uint64,
    be it a Python int, an int64 or a float, is refused with a ValueError: not with an
    OverflowError, and not cast into a count of about 2^64."""
    counts = np.full((1, 5, 5, 256), 7, dtype=object)
    assert (ContextModel(1, 4, counts=counts).counts == 7).all()
    for dtype, bad in ((object, -1), (object, 1 << 64), (np.int64, -1), (float, 2.0**64)):
        table = counts.astype(dtype)
        table[0, 1, 2, 3] = bad
        with pytest.raises(ValueError, match=re.escape("counts must lie in [0, 2^64)")):
            ContextModel(1, 4, counts=table)


def test_saved_stream_of_int_objects_is_range_checked():
    """save_stream writes a table of Python ints that fit u32, and names the range of one that
    does not."""
    table = np.full((2, 256), 9, dtype=object)
    assert (load_stream(save_stream(table, None)).table == 9).all()
    table[1, 3] = 1 << 64
    with pytest.raises(ValueError, match=re.escape("stream weights must lie in [0, 2^32)")):
        save_stream(table, None)
