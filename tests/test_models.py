import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stegosampler.models import (
    BadMagic,
    ContextModel,
    CorruptTable,
    DegenerateModel,
    EmptyCorpus,
    FixedModel,
    MixedChannelCorpus,
    NegativeProbability,
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
from stegosampler.pnm import ImageGrid, SequencePosition, sequence_positions


def gray(rows):
    h, w = len(rows), len(rows[0])
    return ImageGrid(w, h, 1, bytearray(v for row in rows for v in row))


POS0 = SequencePosition(0, 0, 0, 0)


def context_query(left: int, up: int, buckets: int):
    """(prefix, pos) whose gray context is (left, up); bucket index `buckets` is the edge."""
    prefix = gray([[0, 0], [0, 0]])
    row, col = int(up != buckets), int(left != buckets)
    if left != buckets:
        prefix.data[2 * row] = (left * 256 + buckets - 1) // buckets
    if up != buckets:
        prefix.data[col] = (up * 256 + buckets - 1) // buckets
    return prefix, SequencePosition(2 * row + col, row, col, 0)


class TestDistribution:
    def test_uniform(self):
        d = UniformModel().distribution(None, POS0)
        assert d.total == 256
        assert (d.weights == 1).all()

    def test_degenerate(self):
        d = DegenerateModel(7).distribution(None, POS0)
        assert d.weights[7] == 1 and d.total == 1

    def test_context_trained_on_zero_image(self):
        model = train_context_model([gray([[0, 0], [0, 0]])])
        d = model.distribution(gray([[0, 0], [0, 0]]), POS0)
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
        B = model.buckets
        for left in range(B + 1):
            for up in range(B + 1):
                query = context_query(left, up, B)
                assert model.context_of(*query) == (0, left, up)
                got = model.distribution(*query)
                want = PixelDistribution(model.counts[0, left, up].astype(np.int64) + 3)
                for field in ("weights", "total", "order", "rank", "run_start", "run_w", "run_len"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (left, up)

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

    def test_file_sink(self, tmp_path):
        model = ContextModel(3, 2)
        path = tmp_path / "m.pscm"
        save_model(model, path)
        assert load_model(path).channels == 3


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
        d = model.distribution(None, SequencePosition(1, 0, 1, 0))
        assert (d.weights == table[1]).all()
        with pytest.raises(StreamExhausted):
            model.distribution(None, SequencePosition(2, 0, 2, 0))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_stream(b"PSCM" + b"\x00" * 20)

    def test_corrupt(self):
        with pytest.raises(CorruptTable):
            load_stream(save_stream(np.ones((2, 256)), None)[:-3])

    def test_file_sink(self, tmp_path):
        path = tmp_path / "s.psds"
        save_stream(np.ones((1, 256)), path)
        assert load_stream(path).steps == 1

    @pytest.mark.parametrize("value", [-1, 1 << 32, 1 << 33])
    def test_save_rejects_weights_outside_u32(self, value):
        table = np.ones((2, 256), dtype=np.int64)
        table[1, 5] = value
        with pytest.raises(ValueError):
            save_stream(table, None)

    def test_chunks_build_what_single_rows_build(self):
        # 600 steps: whole chunks and a partial one; weights from a few values, so runs are long
        rng = np.random.default_rng(4)
        table = rng.choice([0, 1, 3, 1 << 31], (600, 256))
        table[::7] = rng.integers(0, 1 << 32, (86, 256))
        table[:, 9] += 1
        table[300] = 0
        table[300, 17] = (1 << 40) - 1  # the largest weight a distribution can hold
        model = StreamModel(table)
        assert 600 % STREAM_CHUNK and 600 > 2 * STREAM_CHUNK
        for step in range(600):
            got = model.distribution(None, SequencePosition(step, 0, step, 0))
            want = PixelDistribution(table[step])
            assert got.total == want.total
            for field in ("weights", "order", "rank", "run_start", "run_w", "run_len"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (step, field)
            order = np.argsort(-table[step], kind="stable")
            assert np.array_equal(want.order, order)
            assert np.array_equal(want.rank, np.argsort(order))
            assert runs_of(table[step][order]) == list(zip(want.run_start, want.run_w, want.run_len))

    def test_invalid_step_raises_when_asked_for(self):
        table = np.ones((300, 256), dtype=np.int64)
        table[280] = 0
        model = StreamModel(table)
        for step in range(280):
            model.distribution(None, SequencePosition(step, 0, step, 0))
        with pytest.raises(ValueError, match="total 0"):
            model.distribution(None, SequencePosition(280, 0, 280, 0))

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
    pos = list(sequence_positions(img.width, img.height, 1))[idx]
    before = model.distribution(img, pos).weights.copy()
    mutate_at = data.draw(st.integers(idx, steps - 1))
    img.data[mutate_at] = data.draw(st.integers(0, 255))
    assert (model.distribution(img, pos).weights == before).all()


@settings(max_examples=20)
@given(trained_model_and_image())
def test_smoothing_floor(bundle):
    model, img = bundle
    for pos in sequence_positions(img.width, img.height, 1):
        d = model.distribution(img, pos)
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
