"""The synthetic corpora, pinned by SHA-256 so that the images and the models trained on them
cannot drift: the stroke walk's draws, the pen's rasterization and the noise pass."""
import hashlib
import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from stegosampler import corpus, models


def digest(images) -> str:
    return hashlib.sha256(b"".join(bytes(img.data) for img in images)).hexdigest()


def test_desk_corpus_and_its_model_are_pinned():
    images = corpus.stroke_corpus(500, 28, 28, 1, seed=11)
    assert {(img.width, img.height, img.channels) for img in images} == {(28, 28, 1)}
    assert digest(images) == "ebe0c8878843b951f39902e76f1724e45a0935dfab49340f21cd57548446b0af"
    pscm = models.save_model(models.train_context_model(images, buckets=4), None)
    assert hashlib.sha256(pscm).hexdigest() == (
        "718d0b2ba4cbc388318564199c52a10ae83fe8d61e6097fa710855636e60b1e3")


def test_noisy_rgb_corpus_is_pinned():
    images = corpus.stroke_corpus(60, 16, 16, 3, seed=8, noise=0.4)
    assert len(images) == 60
    assert digest(images) == "5e25034d6f523f14f66ab2dc76a221011fb83b2c947782b4895b7051b927c607"


def per_step_walks(count, width, height, rng):
    """The walk as a loop of one `rng.uniform` and one `+=` per step: the oracle of
    `corpus._pen_walks`."""
    xs, ys, ends = array("d"), array("d"), array("q")
    for _ in range(count):
        for _ in range(rng.randint(1, 2)):
            x = width / 2 + rng.uniform(-width / 6, width / 6)
            y = height / 2 + rng.uniform(-height / 6, height / 6)
            angle = rng.uniform(0, 2 * math.pi)
            for _ in range(int(1.5 * max(width, height))):
                angle += rng.uniform(-0.5, 0.5)
                x += math.cos(angle)
                y += math.sin(angle)
                xs.append(x)
                ys.append(y)
        ends.append(len(xs))
    return xs, ys, ends


@settings(deadline=None)
@given(st.integers(0, 40), st.integers(1, 80), st.integers(1, 80), st.integers())
def test_walks_match_the_per_step_loop(count, width, height, seed):
    """Bit for bit, and both leave `rng` in the same state, so the noise pass that follows
    draws what it drew after the loop."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    got = corpus._pen_walks(count, width, height, rng)
    want = per_step_walks(count, width, height, oracle_rng)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("channels, pinned", [
    (1, "964ac1b6d6dcefc9ce1c221bf31b8d59c04fdd141298c74b2f3f6f4890db5a64"),
    (3, "1d4b08f3fba5032a15076fe3e82a01a6e62cab59a703d7497efa174fea88e1a0"),
])
def test_strokes_that_leave_the_frame_are_clipped(channels, pinned):
    """In a 3x2 frame the pen leaves every edge; a pen at x or y in (-1, 0) truncates to 0,
    as int() does, so its pixel and the next are drawn."""
    xs, ys, ends = corpus._pen_walks(8, 3, 2, random.Random(0))
    assert len(ends) == 8 and ends[-1] == len(xs) == len(ys)
    for v, side in ((xs, 3), (ys, 2)):
        assert any(-1 < p < 0 for p in v) and min(v) <= -1 and max(v) >= side
    assert digest(corpus.stroke_corpus(8, 3, 2, channels, seed=0)) == pinned


def test_empty_corpus_and_bad_shapes():
    assert corpus.stroke_corpus(0, 28, 28, 1, seed=11) == []
    with pytest.raises(ValueError, match="image dimensions must be positive"):
        corpus.stroke_corpus(1, 0, 2)
    with pytest.raises(ValueError, match="channels must be 1 or 3"):
        corpus.stroke_corpus(1, 2, 2, 2)
    with pytest.raises(ValueError, match="count must not be negative"):
        corpus.stroke_corpus(-1)
    for noise in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="noise must lie in"):
            corpus.stroke_corpus(3, noise=noise)
