"""One SHA-256 over seeded embeds and extracts, pinned so that the output bits cannot drift.

A change to the coder, the quantizer or the models that moves any pixel, any
per-step integer or any extracted byte changes this digest. Update PINNED only
with a change that is meant to produce other bits, and say so where it lands.
"""
import hashlib
import random

import numpy as np

from stegosampler import corpus, models
from stegosampler.coder import CapacityExceeded, embed_image, extract_image

PINNED = "4e5d8a629c2bdc16c425191129163b5940b29cc7bd4c86abc2e49226c6fe1fa7"
SIDE = 12  # pixels a side; the gray images are 20x20, where framed messages fit at prc 26


def seeded_stream(steps: int) -> models.StreamModel:
    """Rows of 32-bit weights, sparse rows, and rows of a few small values, with zeros."""
    rng = np.random.default_rng(7)
    table = rng.integers(0, 1 << 32, (steps, 256), dtype=np.int64)
    table[::3] >>= rng.integers(0, 32, (len(table[::3]), 1))
    table[1::5] = rng.choice([0, 0, 1, 2, 7], (len(table[1::5]), 256))
    table[2::7, rng.choice(256, 200, replace=False)] = 0
    table[:, 0] += 1  # no all-zero row
    return models.StreamModel(table)


def cases():
    gray = models.train_context_model(corpus.stroke_corpus(60, SIDE, SIDE, 1, seed=3), buckets=4)
    rgb = models.train_context_model(corpus.noise_corpus(20, SIDE, SIDE, 3, seed=3), buckets=4)
    stream = seeded_stream(SIDE * SIDE * 3)
    for name, model, side, channels in (
        ("uniform", models.UniformModel(), SIDE, 3),
        ("gray", gray, 20, 1),
        ("rgb", rgb, SIDE, 3),
        ("stream", stream, SIDE, 3),
    ):
        for prc in (8, 26, 62):
            for framed in (False, True):
                yield name, model, side, channels, prc, framed


def coding_digest() -> str:
    h = hashlib.sha256()
    for name, model, side, channels, prc, framed in cases():
        rng = random.Random(f"{name} {prc} {framed}")
        message = rng.randbytes(6 if framed else 60)
        h.update(repr((name, prc, framed)).encode())
        try:
            grid, rep = embed_image(
                model, side, side, channels, message, prc=prc, framed=framed,
                pad_seed=rng.getrandbits(64), collect=False,
            )
        except CapacityExceeded:
            h.update(b"capacity exceeded")
            continue
        steps = rep.steps
        extracted = extract_image(model, grid, prc=prc, framed=framed)
        fields = [list(grid.data)] + [
            steps[f].tolist() for f in ("bits_confirmed", "q_width", "width_before")
        ]
        h.update(repr((fields, list(extracted))).encode())
    return h.hexdigest()


def test_coding_digest_is_pinned():
    assert coding_digest() == PINNED
