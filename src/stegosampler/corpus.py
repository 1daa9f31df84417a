"""Synthetic desk corpora: random pen-stroke images on black, and noise."""
from __future__ import annotations

import math
import random
from array import array
from itertools import chain, repeat, starmap

import numpy as np

from .pnm import ImageGrid


def _uniform(a: float, b: float, r: np.ndarray) -> np.ndarray:
    """`Random.uniform(a, b)` of each draw `r`, in its order of operations."""
    return a + (b - a) * r


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """`fn` (`math.cos` or `math.sin`) of each value by the libm call Python makes;
    `np.cos` and `np.sin` need not give the same bits on every build."""
    flat = map(fn, memoryview(values.ravel()))
    return np.fromiter(flat, np.float64, values.size).reshape(values.shape)


def _pen_walks(count: int, width: int, height: int, rng: random.Random) -> tuple[np.ndarray, ...]:
    """The pen positions of `count` stroke images: their x and y, and each image's end offset
    into them. Each image takes 1 or 2 strokes, each starting near the center.

    Python draws each image's stroke count and then its strokes' `rng.random()` values, as a
    walk of one `rng.uniform` per step would; numpy does that walk's arithmetic on them."""
    steps = int(1.5 * max(width, height))
    strokes = array("q")

    def draws():  # one iterator per image, each drawn after the image's stroke count
        for _ in range(count):
            strokes.append(rng.randint(1, 2))
            yield starmap(rng.random, repeat((), strokes[-1] * (3 + steps)))

    r = np.fromiter(chain.from_iterable(draws()), np.float64)
    r = r.reshape(-1, 3 + steps)  # a stroke's x, y, angle, then its turns
    # each sum runs along its stroke from start + first step, adding in the order `+=` does
    angles = _uniform(-0.5, 0.5, r[:, 3:])
    angles[:, 0] += _uniform(0, 2 * math.pi, r[:, 2])
    np.cumsum(angles, axis=1, out=angles)
    xs, ys = (_libm(trig, angles) for trig in (math.cos, math.sin))
    for pen, side, column in ((xs, width, 0), (ys, height, 1)):
        pen[:, 0] += side / 2 + _uniform(-side / 6, side / 6, r[:, column])
        np.cumsum(pen, axis=1, out=pen)
    return xs.ravel(), ys.ravel(), np.cumsum(np.frombuffer(strokes, np.int64)) * steps


def stroke_corpus(
    count: int,
    width: int = 28,
    height: int = 28,
    channels: int = 1,
    seed: int = 0,
    noise: float = 0.0,
) -> list[ImageGrid]:
    """Binary strokes (255) on a flat background (0); `noise` replaces that fraction of
    pixels with uniform values.

    Noise keeps every neighbor context populated during training, so generated
    images cannot drift into contexts the model has never seen.
    """
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    if not 0 <= noise <= 1:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    ImageGrid.blank(width, height, channels)  # refuse a bad shape before any draw
    rng = random.Random(seed)
    xs, ys, ends = _pen_walks(count, width, height, rng)
    # a 2px-thick pen, clipped to the frame; int() and astype(np.intp) both truncate toward 0
    x, y = xs.astype(np.intp), ys.astype(np.intp)
    image = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    pixels = np.zeros((len(ends), height, width, channels), dtype=np.uint8)
    for dx in (0, 1):
        for dy in (0, 1):
            px, py = x + dx, y + dy
            inside = (0 <= px) & (px < width) & (0 <= py) & (py < height)
            pixels[image[inside], py[inside], px[inside]] = 255
    images = [ImageGrid(width, height, channels, bytearray(img)) for img in pixels]
    if noise > 0:
        for img in images:
            for i in range(len(img.data)):
                if rng.random() < noise:
                    img.data[i] = rng.randrange(256)
    return images


def noise_corpus(
    count: int, width: int = 28, height: int = 28, channels: int = 1, seed: int = 0
) -> list[ImageGrid]:
    """Uniform random images; trains near-flat, high-entropy models."""
    rng = random.Random(seed)
    n = width * height * channels
    return [
        ImageGrid(width, height, channels, bytearray(rng.randbytes(n)))
        for _ in range(count)
    ]
