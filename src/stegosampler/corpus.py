"""Synthetic desk corpora: random pen-stroke images on black, and noise."""
from __future__ import annotations

import math
import random
from array import array

import numpy as np

from .pnm import ImageGrid


def _pen_walks(count: int, width: int, height: int, rng: random.Random) -> tuple[array, ...]:
    """The pen positions of `count` stroke images: their x and y, and each image's end offset
    into them. Each image takes 1 or 2 strokes, each starting near the center."""
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
    if count > 0:
        ImageGrid.blank(width, height, channels)  # refuse a bad shape before any draw
    rng = random.Random(seed)
    xs, ys, ends = _pen_walks(count, width, height, rng)
    # a 2px-thick pen, clipped to the frame; int() and astype(np.intp) both truncate toward 0
    x, y = np.frombuffer(xs).astype(np.intp), np.frombuffer(ys).astype(np.intp)
    image = np.repeat(np.arange(len(ends)), np.diff(np.frombuffer(ends, np.int64), prepend=0))
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
