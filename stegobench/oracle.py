"""Computations made apart from the program, used to check its outputs.

Nothing here calls into stegosampler: the padding generator, the context rule,
the quantizer and the divergences are re-derived from their definitions, so a
fault in the program cannot hide by being repeated in its own check.
"""
from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_words(seed: int, count: int) -> list[int]:
    """The first `count` outputs of Vigna's splitmix64 generator started at `seed`."""
    out = []
    x = seed & _M64
    for _ in range(count):
        x = (x + _GOLDEN) & _M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def pad_bytes(seed: int, nbytes: int) -> bytes:
    """The first `nbytes` of the padding stream: splitmix64 words, MSB first."""
    words = splitmix64_words(seed, (nbytes + 7) // 8)
    return b"".join(w.to_bytes(8, "big") for w in words)[:nbytes]


def entropy_bits(weights: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Shannon entropy in bits of each row of non-negative weights (last axis).

    Rows go `chunk` at a time, so that the float temporaries stay small next
    to the program's own memory.
    """
    w = np.asarray(weights)
    rows = w.reshape(-1, w.shape[-1])
    out = np.empty(len(rows))
    for lo in range(0, len(rows), chunk):
        p = rows[lo : lo + chunk].astype(np.float64)
        p /= p.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log2(p), 0.0)
        out[lo : lo + chunk] = -terms.sum(axis=1)
    return out.reshape(w.shape[:-1])


def context_index(raster: bytes, width: int, height: int, channels: int, buckets: int):
    """(channel, left bucket, up bucket) of every coding step, in coding order.

    Neighbors are same-channel; a neighbor outside the image is bucket `buckets`.
    """
    img = np.frombuffer(bytes(raster), dtype=np.uint8).reshape(height, width, channels)
    b = (img.astype(np.int64) * buckets) >> 8
    left = np.full_like(b, buckets)
    left[:, 1:, :] = b[:, :-1, :]
    up = np.full_like(b, buckets)
    up[1:, :, :] = b[:-1, :, :]
    ch = np.broadcast_to(np.arange(channels), b.shape)
    return ch.ravel(), left.ravel(), up.ravel()


def quantized_widths(weights, width: int) -> list[int]:
    """Python-int partition of `width` over 256 symbols, indexed by value.

    Widths are floor(width * w / total) in the order weight-descending, ties by
    ascending value; the rounding deficit goes to the first symbol of that order.
    """
    ws = [int(x) for x in weights]
    total = sum(ws)
    q = [width * w // total for w in ws]
    top = min(range(256), key=lambda v: (-ws[v], v))
    q[top] += width - sum(q)
    return q


def kld_q_p(q_widths: list[int], width: int, weights) -> float:
    """D_KL(q || p) in bits, with each log ratio taken from exact integers."""
    ws = [int(x) for x in weights]
    total = sum(ws)
    terms = []
    for a, w in zip(q_widths, ws):
        if a == 0:
            continue
        if w == 0:
            return math.inf
        # q/p = a*total / (width*w), formed exactly before the one rounding
        den = width * w
        terms.append(a / width * math.log1p((a * total - den) / den))
    return math.fsum(terms) / math.log(2)


def logistic_mixture_weights(
    rng: np.random.Generator, steps: int, components: int = 3, scale_bits: int = 24
) -> np.ndarray:
    """u32 weights of a discretized logistic mixture per step, as PixelCNN++ emits.

    Each step draws its own means, mixture weights and one log-scale shared by
    its components, so entropies run from under 1 bit to about 8 bits. Values
    0 and 255 take the tails; floor(p * 2^scale_bits) + 1 keeps every value
    decodable.
    """
    v = np.arange(256.0)
    out = np.empty((steps, 256), dtype=np.uint32)
    for lo_step in range(0, steps, 256):
        n = min(256, steps - lo_step)
        mu = rng.uniform(-10.0, 265.0, (n, components, 1))
        log_s = rng.uniform(math.log(0.05), math.log(64.0), (n, 1, 1))
        s = np.exp(log_s + rng.normal(0.0, 0.3, (n, components, 1)))
        logits = rng.normal(0.0, 1.0, (n, components))
        pi = np.exp(logits - logits.max(axis=1, keepdims=True))
        pi /= pi.sum(axis=1, keepdims=True)
        # logistic CDF as 0.5 * (1 + tanh(x / 2)), which cannot overflow
        upper = 0.5 * (1.0 + np.tanh((v + 0.5 - mu) / (2.0 * s)))
        lower = 0.5 * (1.0 + np.tanh((v - 0.5 - mu) / (2.0 * s)))
        upper[..., 255] = 1.0
        lower[..., 0] = 0.0
        p = np.einsum("nk,nkv->nv", pi, upper - lower)
        out[lo_step : lo_step + n] = np.floor(np.clip(p, 0.0, 1.0) * (1 << scale_bits)) + 1
    return out
