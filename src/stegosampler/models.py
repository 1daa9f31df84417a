"""Per-step pixel distributions: pluggable models, training, serialization."""
from __future__ import annotations

import math
import struct
from typing import Iterable, Sequence

import numpy as np

from .pnm import ImageGrid, SequencePosition, read_bytes, write_bytes

WEIGHT_TOTAL_LIMIT = 1 << 40  # headroom for interval multiplication at prc <= 62

MODEL_MAGIC = b"PSCM"
STREAM_MAGIC = b"PSDS"
EDGE = -1  # out-of-image neighbor sentinel (stored as bucket index B)


class EmptyCorpus(ValueError):
    pass


class MixedChannelCorpus(ValueError):
    pass


class BadMagic(ValueError):
    pass


class UnsupportedVersion(ValueError):
    pass


class CorruptTable(ValueError):
    pass


class NegativeProbability(ValueError):
    pass


class StreamExhausted(ValueError):
    pass


class PixelDistribution:
    """256 non-negative integer weights; weights[v]/total is p(v)."""

    __slots__ = ("weights", "total", "order", "sorted_weights", "rank", "_h_bits")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != (256,):
            raise ValueError("need exactly 256 weights")
        if w.min() < 0:
            raise ValueError("weights must be non-negative")
        total = int(w.sum())
        if not 0 < total < WEIGHT_TOTAL_LIMIT:
            raise ValueError(f"total {total} outside (0, 2^40)")
        self.weights = w
        self.total = total
        # symbols sorted by weight descending, ties by ascending value
        self.order = np.argsort(-w, kind="stable")
        self.sorted_weights = w[self.order]  # non-increasing
        self.rank = np.argsort(self.order)  # inverse of order: order[rank[v]] == v
        self._h_bits = None

    @property
    def entropy_bits(self) -> float:
        if self._h_bits is None:
            self._h_bits = shannon_bits(self.weights / self.total)
        return self._h_bits


def shannon_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class FixedModel:
    """The same explicit distribution at every step."""

    def __init__(self, weights):
        self._dist = PixelDistribution(weights)

    def distribution(self, prefix, pos) -> PixelDistribution:
        return self._dist


class UniformModel(FixedModel):
    """Every value equally likely at every step."""

    def __init__(self):
        super().__init__(np.ones(256, dtype=np.int64))


class DegenerateModel(FixedModel):
    """Point mass on a single value; zero-capacity edge case."""

    def __init__(self, value: int):
        w = np.zeros(256, dtype=np.int64)
        w[value] = 1
        super().__init__(w)


class StreamModel:
    """Distributions precomputed by an external process, one per step.

    One embed or extract asks for each step once, so distributions are built
    on request and not kept.
    """

    def __init__(self, weights_per_step: np.ndarray):
        self.table = np.asarray(weights_per_step)
        if self.table.ndim != 2 or self.table.shape[1] != 256:
            raise ValueError("stream table must be (steps, 256)")

    @property
    def steps(self) -> int:
        return self.table.shape[0]

    def distribution(self, prefix, pos) -> PixelDistribution:
        if pos.index >= self.steps:
            raise StreamExhausted(f"stream has {self.steps} steps, step {pos.index} requested")
        return PixelDistribution(self.table[pos.index])


def _bucket(value: int, buckets: int) -> int:
    return (value * buckets) >> 8


class ContextModel:
    """Causal count model over (same-channel left, up) neighbors, bucketed.

    Contexts index a C x (B+1) x (B+1) table of 256-way occurrence counts;
    bucket index B is the EDGE bucket for out-of-image neighbors. Emitted
    weights are counts + k_s, so no value ever has zero probability.
    """

    def __init__(self, channels: int, buckets: int = 16, smooth: int = 1, counts=None):
        # the PSCM header stores buckets as u8 and smooth as u32
        if not 0 <= buckets <= 255:
            raise ValueError(f"buckets {buckets} outside 0..255")
        if not 0 <= smooth < 1 << 32:
            raise ValueError(f"smooth {smooth} outside 0..2^32-1")
        self.channels = channels
        self.buckets = buckets
        self.smooth = smooth
        shape = (channels, buckets + 1, buckets + 1, 256)
        if counts is None:
            counts = np.zeros(shape, dtype=np.uint64)
        else:
            counts = np.asarray(counts, dtype=np.uint64).reshape(shape)
        self.counts = counts
        self._cache: dict[tuple[int, int, int], PixelDistribution] = {}

    def context_of(self, prefix: ImageGrid, pos: SequencePosition) -> tuple[int, int, int]:
        B = self.buckets
        left = B if pos.col == 0 else _bucket(prefix.at(pos.row, pos.col - 1, pos.channel), B)
        up = B if pos.row == 0 else _bucket(prefix.at(pos.row - 1, pos.col, pos.channel), B)
        return pos.channel, left, up

    def distribution(self, prefix: ImageGrid, pos: SequencePosition) -> PixelDistribution:
        key = self.context_of(prefix, pos)
        d = self._cache.get(key)
        if d is None:
            d = PixelDistribution(self.counts[key].astype(np.int64) + self.smooth)
            self._cache[key] = d
        return d


def train_context_model(
    corpus: Iterable[ImageGrid], buckets: int = 16, smooth: int = 1
) -> ContextModel:
    """Count (context, value) occurrences over the corpus; order-independent."""
    images = list(corpus)
    if not images:
        raise EmptyCorpus("no images to train on")
    channels = images[0].channels
    if any(img.channels != channels for img in images):
        raise MixedChannelCorpus("corpus mixes gray and RGB images")

    model = ContextModel(channels, buckets, smooth)
    B = buckets
    for img in images:
        arr = np.frombuffer(bytes(img.data), dtype=np.uint8).reshape(
            img.height, img.width, channels
        )
        vals = arr.astype(np.int64)
        bucketed = (vals * B) >> 8
        for ch in range(channels):
            left = np.full((img.height, img.width), B, dtype=np.int64)
            left[:, 1:] = bucketed[:, :-1, ch]
            up = np.full((img.height, img.width), B, dtype=np.int64)
            up[1:, :] = bucketed[:-1, :, ch]
            np.add.at(
                model.counts,
                (ch, left.ravel(), up.ravel(), vals[:, :, ch].ravel()),
                np.uint64(1),
            )
    return model


def save_model(model: ContextModel, sink) -> bytes:
    header = MODEL_MAGIC + struct.pack(
        "<HBBI", 1, model.channels, model.buckets, model.smooth
    )
    return write_bytes(header + model.counts.astype("<u8").tobytes(), sink)


def load_model(source) -> ContextModel:
    buf = read_bytes(source)
    if buf[:4] != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r}, got {buf[:4]!r}")
    if len(buf) < 12:
        raise CorruptTable("header truncated")
    version, channels, buckets, smooth = struct.unpack("<HBBI", buf[4:12])
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    need = channels * (buckets + 1) ** 2 * 256 * 8
    body = buf[12:]
    if len(body) != need:
        raise CorruptTable(f"count table is {len(body)} bytes, expected {need}")
    counts = np.frombuffer(body, dtype="<u8")
    return ContextModel(channels, buckets, smooth, counts)


def save_stream(weights_per_step: np.ndarray, sink) -> bytes:
    table = np.asarray(weights_per_step)
    if ((table < 0) | (table >= 1 << 32)).any():
        raise ValueError("stream weights must lie in [0, 2^32)")
    table = table.astype("<u4")
    blob = STREAM_MAGIC + struct.pack("<HI", 1, table.shape[0]) + table.tobytes()
    return write_bytes(blob, sink)


def load_stream(source) -> StreamModel:
    buf = read_bytes(source)
    if buf[:4] != STREAM_MAGIC:
        raise BadMagic(f"expected {STREAM_MAGIC!r}, got {buf[:4]!r}")
    if len(buf) < 10:
        raise CorruptTable("header truncated")
    version, steps = struct.unpack("<HI", buf[4:10])
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    body = buf[10:]
    if len(body) != steps * 256 * 4:
        raise CorruptTable(f"stream body is {len(body)} bytes, expected {steps * 256 * 4}")
    table = np.frombuffer(body, dtype="<u4").reshape(steps, 256)
    empty = ~table.any(axis=1)
    if empty.any():
        raise CorruptTable(f"stream step {int(empty.argmax())} has all-zero weights")
    return StreamModel(table)


def weights_from_floats(probs: Sequence[float]) -> PixelDistribution:
    """Bridge float probabilities into the integer coding path.

    weights[v] = floor(probs[v] * 2^31) + 1, so every value stays decodable
    and identical input bytes give identical weights on any platform.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (256,):
        raise ValueError("need exactly 256 probabilities")
    if p.min() < 0:
        raise NegativeProbability(f"min probability {p.min()}")
    s = float(p.sum())
    if not 0.99 <= s <= 1.01:
        raise ValueError(f"probabilities sum to {s}, expected ~1")
    weights = [math.floor(float(x) * (1 << 31)) + 1 for x in p]
    return PixelDistribution(weights)
