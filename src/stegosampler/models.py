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
MODEL_HEADER = "<HBBI"  # version, channels, buckets, smooth
STREAM_HEADER = "<HI"  # version, steps
STREAM_CHUNK = 256  # stream steps whose distributions are built in one pass


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
    """256 non-negative integer weights; weights[v]/total is p(v).

    The symbols sorted by weight fall into runs of equal weight, which the
    coder and the stats work over: run r holds ranks run_start[r] up to
    run_start[r + 1], each of weight run_w[r]. Rank 0, which takes the
    rounding deficit, is always a run of its own, and run_start ends with 256.
    w_bits is the bit length of the largest weight, run_w[0].
    """

    __slots__ = ("weights", "total", "order", "rank", "run_start", "run_w", "run_len", "w_bits")

    def __init__(self, weights, sorted_row=None):
        """`sorted_row` is what `_sort_rows` derived for these weights, if a table was sorted at once."""
        w = np.asarray(weights, dtype=np.int64)
        if sorted_row is None:
            (sorted_row,) = _sort_rows(w[None])
            if sorted_row is None:
                if w.min() < 0:
                    raise ValueError("weights must be non-negative")
                raise ValueError(f"total {int(w.sum())} outside (0, 2^40)")
        self.weights = w
        (self.total, self.order, self.rank,
         self.run_start, self.run_w, self.run_len, self.w_bits) = sorted_row


def _sort_rows(w: np.ndarray) -> list[tuple | None]:
    """(total, order, rank, run_start, run_w, run_len, w_bits) of each row of
    an int64 (n, 256) weight table, sorted in one pass; None for a row that is no distribution
    (a negative weight, or a total outside (0, 2^40)), whose sorted arrays are meaningless."""
    if w.ndim != 2 or w.shape[1] != 256:
        raise ValueError("need exactly 256 weights")
    totals = w.sum(axis=1)
    valid = (w.min(axis=1) >= 0) & (totals > 0) & (totals < WEIGHT_TOTAL_LIMIT)
    # symbols sorted by weight descending, ties by ascending value: every weight is below
    # 2^40, so one sort of (weight << 8 | 255 - value) keys, read backwards, gives both
    key = np.sort(w << 8 | np.arange(255, -1, -1), axis=1)[:, ::-1]
    sw = key >> 8  # non-increasing
    order = 255 - (key & 255)
    rows = np.arange(len(w))[:, None]
    rank = np.empty_like(order)  # inverse of order: order[rank[v]] == v
    rank[rows, order] = np.arange(256)
    # runs: rank 0 alone, then each stretch of equal weight from rank 1 on. Every array is
    # (n, 256) or (n, 257), so a stream's chunks reuse the same heap blocks; arrays sized by
    # the number of runs left holes that later large allocations could not use.
    edge = np.ones((len(w), 257), dtype=bool)  # edge[:, 256] ends the last run
    edge[:, 2:256] = sw[:, 2:] != sw[:, 1:-1]
    runs = edge.sum(axis=1) - 1
    run_start = np.where(edge, np.arange(257), 256)
    run_start.sort(axis=1)  # a row's run starts, then 256 to the end of the row
    run_w = sw[rows, run_start[:, :256] & 255]  # past a row's runs: sw[0], unused
    run_len = run_start[:, 1:] - run_start[:, :-1]
    top = sw[:, 0].tolist()
    return [
        (total, order[i], rank[i], run_start[i, : r + 1], run_w[i, :r], run_len[i, :r],
         top[i].bit_length())
        if ok else None
        for i, (total, r, ok) in enumerate(zip(totals.tolist(), runs.tolist(), valid.tolist()))
    ]


def _distributions(w: np.ndarray) -> list[PixelDistribution | None]:
    """A PixelDistribution per row of an int64 (n, 256) weight table, sorted in one pass;
    None for a row that is no distribution, which PixelDistribution(row) raises on."""
    rows = _sort_rows(w)
    return [None if row is None else PixelDistribution(w[i], row) for i, row in enumerate(rows)]


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

    One embed or extract asks for each step once, in order, so distributions
    are built on request, STREAM_CHUNK steps at a time in one sorting pass,
    and only the current chunk is kept.
    """

    def __init__(self, weights_per_step: np.ndarray):
        self.table = np.asarray(weights_per_step)
        if self.table.ndim != 2 or self.table.shape[1] != 256:
            raise ValueError("stream table must be (steps, 256)")
        self._first = 0  # step of self._chunk[0]
        self._chunk: list[PixelDistribution] = []

    @property
    def steps(self) -> int:
        return self.table.shape[0]

    def distribution(self, prefix, pos) -> PixelDistribution:
        i = pos.index - self._first
        if not 0 <= i < len(self._chunk):
            if pos.index >= self.steps:
                raise StreamExhausted(f"stream has {self.steps} steps, step {pos.index} requested")
            self._chunk = []  # the old chunk goes before the next is built
            w = np.asarray(self.table[pos.index : pos.index + STREAM_CHUNK], dtype=np.int64)
            self._chunk = _distributions(w)
            self._first, i = pos.index, 0
        # a step whose weights are no distribution raises only when asked for
        return self._chunk[i] or PixelDistribution(self.table[pos.index])


class ContextModel:
    """Causal count model over (same-channel left, up) neighbors, bucketed.

    Contexts index a C x (B+1) x (B+1) table of 256-way occurrence counts;
    bucket index B is the edge bucket for out-of-image neighbors. Emitted
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
        self._dists: dict[tuple[int, int, int], PixelDistribution | None] | None = None
        self._unseen: PixelDistribution | None = None

    def context_of(self, prefix: ImageGrid, pos: SequencePosition) -> tuple[int, int, int]:
        """(channel, left, up): the bucketed same-channel neighbours, read from the flat raster."""
        B = self.buckets
        i, data = pos.index, prefix.data
        left = B if pos.col == 0 else data[i - prefix.channels] * B >> 8
        up = B if pos.row == 0 else data[i - prefix.width * prefix.channels] * B >> 8
        return pos.channel, left, up

    def distribution(self, prefix: ImageGrid, pos: SequencePosition) -> PixelDistribution:
        if self._dists is None:
            self._sort_contexts()
        key = self.context_of(prefix, pos)
        # a context whose weights are no distribution raises only when asked for
        d = self._dists.get(key, self._unseen)
        return d or PixelDistribution(self.counts[key].astype(np.int64) + self.smooth)

    def _sort_contexts(self) -> None:
        """Build the distribution of every context in one sorting pass. Contexts the corpus
        never saw all weigh `smooth` everywhere and share one distribution, so the pass
        grows with the contexts seen, not with the (B+1)^2 table."""
        counts = self.counts.reshape(-1, 256)
        seen = np.flatnonzero(counts.any(axis=1))
        w = np.zeros((len(seen) + 1, 256), dtype=np.int64)  # the last row: an unseen context
        w[:-1] = counts[seen]
        *dists, self._unseen = _distributions(w + self.smooth)
        keys = zip(*(i.tolist() for i in np.unravel_index(seen, self.counts.shape[:3])))
        self._dists = dict(zip(keys, dists))


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


def _read_header(source, magic: bytes, fmt: str) -> tuple[list[int], bytes]:
    """(header fields after the version, body) of a version-1 container of `source`."""
    buf = read_bytes(source)
    if buf[:4] != magic:
        raise BadMagic(f"expected {magic!r}, got {buf[:4]!r}")
    end = 4 + struct.calcsize(fmt)
    if len(buf) < end:
        raise CorruptTable("header truncated")
    version, *fields = struct.unpack(fmt, buf[4:end])
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    return fields, buf[end:]


def save_model(model: ContextModel, sink) -> bytes:
    header = MODEL_MAGIC + struct.pack(
        MODEL_HEADER, 1, model.channels, model.buckets, model.smooth
    )
    return write_bytes(header + model.counts.astype("<u8").tobytes(), sink)


def load_model(source) -> ContextModel:
    (channels, buckets, smooth), body = _read_header(source, MODEL_MAGIC, MODEL_HEADER)
    need = channels * (buckets + 1) ** 2 * 256 * 8
    if len(body) != need:
        raise CorruptTable(f"count table is {len(body)} bytes, expected {need}")
    counts = np.frombuffer(body, dtype="<u8")
    return ContextModel(channels, buckets, smooth, counts)


def save_stream(weights_per_step: np.ndarray, sink) -> bytes:
    table = np.asarray(weights_per_step)
    if ((table < 0) | (table >= 1 << 32)).any():
        raise ValueError("stream weights must lie in [0, 2^32)")
    table = table.astype("<u4")
    blob = STREAM_MAGIC + struct.pack(STREAM_HEADER, 1, table.shape[0]) + table.tobytes()
    return write_bytes(blob, sink)


def load_stream(source) -> StreamModel:
    (steps,), body = _read_header(source, STREAM_MAGIC, STREAM_HEADER)
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
