"""Per-step pixel distributions: pluggable models, training, serialization."""
from __future__ import annotations

import math
import struct
from array import array
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .pnm import BadMagic, ImageGrid, SequencePosition, read_bytes, write_bytes

# A distribution's weights and total are below this, so an int64 sum of 256 weights cannot
# wrap; it leaves headroom for interval multiplication at prc <= 62
WEIGHT_TOTAL_LIMIT = 1 << 40
# products width * weight are exact in int64 when width * top weight is at most this
INT64_MAX = np.iinfo(np.int64).max

MODEL_MAGIC = b"PSCM"
STREAM_MAGIC = b"PSDS"
MODEL_HEADER = "<HBBI"  # version, channels, buckets, smooth
STREAM_HEADER = "<HI"  # version, steps
STREAM_CHUNK = 256  # stream steps whose distributions are built in one pass
# Above MANY_RUNS runs of equal weight, a context's row is stored one symbol per run: the run
# bookkeeping then costs its embed step no less than it saves. A stream's row serves one step,
# too few to win back the pass over its chunk that finds the runs, so it is always stored so.
MANY_RUNS = 64
# run_start and run_of of every distribution stored one symbol per run, 256 runs of one: a
# read-only view that indexes to Python ints and that numpy reads without a copy
ALL_RANKS = np.arange(257).data.toreadonly()


class EmptyCorpus(ValueError):
    pass


class MixedChannelCorpus(ValueError):
    pass


class UnsupportedVersion(ValueError):
    pass


class CorruptTable(ValueError):
    pass


class NegativeProbability(ValueError):
    pass


class StreamExhausted(ValueError):
    pass


class NotADistribution(ValueError):
    """256 weights with a negative one, one of 2^40 or more, or a total outside (0, 2^40)."""


class PixelDistribution:
    """256 non-negative integer weights; weights[v]/total is p(v).

    The symbols sorted by weight fall into runs, which the coder and the stats
    work over: run r holds ranks run_start[r] up to run_start[r + 1], each of
    one weight. Rank 0, which takes the rounding deficit, is always a run of
    its own, and run_start ends with 256; top is its weight, as a Python int.
    order, the values in rank order, is `bytes` in every row, so a value's
    rank is order.index(v), one scan of at most 256 bytes. The runs come in
    one of two layouts:

    - at most MANY_RUNS runs of equal weight, for a distribution that serves
      many steps, as a context's does: runs holds each run's (weight, length)
      as a pair of Python ints, run_start and run_of, the run of each rank,
      are `array.array` rows, and run_w is None;
    - more, or any number for a distribution that serves one step, as a
      stream's does: one run per symbol, so run_w is the sorted weights,
      run_start and run_of are both the shared ALL_RANKS, and runs is None.

    Either way a coding step reads the same fields, and each lookup gives a
    Python int.
    """

    __slots__ = ("weights", "total", "top", "order", "run_start", "run_w", "runs", "run_of")

    def __init__(self, weights, sorted_row=None):
        """`sorted_row` is what a caller that sorted a whole table at once derived for these
        weights: (total, top, order, run_start, run_w, runs, run_of). Without it the weights,
        which must be whole numbers, are sorted here and laid out as a context's."""
        if sorted_row is None:
            given = _integral(weights, "weights")
            weights = np.asarray(given, dtype=np.int64)
            (total,), (top,), (ok,), sw, order = _sort_rows(weights[None])
            if not ok:  # why, from the weights as given: a float past int64 casts to garbage
                raise _not_a_distribution(list(map(int, given.tolist())))
            sorted_row = (total, top, *_run_layout(sw, order)[0])
        self.weights = weights
        (self.total, self.top, self.order, self.run_start, self.run_w, self.runs,
         self.run_of) = sorted_row


def _integral(table, what: str) -> np.ndarray:
    """`table` as an array, refused if a value is not a whole number, which an integer cast
    would truncate. Floats that are whole numbers pass; NaN is not its own trunc, +-inf is."""
    table = np.asarray(table)
    kind = table.dtype.kind
    if kind not in "biuf" or kind == "f" and (np.trunc(table) != table).any():
        raise ValueError(f"{what} must be integers")
    return table


def _not_a_distribution(weights: list[int]) -> NotADistribution:
    """Why 256 weights, as exact Python ints, are no distribution."""
    if min(weights) < 0:
        return NotADistribution("weights must be non-negative")
    why = f"total {sum(weights)} outside (0, 2^40)"
    top = max(weights)
    if top >= WEIGHT_TOTAL_LIMIT:
        why = f"weight {top} of value {weights.index(top)} is not below 2^40, {why}"
    return NotADistribution(why)


def _sort_rows(w: np.ndarray) -> tuple:
    """The shared sort of an int64 (n, 256) weight table, one pass for all rows:
    (totals, tops, valid, sw, order). Each row's total and top weight are Python ints, and
    valid says whether it is a distribution at all (no negative weight, every weight below
    2^40, so that no total wraps, and a total in (0, 2^40)); an invalid row's sorted arrays
    are meaningless. sw holds each row's weights in descending order, ties by ascending
    value, as an int64 (n, 256) array, and order the symbols in that order, as uint8."""
    if w.ndim != 2 or w.shape[1] != 256:
        raise ValueError("need exactly 256 weights")
    totals = w.sum(axis=1)
    valid = ((w.min(axis=1) >= 0) & (w.max(axis=1) < WEIGHT_TOTAL_LIMIT)
             & (totals > 0) & (totals < WEIGHT_TOTAL_LIMIT))
    # symbols sorted by weight descending, ties by ascending value: every weight is below
    # 2^40, and ~ reverses the order of weights, so one sort of (~weight << 8 | value) keys
    # gives both
    key = ~w
    key <<= 8
    key |= np.arange(256)
    key.sort(axis=1)
    order = key.astype(np.uint8)  # the key's low byte: the value
    key >>= 8
    sw = np.invert(key, out=key)  # non-increasing
    return totals.tolist(), sw[:, 0].tolist(), valid.tolist(), sw, order


def _run_layout(sw: np.ndarray, order: np.ndarray) -> list[tuple]:
    """(order, run_start, run_w, runs, run_of) of each row of a sorted weight table, for a
    distribution that serves many steps: order as bytes, and its runs of equal weight as pairs
    of Python ints with run_start and run_of as array.array rows, or one symbol per run above
    MANY_RUNS, its sorted weights copied so that the row views none of the table."""
    edge = np.ones((len(sw), 257), dtype=bool)  # edge[:, 256] ends the last run
    edge[:, 2:256] = sw[:, 2:] != sw[:, 1:-1]  # rank 0 alone, then each stretch of equal weight
    runs = edge.sum(axis=1) - 1
    kept = np.flatnonzero(runs <= MANY_RUNS)  # the rows stored as runs of equal weight
    run_start = np.where(edge[kept], np.arange(257), 256)
    run_start.sort(axis=1)  # a row's run starts, then 256 to the end of the row
    run_w = sw[kept[:, None], run_start[:, :256] & 255]  # past a row's runs: sw[0], unused
    run_len = run_start[:, 1:] - run_start[:, :-1]
    run_of = edge[kept, :256].cumsum(axis=1, dtype=np.uint8) - 1  # the run of each rank
    kept_rows = iter(zip(run_start.astype("H"), run_w, run_len, run_of))
    out = []
    for row, o, r in zip(sw, order, runs.tolist()):
        if r > MANY_RUNS:
            out.append((o.tobytes(), ALL_RANKS, row.copy(), None, ALL_RANKS))
            continue
        start, rw, rl, of = next(kept_rows)
        out.append((o.tobytes(), array("H", start[: r + 1].tobytes()), None,
                    tuple(zip(rw[:r].tolist(), rl[:r].tolist())), array("B", of.tobytes())))
    return out


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
        self.table = _integral(weights_per_step, "stream weights")
        if self.table.ndim != 2 or self.table.shape[1] != 256:
            raise ValueError("stream table must be (steps, 256)")
        self._first = 0  # step of self._chunk[0]
        self._chunk: list[PixelDistribution | None] = []

    @property
    def steps(self) -> int:
        return self.table.shape[0]

    def distribution(self, prefix, pos) -> PixelDistribution:
        i = pos.index - self._first
        if not 0 <= i < len(self._chunk):
            self._chunk = []  # the old chunk goes before the next is built
            self._chunk = self._build(pos.index, pos.index + STREAM_CHUNK)
            self._first, i = pos.index, 0
        # a step whose weights are no distribution raises only when asked for
        return self._chunk[i] or PixelDistribution(self.table[pos.index])

    def image_distributions(self, image: ImageGrid) -> Iterator[PixelDistribution]:
        """The distribution of every step of an image, in coding order: one chunk built at a
        time, then one list item per step. As in `distribution`, a step whose weights are no
        distribution raises only when it is reached, and so does the first step past the end
        of a stream shorter than the image."""
        self._chunk = []  # the lookups' chunk goes: a gather builds its own
        first = 0
        while first < image.steps:
            chunk = self._build(first, min(first + STREAM_CHUNK, image.steps))
            for step, dist in enumerate(chunk, first):
                yield dist or PixelDistribution(self.table[step])
            first += len(chunk)  # past the end of the stream, the next build raises

    def _build(self, first: int, stop: int) -> list[PixelDistribution | None]:
        """The distributions of steps first up to stop, or to the end of the stream, sorted in
        one pass; None for a step whose weights are no distribution. A row serves one step, so
        it is stored one symbol per run, whatever its run count: run_w is its row of the sorted
        chunk, and order its 256 bytes of the chunk's order."""
        if first >= self.steps:
            raise StreamExhausted(f"stream has {self.steps} steps, step {first} requested")
        w = np.asarray(self.table[first:stop], dtype=np.int64)
        totals, tops, valid, sw, order = _sort_rows(w)
        orders = order.tobytes()
        rows = zip(w, totals, tops, valid, sw, range(0, len(orders), 256))
        return [PixelDistribution(row, (total, top, orders[i : i + 256], ALL_RANKS, s, None,
                                        ALL_RANKS)) if ok else None
                for row, total, top, ok, s, i in rows]


def check_buckets(buckets: int) -> None:
    """Refuse a bucket count that a PSCM header, which stores it as u8, cannot hold."""
    if not 0 <= buckets <= 255:
        raise ValueError(f"buckets {buckets} outside 0..255")


class ContextModel:
    """Causal count model over (same-channel left, up) neighbors, bucketed.

    Contexts index a C x (B+1) x (B+1) table of 256-way occurrence counts;
    bucket index B is the edge bucket for out-of-image neighbors. A context's
    id is its row in the flat (C*(B+1)^2, 256) view of that table. Emitted
    weights are counts + k_s, so no value ever has zero probability.
    """

    def __init__(self, channels: int, buckets: int = 16, smooth: int = 1, counts=None):
        check_buckets(buckets)
        if not 0 <= smooth < 1 << 32:  # the PSCM header stores smooth as u32
            raise ValueError(f"smooth {smooth} outside 0..2^32-1")
        self.channels = channels
        self.buckets = buckets
        self.smooth = smooth
        shape = (channels, buckets + 1, buckets + 1, 256)
        if counts is None:
            counts = np.zeros(shape, dtype=np.uint64)
        else:
            counts = np.asarray(_integral(counts, "counts"), dtype=np.uint64).reshape(shape)
        self.counts = counts
        self._dists: list[PixelDistribution | None] | None = None

    def context_of(self, prefix: ImageGrid, pos: SequencePosition) -> int:
        """The context id, (channel*(B+1) + left)*(B+1) + up, of the bucketed same-channel
        neighbours, read from the flat raster."""
        B = self.buckets
        i, data = pos.index, prefix.data
        left = B if pos.col == 0 else data[i - prefix.channels] * B >> 8
        up = B if pos.row == 0 else data[i - prefix.width * prefix.channels] * B >> 8
        return (pos.channel * (B + 1) + left) * (B + 1) + up

    def context_rows(self, vals: np.ndarray) -> np.ndarray:
        """The context id of every subpixel of an (n, h, w, c) uint8 image stack, as uint32:
        context_of at every position at once."""
        B = self.buckets
        bucketed = vals.astype(np.uint32)  # a uint8 product would wrap
        bucketed *= B
        bucketed >>= 8
        rows = np.empty_like(bucketed)
        rows[:, :, 0] = B * (B + 1)  # left edge
        np.multiply(bucketed[:, :, :-1], np.uint32(B + 1), out=rows[:, :, 1:])
        rows[:, 0] += np.uint32(B)  # top edge
        rows[:, 1:] += bucketed[:, :-1]
        rows += np.arange(vals.shape[3], dtype=np.uint32) * np.uint32((B + 1) ** 2)
        return rows

    def distribution(self, prefix: ImageGrid, pos: SequencePosition) -> PixelDistribution:
        if self._dists is None:
            self._sort_contexts()
        row = self.context_of(prefix, pos)
        # a context whose weights are no distribution raises only when asked for
        return self._dists[row] or self._refuse(row)

    def image_distributions(self, image: ImageGrid) -> Iterator[PixelDistribution]:
        """The distribution of every step of a known image, in coding order: the context rows
        of the whole image at once, then one list index per step. As in `distribution`, a
        context whose weights are no distribution raises only when its step is reached."""
        if self._dists is None:
            self._sort_contexts()
        shape = (1, image.height, image.width, image.channels)
        rows = self.context_rows(np.frombuffer(image.data, dtype=np.uint8).reshape(shape))
        dists, refuse = self._dists, self._refuse
        # a memoryview of the uint32 ids gives Python ints and holds no list of them
        return (dists[row] or refuse(row) for row in memoryview(rows.ravel()))

    def _refuse(self, row: int) -> NoReturn:
        """Raise why context `row` is no distribution, from its stored counts as exact ints."""
        counts = self.counts.reshape(-1, 256)[row].tolist()
        raise _not_a_distribution([c + self.smooth for c in counts])

    def _sort_contexts(self) -> None:
        """Build the distribution of every context in one sorting pass. Contexts the corpus
        never saw all weigh `smooth` everywhere and share one distribution, so the pass
        grows with the contexts seen, not with the (B+1)^2 table."""
        counts = self.counts.reshape(-1, 256)
        seen = np.flatnonzero(counts.any(axis=1))
        w = np.zeros((len(seen) + 1, 256), dtype=np.int64)  # the last row: an unseen context
        # a count of 2^40 or more makes its row no distribution; clipped, it cannot wrap int64
        w[:-1] = np.minimum(counts[seen], WEIGHT_TOTAL_LIMIT)
        w += self.smooth
        totals, tops, valid, sw, order = _sort_rows(w)
        *dists, unseen = [PixelDistribution(row, (total, top, *rows)) if ok else None
                          for row, total, top, ok, rows in zip(w, totals, tops, valid,
                                                               _run_layout(sw, order))]
        self._dists = [unseen] * len(counts)
        for row, d in zip(seen.tolist(), dists):
            self._dists[row] = d


def train_context_model(
    corpus: Iterable[ImageGrid], buckets: int = 16, smooth: int = 1
) -> ContextModel:
    """Count (context, value) occurrences over the corpus, one count per image shape;
    order-independent."""
    images = list(corpus)
    if not images:
        raise EmptyCorpus("no images to train on")
    channels = images[0].channels
    if any(img.channels != channels for img in images):
        raise MixedChannelCorpus("corpus mixes gray and RGB images")

    model = ContextModel(channels, buckets, smooth)
    counts = model.counts.ravel()  # a view: flat index row << 8 | value
    shapes: dict[tuple[int, int], list[bytearray]] = {}
    for img in images:
        shapes.setdefault((img.height, img.width), []).append(img.data)
    for (height, width), data in shapes.items():
        vals = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(-1, height, width, channels)
        keys = model.context_rows(vals)
        keys <<= 8
        keys |= vals
        # a numpy 1, not a Python one: numpy takes its fast path only for a matching dtype
        np.add.at(counts, keys.ravel(), np.uint64(1))
    return model


def _read_header(source, magic: bytes, fmt: str) -> tuple[list[int], memoryview]:
    """(header fields after the version, body) of a version-1 container of `source`; the body
    is a view of the bytes read, so loading holds one copy of the file."""
    buf = read_bytes(source)
    if buf[:4] != magic:
        raise BadMagic(f"expected {magic!r}, got {buf[:4]!r}")
    end = 4 + struct.calcsize(fmt)
    if len(buf) < end:
        raise CorruptTable("header truncated")
    version, *fields = struct.unpack(fmt, buf[4:end])
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    return fields, memoryview(buf)[end:]


def save_model(model: ContextModel, sink) -> bytes:
    header = MODEL_MAGIC + struct.pack(
        MODEL_HEADER, 1, model.channels, model.buckets, model.smooth
    )
    counts = np.ascontiguousarray(model.counts, dtype="<u8")  # a copy only to convert
    return write_bytes(b"".join((header, memoryview(counts))), sink)  # one copy of the table


def load_model(source) -> ContextModel:
    (channels, buckets, smooth), body = _read_header(source, MODEL_MAGIC, MODEL_HEADER)
    need = channels * (buckets + 1) ** 2 * 256 * 8
    if len(body) != need:
        raise CorruptTable(f"count table is {len(body)} bytes, expected {need}")
    counts = np.frombuffer(body, dtype="<u8")
    return ContextModel(channels, buckets, smooth, counts)


def save_stream(weights_per_step: np.ndarray, sink) -> bytes:
    table = np.asarray(weights_per_step)
    if table.ndim != 2 or table.shape[1] != 256:
        raise ValueError(f"stream table must be shaped (steps, 256), got {table.shape}")
    _integral(table, "stream weights")  # +-inf passes, and fails the range check
    fits = table.dtype.kind in "bu" and table.dtype.itemsize <= 4  # no value needs the check
    if not fits and ((table < 0) | (table >= 1 << 32)).any():
        raise ValueError("stream weights must lie in [0, 2^32)")
    table = np.ascontiguousarray(table, dtype="<u4")
    header = STREAM_MAGIC + struct.pack(STREAM_HEADER, 1, table.shape[0])
    return write_bytes(b"".join((header, memoryview(table))), sink)


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
