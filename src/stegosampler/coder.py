"""Fixed-precision arithmetic-coding stegosampling, plus the LSB baseline.

Embedding runs the coder as a decoder: the message window picks each pixel's
subinterval. Extraction re-derives the same partitions from the received
pixels and emits the shared interval prefixes as recovered bits.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitio import BitStream, BitString, frame_decode, frame_encode
from .metrics import STATS, STEP_DTYPE, EmbedReport, StepRecord, step_stats
from .models import PixelDistribution, StreamExhausted
from .pnm import ImageGrid, sequence_positions

DEFAULT_PRC = 26
STATS_CHUNK = 256  # steps per step_stats call when embed_image collects stats
PRC_MIN, PRC_MAX = 8, 62


class CapacityExceeded(ValueError):
    """Framed message not fully confirmed by image end."""


class UndecodablePixel(ValueError):
    """Pixel has zero quantized width: model mismatch or corrupted image."""


class NoParityMass(ValueError):
    """No value of the required LSB parity has nonzero weight."""


class ChannelMismatch(ValueError):
    """The model was trained on another channel count than the image has."""


class BrokenInvariant(RuntimeError):
    """The coder's interval left its legal range: a bug, not a bad input."""


@dataclass
class CoderState:
    prc: int = DEFAULT_PRC
    low: int = 0
    high: int = -1  # filled to 2^prc - 1

    def __post_init__(self):
        if not 2 <= self.prc <= 64:
            raise ValueError(f"prc {self.prc} outside [2, 64]")
        if self.high < 0:
            self.high = (1 << self.prc) - 1

    @property
    def width(self) -> int:
        return self.high - self.low + 1

    def check(self) -> None:
        if not (0 <= self.low < self.high < (1 << self.prc)):
            raise BrokenInvariant(f"interval [{self.low}, {self.high}] at prc {self.prc}")


class QuantizedPartition(NamedTuple):
    """Integer tiling of the current interval, most probable symbols first.

    The distribution's runs of equal weight tile it in rank order: each
    symbol of run r gets width * run_w[r] // total units, and ends[r] is where
    run r ends before the rounding deficit, width - ends[-1]. The deficit widens
    rank 0, alone in run 0, so run 0 spans [0, ends[0] + deficit) and run r > 0
    spans ends[r - 1] + deficit up to ends[r] + deficit.
    """

    order: np.ndarray  # permutation of 0..255, weight-descending, ties by value
    run_start: np.ndarray  # first rank of each run, then 256
    ends: list[int]  # end of each run before the deficit; ends[-1] + deficit = width
    width: int

    @property
    def cut(self) -> list[int]:
        """Boundaries of the symbols with nonzero width, in rank order (the tail of
        the sorted order is empty); cut[0] = 0 and cut[-1] = width."""
        run_len = self.run_start[1:] - self.run_start[:-1]
        f = np.array(self.ends)
        f[1:] = f[1:] - f[:-1]  # the span of each run before the deficit
        f //= run_len  # units per symbol of each run
        f[0] += self.width - self.ends[-1]  # the deficit
        ws = np.repeat(f, run_len)
        return [0, *ws[: np.count_nonzero(ws)].cumsum().tolist()]


def quantize(dist: PixelDistribution, state: CoderState) -> QuantizedPartition:
    """Tile [low, high] proportionally to the sorted weights.

    Per-symbol widths are floored; the rounding deficit goes to the most
    probable symbol, which therefore always stays selectable.
    """
    width = state.width
    rw = dist.run_w
    if width.bit_length() + dist.w_bits > 63:
        # products could overflow int64 (high prc, totals near 2^40): exact Python ints
        rw = rw.astype(object)
    ends = (width * rw // dist.total * dist.run_len).cumsum().tolist()
    return QuantizedPartition(dist.order, dist.run_start, ends, width)


def _apply(state: CoderState, offset: int, width: int) -> tuple[int, int]:
    """Narrow to [low + offset, low + offset + width), shift out the shared prefix;
    returns (s, prefix)."""
    low1 = state.low + offset
    high1 = low1 + width - 1
    diff = low1 ^ high1
    s = state.prc if diff == 0 else state.prc - diff.bit_length()
    prefix = low1 >> (state.prc - s) if s else 0
    mask = (1 << state.prc) - 1
    state.low = (low1 << s) & mask
    state.high = ((high1 << s) & mask) | ((1 << s) - 1)
    return s, prefix


def _run_cell(dist: PixelDistribution, ends: list[int], deficit: int, r: int) -> tuple[int, int]:
    """(start, units per symbol) of run r: run 0 starts at 0, run r > 0 at ends[r - 1] + deficit."""
    start = ends[r - 1] + deficit if r else 0
    return start, (ends[r] + deficit - start) // int(dist.run_len[r])


def embed_step(state: CoderState, dist: PixelDistribution, msg: BitStream) -> StepRecord:
    """Decode one pixel out of the message window; confirm the shared prefix."""
    width = state.width
    ends = quantize(dist, state).ends
    deficit = width - ends[-1]
    x = msg.window(msg.confirmed_ptr, state.prc) - state.low
    r = bisect_right(ends, x - deficit)  # the run, then the symbol within it
    start, q_width = _run_cell(dist, ends, deficit, r)
    i = (x - start) // q_width
    s, _ = _apply(state, start + i * q_width, q_width)
    msg.confirmed_ptr += s
    return StepRecord(int(dist.order[int(dist.run_start[r]) + i]), s, q_width, width)


def extract_step(state: CoderState, dist: PixelDistribution, pixel: int) -> tuple[int, int]:
    """Mirror of embed_step driven by the received pixel; returns (prefix, s)."""
    ends = quantize(dist, state).ends
    k = int(dist.rank[pixel])
    r = bisect_right(dist.run_start, k) - 1
    start, q_width = _run_cell(dist, ends, state.width - ends[-1], r)
    if q_width == 0:
        raise UndecodablePixel(f"pixel {pixel} has zero quantized width")
    s, prefix = _apply(state, start + (k - int(dist.run_start[r])) * q_width, q_width)
    return prefix, s


def _located(e: ValueError, pos, prc: int) -> ValueError:
    """The same error, its message prefixed with the step's position and the prc."""
    where = f"step {pos.index} (row {pos.row}, column {pos.col}, channel {pos.channel})"
    return type(e)(f"{where} at prc {prc}: {e}")


def _check_run(model, channels: int, prc: int) -> None:
    """Embed and extract checks, run once before the first step."""
    if not PRC_MIN <= prc <= PRC_MAX:
        raise ValueError(f"prc {prc} outside [{PRC_MIN}, {PRC_MAX}]")
    # models without a channel count (fixed, stream) serve any image
    trained = getattr(model, "channels", channels)
    if trained != channels:
        raise ChannelMismatch(f"model has {trained} channel(s), image has {channels}")


def embed_image(
    model,
    width: int,
    height: int,
    channels: int,
    message: bytes,
    prc: int = DEFAULT_PRC,
    framed: bool = True,
    pad_seed: int | None = None,
    collect: bool = True,
) -> tuple[ImageGrid, EmbedReport]:
    _check_run(model, channels, prc)
    bits = frame_encode(message) if framed else BitString(message)
    msg = BitStream(bits, pad_seed)
    state = CoderState(prc)
    grid = ImageGrid.blank(width, height, channels)
    steps = np.empty(grid.steps, STEP_DTYPE)
    dists = []  # the distributions of the steps whose stats are not filled in yet
    try:
        for pos in sequence_positions(width, height, channels):
            dist = model.distribution(grid, pos)
            steps[pos.index] = rec = embed_step(state, dist, msg)
            grid.data[pos.index] = rec.pixel_value
            if collect:
                dists.append(dist)
                if len(dists) == STATS_CHUNK or pos.index == grid.steps - 1:
                    chunk = steps[pos.index + 1 - len(dists) : pos.index + 1]
                    for name, col in zip(STATS, step_stats(dists, chunk["width_before"]).T):
                        chunk[name] = col
                    dists = []
    except StreamExhausted as e:
        raise _located(e, pos, prc) from None
    state.check()
    if framed and msg.confirmed_ptr < bits.length:
        raise CapacityExceeded(
            f"image confirmed {msg.confirmed_ptr} of {bits.length} framed bits "
            f"at prc {prc}, final interval [{state.low}, {state.high}]"
        )
    return grid, EmbedReport(width, height, channels, prc, steps)


def extract_bits(model, image: ImageGrid, prc: int = DEFAULT_PRC) -> BitString:
    _check_run(model, image.channels, prc)
    state = CoderState(prc)
    out = BitString()
    try:
        for pos in sequence_positions(image.width, image.height, image.channels):
            dist = model.distribution(image, pos)
            prefix, s = extract_step(state, dist, image.data[pos.index])
            out.append(prefix, s)
    except (UndecodablePixel, StreamExhausted) as e:
        raise _located(e, pos, prc) from None
    state.check()
    return out


def extract_image(
    model, image: ImageGrid, prc: int = DEFAULT_PRC, framed: bool = True
) -> bytes:
    bits = extract_bits(model, image, prc)
    return frame_decode(bits) if framed else bits.to_bytes()


def lsb_embed(
    model,
    width: int,
    height: int,
    channels: int,
    message: bytes,
    rng_seed: int,
    pad_seed: int | None = None,
    max_retries: int = 64,
) -> ImageGrid:
    """Rejection-sampling baseline: resample until the LSB matches the next bit."""
    msg = BitStream(BitString(message), pad_seed)
    rng = random.Random(rng_seed)
    grid = ImageGrid.blank(width, height, channels)
    for pos in sequence_positions(width, height, channels):
        dist = model.distribution(grid, pos)
        want = msg.window(msg.confirmed_ptr, 1)
        msg.advance(1)
        cum = np.cumsum(dist.weights)
        value = -1
        for _ in range(max_retries):
            r = rng.randrange(dist.total)
            v = int(np.searchsorted(cum, r, side="right"))
            if v & 1 == want:
                value = v
                break
        if value < 0:
            parity_w = dist.weights[want::2]
            if parity_w.max() == 0:
                raise NoParityMass(f"no weight on values with LSB {want}")
            value = want + 2 * int(parity_w.argmax())
        grid.data[pos.index] = value
    return grid


def lsb_extract(image: ImageGrid) -> BitString:
    out = BitString()
    for b in image.data:
        out.append(b & 1, 1)
    return out
