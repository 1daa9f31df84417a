"""Fixed-precision arithmetic-coding stegosampling, plus the LSB baseline.

Embedding runs the coder as a decoder: the message window picks each pixel's
subinterval. Extraction re-derives the same partitions from the received
pixels and emits the shared interval prefixes as recovered bits.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bitio import BitStream, BitString, frame_decode, frame_encode
from .metrics import STATS, STATS_CELLS, STEP_DTYPE, EmbedReport, step_stats
from .models import INT64_MAX, NotADistribution, PixelDistribution, StreamExhausted
from .pnm import ImageGrid

DEFAULT_PRC = 26
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

    The distribution's runs of equal weight tile it in rank order: each symbol
    of run r, of weight w[r], gets width * w[r] // total units; ends[r] is where
    run r ends before the rounding deficit, width - ends[-1]. The deficit widens
    rank 0, alone in run 0, so run 0 spans [0, ends[0] + deficit) and run r > 0
    spans ends[r - 1] + deficit up to ends[r] + deficit.
    """

    order: Sequence[int]  # permutation of 0..255, weight-descending, ties by value
    run_start: Sequence[int]  # first rank of each run, then 256
    # end of each run before the deficit; ends[-1] + deficit = width. Every item is a Python
    # int: a list, or a memoryview of the int64 pass's cumsum
    ends: Sequence[int]
    width: int

    @property
    def cut(self) -> list[int]:
        """Boundaries of the symbols with nonzero width, in rank order (the tail of
        the sorted order is empty); cut[0] = 0 and cut[-1] = width."""
        run_start = np.asarray(self.run_start)
        run_len = run_start[1:] - run_start[:-1]
        f = np.array(self.ends)
        f[1:] = f[1:] - f[:-1]  # the span of each run before the deficit
        f //= run_len  # units per symbol of each run
        f[0] += self.width - self.ends[-1]  # the deficit
        ws = np.repeat(f, run_len)
        return [0, *ws[: np.count_nonzero(ws)].cumsum().tolist()]


def quantize(dist: PixelDistribution, state: CoderState) -> QuantizedPartition:
    """Tile [low, high] proportionally to the sorted weights.

    Per-symbol widths are floored; the rounding deficit goes to the most
    probable symbol, which therefore always stays selectable. A distribution
    kept as its runs of equal weight is tiled in exact Python ints, and so is
    one whose products could pass int64 (width times the top weight above
    INT64_MAX: high prc, top weights near 2^40). Any other, stored one symbol
    per run, is tiled in one int64 numpy pass, whose ends are a memoryview of
    its cumsum. Both give the same ends, and each indexes to Python ints.
    """
    width = state.width
    runs = dist.runs
    if runs is None and width * dist.top <= INT64_MAX:
        ends = (width * dist.run_w // dist.total).cumsum().data
    else:
        total, end, ends = dist.total, 0, []
        for w, n in runs or zip(dist.run_w.tolist(), repeat(1)):
            end += width * w // total * n
            ends.append(end)
    return tuple.__new__(QuantizedPartition, (dist.order, dist.run_start, ends, width))


def _apply(state: CoderState, offset: int, width: int) -> tuple[int, int]:
    """Narrow to [low + offset, low + offset + width), shift out the shared prefix;
    returns (s, prefix)."""
    low1 = state.low + offset
    high1 = low1 + width - 1
    n = (low1 ^ high1).bit_length()  # the bits below the shared prefix
    s = state.prc - n
    prefix = low1 >> n
    mask = (1 << state.prc) - 1
    state.low = (low1 << s) & mask
    state.high = ((high1 << s) & mask) | ((1 << s) - 1)
    return s, prefix


def _run_cell(run_start, ends, deficit: int, r: int) -> tuple[int, int, int]:
    """(start, units per symbol, first rank) of run r: run 0 starts at 0, run r > 0 at
    ends[r - 1] + deficit."""
    start = ends[r - 1] + deficit if r else 0
    first = run_start[r]
    return start, (ends[r] + deficit - start) // (run_start[r + 1] - first), first


def embed_step(
    state: CoderState, dist: PixelDistribution, msg: BitStream
) -> tuple[int, int, int, int]:
    """Decode one pixel out of the message window; confirm the shared prefix. Returns the
    integer fields of the step's record: (pixel, bits confirmed, q_width, width before)."""
    _, _, ends, width = quantize(dist, state)
    x = msg.window(msg.confirmed_ptr, state.prc) - state.low
    deficit = width - ends[-1]
    r = bisect_right(ends, x - deficit)  # the run that holds the window
    start, q_width, first = _run_cell(dist.run_start, ends, deficit, r)
    i = (x - start) // q_width  # the symbol within the run
    value, start = dist.order[first + i], start + i * q_width
    s, _ = _apply(state, start, q_width)
    msg.confirmed_ptr += s
    return value, s, q_width, width


def extract_step(state: CoderState, dist: PixelDistribution, pixel: int) -> tuple[int, int]:
    """Mirror of embed_step driven by the received pixel; returns (prefix, s)."""
    _, _, ends, width = quantize(dist, state)
    k = dist.order.index(pixel)
    start, q_width, first = _run_cell(dist.run_start, ends, width - ends[-1], dist.run_of[k])
    if q_width == 0:
        raise UndecodablePixel(f"pixel {pixel} has zero quantized width")
    s, prefix = _apply(state, start + (k - first) * q_width, q_width)
    return prefix, s


def _located(e: ValueError, step: int, image: ImageGrid, prc: int) -> ValueError:
    """The same error, its message prefixed with the step, its place in the image and the
    prc. Steps run in raster order, channels interleaved per pixel."""
    pixel, channel = divmod(step, image.channels)
    row, col = divmod(pixel, image.width)
    where = f"step {step} (row {row}, column {col}, channel {channel})"
    return type(e)(f"{where} at prc {prc}: {e}")


def check_prc(prc: int) -> None:
    """Refuse a register width that embed and extract do not run at."""
    if not PRC_MIN <= prc <= PRC_MAX:
        raise ValueError(f"prc {prc} outside [{PRC_MIN}, {PRC_MAX}]")


def _check_channels(model, channels: int) -> None:
    """Models without a channel count (fixed, stream) serve any image."""
    trained = getattr(model, "channels", channels)
    if trained != channels:
        raise ChannelMismatch(f"model has {trained} channel(s), image has {channels}")


def _gather(model, image: ImageGrid) -> Iterator[PixelDistribution]:
    """The distribution of every step of a finished image, in coding order: the model's own
    gather where it has one, else one lookup per step."""
    if hasattr(model, "image_distributions"):
        return model.image_distributions(image)
    return map(model.distribution, repeat(image), range(image.steps))


def _fill_stats(steps: np.ndarray, dists: Iterator[PixelDistribution]) -> None:
    """Fill in the stats of every step from its distribution, a slice at a time: as many
    steps as STATS_CELLS allows for the runs of the slice's first row, so one step_stats
    call takes a whole desk image and 256 steps of a stream."""
    first = 0
    for dist in dists:
        held = [dist, *islice(dists, STATS_CELLS // (len(dist.run_start) - 1) - 1)]
        rows = steps[first : first + len(held)]
        for name, col in zip(STATS, step_stats(held, rows["width_before"]).T):
            rows[name] = col
        first += len(held)


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
    check_prc(prc)
    _check_channels(model, channels)
    bits = frame_encode(message) if framed else BitString(message)
    msg = BitStream(bits, pad_seed)
    state = CoderState(prc)
    grid = ImageGrid.blank(width, height, channels)
    steps = np.empty(grid.steps, STEP_DTYPE)
    for name in STATS:
        steps[name] = np.nan
    # a step's ints go straight into the image and into views of its record's int columns
    data = grid.data
    bits_confirmed, q_width, width_before = (
        memoryview(steps[name]) for name in ("bits_confirmed", "q_width", "width_before"))
    try:
        for i in range(grid.steps):
            data[i], bits_confirmed[i], q_width[i], width_before[i] = embed_step(
                state, model.distribution(grid, i), msg
            )
    except (StreamExhausted, NotADistribution) as e:
        raise _located(e, i, grid, prc) from None
    state.check()
    if framed and msg.confirmed_ptr < bits.length:
        raise CapacityExceeded(
            f"image confirmed {msg.confirmed_ptr} of {bits.length} framed bits "
            f"at prc {prc}, final interval [{state.low}, {state.high}]"
        )
    steps["pixel_value"] = np.frombuffer(data, np.uint8)
    if collect:
        _fill_stats(steps, _gather(model, grid))
    return grid, EmbedReport(width, height, channels, prc, steps)


def extract_bits(model, image: ImageGrid, prc: int = DEFAULT_PRC) -> BitString:
    check_prc(prc)
    _check_channels(model, image.channels)
    state = CoderState(prc)
    out = BitString()
    step = 0  # the step reached, which a failure names
    try:
        for dist, pixel in zip(_gather(model, image), image.data):
            prefix, s = extract_step(state, dist, pixel)
            out.append(prefix, s)
            step += 1
    except (UndecodablePixel, StreamExhausted, NotADistribution) as e:
        raise _located(e, step, image, prc) from None
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
) -> ImageGrid:
    """Rejection-sampling baseline: each pixel is drawn once from p restricted to the values
    whose LSB is the next bit, as resampling until the LSB matches would draw it."""
    _check_channels(model, channels)
    msg = BitStream(BitString(message), pad_seed)
    rng = random.Random(rng_seed)
    grid = ImageGrid.blank(width, height, channels)
    for i in range(grid.steps):
        want = msg.window(msg.confirmed_ptr, 1)
        msg.confirmed_ptr += 1
        cum = np.cumsum(model.distribution(grid, i).weights[want::2])
        if cum[-1] == 0:
            raise NoParityMass(f"no weight on values with LSB {want}")
        r = rng.randrange(int(cum[-1]))
        grid.data[i] = want + 2 * int(np.searchsorted(cum, r, side="right"))
    return grid


def lsb_extract(image: ImageGrid) -> BitString:
    out = BitString()
    for b in image.data:
        out.append(b & 1, 1)
    return out
