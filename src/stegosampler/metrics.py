"""Embedding-rate, entropy, and divergence reporting over coding runs."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .models import INT64_MAX, PixelDistribution
from .pnm import ImageGrid, write_bytes


class AbsoluteContinuityViolated(ValueError):
    """q places mass on a symbol p gives zero weight; KLD would be infinite."""


class ShapeMismatch(ValueError):
    pass


STATS_CELLS = 256 * 256  # the most cells of one step_stats table


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each row of a float table, added left to right. A row padded with zeros keeps
    its sum, whereas numpy's pairwise `sum` groups a row's terms by the table's width."""
    return np.cumsum(a, axis=1)[:, -1]


def step_stats(dists: Sequence[PixelDistribution], width_before: np.ndarray) -> np.ndarray:
    """(H(p), H(q), D_KL(q||p), D_JS(q||p)) in bits per step, as an (n, 4) array.

    Step k's q is what `quantize` makes of dists[k] over width_before[k] units.
    Each distinct distribution (by identity) is read once, and its H(p) is
    computed once; the ranks of each of its runs, which get equal q and p, are
    summed as one cell, one rank to a cell where each symbol is a run of its own.
    The tables are the steps times the most runs of a distribution: steps that
    would take them past STATS_CELLS go in slices that stay within it. A step's
    stats are bit for bit the same whatever other steps share its slice.
    """
    if not len(dists):
        return np.empty((0, 4))
    ids = np.fromiter(map(id, dists), np.uintp, len(dists))
    _, first, row = np.unique(ids, return_index=True, return_inverse=True)
    uniq = [dists[i] for i in first]
    runs = max(len(d.runs or d.run_w) for d in uniq)
    per = STATS_CELLS // runs
    if len(dists) > per:
        out = np.empty((len(dists), 4))
        for i in range(0, len(dists), per):
            out[i : i + per] = step_stats(dists[i : i + per], width_before[i : i + per])
        return out
    vals = np.zeros((len(uniq), runs), dtype=np.int64)
    mult = np.zeros((len(uniq), runs), dtype=np.int64)
    for j, d in enumerate(uniq):
        w, n = (d.run_w, 1) if d.runs is None else zip(*d.runs)
        vals[j, : len(w)] = w
        mult[j, : len(w)] = n
    total = np.array([d.total for d in uniq])
    p = vals / total[:, None]
    h_p = -_row_sums(mult * p * np.log2(p, out=np.zeros_like(p), where=vals > 0))
    vals, mult, total, p = vals[row], mult[row], total[row], p[row]
    w = np.asarray(width_before, dtype=np.int64)
    # rows whose products w * vals could pass int64 would wrap around: redo them exactly
    big = vals[:, 0] > INT64_MAX // w
    ws = vals * w[:, None] // total[:, None]
    ws[big] = vals[big].astype(object) * w[big, None] // total[big, None]
    ws[:, 0] += w - (ws * mult).sum(axis=1)
    m = np.count_nonzero(ws, axis=1).max()  # nonzero widths are a prefix of each row
    ws, mult, vals, p = ws[:, :m], mult[:, :m], vals[:, :m], p[:, :m]
    nz = ws > 0
    if (nz & (vals == 0)).any():
        raise AbsoluteContinuityViolated("quantized mass on a zero-weight symbol")
    q = ws / w[:, None]
    ratio = np.divide(q, p, out=np.ones_like(q), where=nz)  # 1 where q = 0
    h_q = -_row_sums(mult * q * np.log2(q, out=np.zeros_like(q), where=nz))
    kld = _row_sums(mult * q * np.log2(ratio))
    # With m = (p + q)/2, q·log2(q/m) + p·log2(p/m) = q·log2(q/p) - (p + q)·log2(m/p): 0 where
    # q = 0, and there p·log2(p/m) is exactly p, summed as the mass of p outside q.
    outside = (total - np.where(nz, vals * mult, 0).sum(axis=1)) / total
    jsd = 0.5 * (kld - _row_sums(mult * (p + q) * np.log2(0.5 + 0.5 * ratio)) + outside)
    return np.column_stack([h_p[row], h_q, kld, jsd])


class StepRecord(NamedTuple):
    """One coding step; the stats (the fields with a default) are NaN unless collected."""

    pixel_value: int
    bits_confirmed: int
    q_width: int
    width_before: int
    h_p: float = math.nan
    h_q: float = math.nan
    kld: float = math.nan
    jsd: float = math.nan


STEP_DTYPE = np.dtype(list(get_type_hints(StepRecord).items()))
STATS = tuple(StepRecord._field_defaults)
CSV_HEADER = ["image", "steps", "bits", "er_pixel", "er_step", *STATS]


@dataclass
class EmbedReport:
    """One embedded image: a record array with one StepRecord row per coding step."""

    width: int
    height: int
    channels: int
    prc: int
    steps: np.recarray  # built from any sequence of StepRecords

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=STEP_DTYPE).view(np.recarray)

    def column(self, field: str) -> np.ndarray:
        """One StepRecord field over all steps; ValueError if it was not collected."""
        col = self.steps[field]
        if np.isnan(col).any():
            raise ValueError(f"per-step {field} was not collected during embedding")
        return col

    @property
    def bits_confirmed(self) -> int:
        return int(self.steps.bits_confirmed.sum())

    @property
    def er_per_pixel(self) -> float:
        return self.bits_confirmed / (self.width * self.height)

    @property
    def er_per_step(self) -> float:
        return self.bits_confirmed / len(self.steps)

    @property
    def self_information_bits(self) -> float:
        """Sum of -log2(q_width/width_before) over all steps."""
        return float(-np.log2(self.steps.q_width / self.steps.width_before).sum())

    def _mean(self, field: str) -> float:
        return float(np.mean(self.column(field)))

    mean_kld = property(lambda self: self._mean("kld"))
    mean_jsd = property(lambda self: self._mean("jsd"))

    def row(self, name: str) -> list:
        """The CSV_HEADER columns for this image."""
        rates = [self.bits_confirmed, self.er_per_pixel, self.er_per_step]
        return [name, len(self.steps), *rates, *(self._mean(f) for f in STATS)]


def mean_std(vals) -> tuple[float, float]:
    """Mean and sample std (ddof=1; 0 for a single sample) of a non-empty sequence."""
    vals = np.asarray(vals, dtype=np.float64)
    return float(vals.mean()), float(vals.std(ddof=1)) if len(vals) > 1 else 0.0


def _summary(rows: Sequence[list]) -> dict[str, tuple[float, float]]:
    """`mean_std` of each rate column of CSV rows."""
    if not rows:
        raise ValueError("need at least one report")
    table = np.array([row[3:] for row in rows])
    return {key: mean_std(vals) for key, vals in zip(CSV_HEADER[3:], table.T)}


def aggregate(reports: Sequence[EmbedReport]) -> dict[str, tuple[float, float]]:
    """`mean_std` of each rate column over the reports."""
    return _summary([rep.row("") for rep in reports])


def write_csv(reports: Sequence[EmbedReport], names: Sequence[str], sink) -> dict:
    """Detail row per image plus mean and std summary rows; returns the summary, as `aggregate`."""
    detail = [rep.row(name) for name, rep in zip(names, reports, strict=True)]
    summary = _summary(detail)
    rows = [CSV_HEADER, *detail]
    for i, label in enumerate(("mean", "std")):
        rows.append([label, "", ""] + [summary[k][i] for k in CSV_HEADER[3:]])
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_bytes(text.getvalue().encode(), sink)
    return summary


def _scale_to_bytes(field_: np.ndarray) -> bytearray:
    lo, hi = field_.min(), field_.max()
    if hi > lo:
        scaled = np.round((field_ - lo) / (hi - lo) * 255)
    else:
        scaled = np.full_like(field_, 255.0 if hi > 0 else 0.0)
    return bytearray(scaled.astype(np.uint8).tobytes())


def position_means(reports: Sequence[EmbedReport], attr: str) -> np.ndarray:
    """Per-position mean of a StepRecord field across same-shape reports."""
    if not reports:
        raise ValueError("need at least one report")
    shape = (reports[0].width, reports[0].height, reports[0].channels)
    for rep in reports:
        if (rep.width, rep.height, rep.channels) != shape:
            raise ShapeMismatch(f"report shape {(rep.width, rep.height, rep.channels)} != {shape}")
    return np.mean([rep.column(attr) for rep in reports], axis=0)


def heatmaps(reports: Sequence[EmbedReport]) -> tuple[ImageGrid, ImageGrid]:
    """Min-max scaled per-position mean H(p) and mean confirmed-bits maps.

    Multi-channel step values are averaged per pixel so the maps stay gray.
    """
    fields = ("h_p", "bits_confirmed")
    maps = [position_means(reports, f) for f in fields]  # refuses no report before [0]
    w, h, c = reports[0].width, reports[0].height, reports[0].channels
    maps = [m.reshape(h * w, c).mean(axis=1) for m in maps]
    return tuple(ImageGrid(w, h, 1, _scale_to_bytes(m)) for m in maps)
