"""Embedding-rate, entropy, and divergence reporting over coding runs."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .models import PixelDistribution, shannon_bits
from .pnm import ImageGrid


class AbsoluteContinuityViolated(ValueError):
    """q places mass on a symbol p gives zero weight; KLD would be infinite."""


class ShapeMismatch(ValueError):
    pass


def entropy(obj) -> float:
    """Shannon entropy in bits of a distribution or a quantized partition."""
    if isinstance(obj, PixelDistribution):
        return obj.entropy_bits
    return shannon_bits(partition_probs(obj)[0])


def partition_probs(partition) -> tuple[np.ndarray, np.ndarray]:
    """(q over 256 symbols, mask of symbols with nonzero quantized width)."""
    q = np.zeros(256)
    ws = np.diff(partition.cut)
    idx = partition.order[: len(ws)]
    q[idx] = ws / partition.width
    return q, q > 0


def _kld(q: np.ndarray, nz: np.ndarray, p: np.ndarray) -> float:
    if np.any(p[nz] == 0):
        raise AbsoluteContinuityViolated("quantized mass on a zero-weight symbol")
    return float((q[nz] * np.log2(q[nz] / p[nz])).sum())


def _jsd(q: np.ndarray, nz: np.ndarray, p: np.ndarray) -> float:
    m = 0.5 * (p + q)
    pnz = p > 0
    dqm = (q[nz] * np.log2(q[nz] / m[nz])).sum()
    dpm = (p[pnz] * np.log2(p[pnz] / m[pnz])).sum()
    return float(0.5 * dqm + 0.5 * dpm)


def kld_q_p(partition, dist: PixelDistribution) -> float:
    return _kld(*partition_probs(partition), dist.probs)


def jsd_q_p(partition, dist: PixelDistribution) -> float:
    return _jsd(*partition_probs(partition), dist.probs)


def step_stats(partition, dist: PixelDistribution) -> tuple[float, float, float, float]:
    """(H(p), H(q), D_KL(q||p), D_JS(q||p)) for one coding step, in bits."""
    q, nz = partition_probs(partition)
    p = dist.probs
    return dist.entropy_bits, shannon_bits(q), _kld(q, nz, p), _jsd(q, nz, p)


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

    mean_h_p = property(lambda self: self._mean("h_p"))
    mean_h_q = property(lambda self: self._mean("h_q"))
    mean_kld = property(lambda self: self._mean("kld"))
    mean_jsd = property(lambda self: self._mean("jsd"))

    def row(self, name: str) -> list:
        """The CSV_HEADER columns for this image."""
        rates = [self.bits_confirmed, self.er_per_pixel, self.er_per_step]
        return [name, len(self.steps), *rates, *(self._mean(f) for f in STATS)]


def aggregate(reports: Sequence[EmbedReport]) -> dict[str, tuple[float, float]]:
    """Mean and sample std (ddof=1; 0 for a single report) of the rate columns."""
    if not reports:
        raise ValueError("need at least one report")
    table = np.array([rep.row("")[3:] for rep in reports])
    return {
        key: (float(vals.mean()), float(vals.std(ddof=1)) if len(vals) > 1 else 0.0)
        for key, vals in zip(CSV_HEADER[3:], table.T)
    }


def write_csv(reports: Sequence[EmbedReport], names: Sequence[str], sink) -> None:
    """Detail row per image plus mean and std summary rows."""
    summary = aggregate(reports)

    def emit(f):
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for name, rep in zip(names, reports):
            w.writerow(rep.row(name))
        w.writerow(["mean", "", ""] + [summary[k][0] for k in CSV_HEADER[3:]])
        w.writerow(["std", "", ""] + [summary[k][1] for k in CSV_HEADER[3:]])

    if hasattr(sink, "write"):
        emit(sink)
    else:
        with open(sink, "w", newline="") as f:
            emit(f)


def _scale_to_bytes(field_: np.ndarray) -> bytearray:
    lo, hi = field_.min(), field_.max()
    if hi > lo:
        scaled = np.round((field_ - lo) / (hi - lo) * 255)
    elif hi > 0:
        scaled = np.full_like(field_, 255.0)
    else:
        scaled = np.zeros_like(field_)
    return bytearray(scaled.astype(np.uint8).tobytes())


def position_means(reports: Sequence[EmbedReport], attr: str) -> np.ndarray:
    """Per-position mean of a StepRecord field across same-shape reports."""
    shape = (reports[0].width, reports[0].height, reports[0].channels)
    for rep in reports:
        if (rep.width, rep.height, rep.channels) != shape:
            raise ShapeMismatch(f"report shape {(rep.width, rep.height, rep.channels)} != {shape}")
    return np.mean([rep.column(attr) for rep in reports], axis=0)


def heatmaps(reports: Sequence[EmbedReport]) -> tuple[ImageGrid, ImageGrid]:
    """Min-max scaled per-position mean H(p) and mean confirmed-bits maps.

    Multi-channel step values are averaged per pixel so the maps stay gray.
    """
    w, h, c = reports[0].width, reports[0].height, reports[0].channels
    ent = position_means(reports, "h_p").reshape(h * w, c).mean(axis=1).reshape(h, w)
    bits = position_means(reports, "bits_confirmed").reshape(h * w, c).mean(axis=1).reshape(h, w)
    return (
        ImageGrid(w, h, 1, _scale_to_bytes(ent)),
        ImageGrid(w, h, 1, _scale_to_bytes(bits)),
    )
