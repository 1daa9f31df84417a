import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stegosampler.bitio import BitStream, BitString
from stegosampler.coder import (
    CoderState,
    QuantizedPartition,
    StepRecord,
    embed_image,
    embed_step,
    quantize,
)
from stegosampler.metrics import (
    AbsoluteContinuityViolated,
    EmbedReport,
    ShapeMismatch,
    aggregate,
    entropy,
    heatmaps,
    jsd_q_p,
    kld_q_p,
    write_csv,
)
from stegosampler.models import FixedModel, PixelDistribution
from stegosampler.pnm import ImageGrid, sequence_positions


def dist(**mass):
    w = np.zeros(256, dtype=np.int64)
    for v, m in mass.items():
        w[int(v)] = m
    return PixelDistribution(w)


def partition(widths_by_symbol):
    """Hand-built partition: {symbol: width} in rank order."""
    order = np.array(list(widths_by_symbol) + [v for v in range(256) if v not in widths_by_symbol])
    cut = [0]
    for w in widths_by_symbol.values():
        cut.append(cut[-1] + w)
    return QuantizedPartition(order, cut, cut[-1])


class TestEntropy:
    def test_uniform(self):
        assert entropy(PixelDistribution(np.ones(256, dtype=np.int64))) == 8.0

    def test_point_mass(self):
        assert entropy(dist(**{"7": 1})) == 0.0

    def test_two_equal(self):
        assert entropy(dist(**{"0": 5, "255": 5})) == 1.0

    def test_partition(self):
        assert entropy(partition({3: 2, 9: 2})) == 1.0


class TestDivergences:
    def test_zero_when_equal(self):
        d = dist(**{"0": 3, "1": 1})
        part = quantize(d, CoderState(26))
        assert kld_q_p(part, d) == pytest.approx(0.0, abs=1e-7)
        assert jsd_q_p(part, d) == pytest.approx(0.0, abs=1e-7)

    def test_known_value(self):
        # p = (3/4, 1/4), q = (1/2, 1/2): D_KL(q||p) = 1 - log2(3)/2
        d = dist(**{"0": 3, "1": 1})
        part = partition({0: 2, 1: 2})
        assert kld_q_p(part, d) == pytest.approx(1 - math.log2(3) / 2)

    def test_disjoint_point_masses_jsd(self):
        d = dist(**{"5": 1})
        part = partition({9: 4})
        assert jsd_q_p(part, d) == pytest.approx(1.0)

    def test_absolute_continuity(self):
        d = dist(**{"5": 1})
        part = partition({9: 4})
        with pytest.raises(AbsoluteContinuityViolated):
            kld_q_p(part, d)


def fake_report(bits_per_step, w=2, h=2, c=1, h_p=1.0):
    records = [StepRecord(0, s, 1, 2, h_p=h_p, h_q=h_p, kld=0.0, jsd=0.0) for s in bits_per_step]
    return EmbedReport(w, h, c, 26, records)


class TestAggregate:
    def test_single_report_zero_std(self):
        summary = aggregate([fake_report([1, 1, 1, 1])])
        assert summary["er_pixel"] == (1.0, 0.0)

    def test_two_reports(self):
        a = fake_report([1, 1, 1, 1])  # ER 1.0 bpp
        b = fake_report([3, 3, 3, 3])  # ER 3.0 bpp
        mean, std = aggregate([a, b])["er_pixel"]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(math.sqrt(2))

    def test_columns_keep_their_names(self):
        # 2x2 RGB, 12 steps of 2 bits: 6 bits per pixel, 2 per step
        records = [StepRecord(0, 2, 1, 2, h_p=4.0, h_q=3.0, kld=0.5, jsd=0.25)] * 12
        summary = aggregate([EmbedReport(2, 2, 3, 26, records)])
        assert {key: mean for key, (mean, _) in summary.items()} == {
            "er_pixel": 6.0, "er_step": 2.0, "h_p": 4.0, "h_q": 3.0, "kld": 0.5, "jsd": 0.25
        }

    def test_csv_shape(self):
        reports = [fake_report([1, 1, 1, 1]) for _ in range(5)]
        buf = io.StringIO()
        write_csv(reports, [f"img{i}" for i in range(5)], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "image,steps,bits,er_pixel,er_step,h_p,h_q,kld,jsd"
        assert len(lines) == 1 + 5 + 2  # header, detail, mean, std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")


class TestHeatmaps:
    def test_degenerate_all_zero(self):
        rep = fake_report([0, 0, 0, 0], h_p=0.0)
        ent, bits = heatmaps([rep])
        assert bytes(ent.data) == b"\x00" * 4
        assert bytes(bits.data) == b"\x00" * 4

    def test_constant_nonzero_field_saturates(self):
        rep = fake_report([8, 8, 8, 8], h_p=8.0)
        ent, bits = heatmaps([rep])
        assert bytes(ent.data) == b"\xff" * 4
        assert bytes(bits.data) == b"\xff" * 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            heatmaps([fake_report([1] * 4), fake_report([1] * 6, w=3)])

    def test_rgb_reports_give_gray_maps(self):
        rep = fake_report([1] * 12, w=2, h=2, c=3)
        ent, bits = heatmaps([rep])
        assert ent.channels == 1 and len(ent.data) == 4


MODEL = FixedModel(np.arange(1, 257) % 7 + 1)


def embed(collect, prc=26):
    return embed_image(MODEL, 4, 3, 1, b"\x5a\xc3", prc=prc, framed=False, pad_seed=9, collect=collect)


class TestSteps:
    @pytest.mark.parametrize("prc", [8, 26, 62])
    def test_rows_are_the_records_embed_step_returns(self, prc):
        _, rep = embed(collect=True, prc=prc)
        state, msg = CoderState(prc), BitStream(BitString.from_bytes(b"\x5a\xc3"), 9)
        grid = ImageGrid.blank(4, 3, 1)
        records = []
        for pos in sequence_positions(4, 3, 1):
            rec = embed_step(state, MODEL.distribution(grid, pos), msg, collect=True)
            grid.data[pos.index] = rec.pixel_value
            records.append(rec)
        assert rep.steps.dtype.names == StepRecord._fields
        assert rep.steps.tolist() == records
        assert rep.bits_confirmed == sum(r.bits_confirmed for r in records)
        info = math.fsum(-math.log2(r.q_width / r.width_before) for r in records)
        assert rep.self_information_bits == pytest.approx(info, rel=1e-9)

    def test_uncollected_stats_are_nan(self):
        _, rep = embed(collect=False)
        assert len(rep.steps) == 12
        assert np.isnan(rep.steps.kld).all() and np.isnan(rep.steps[3].h_p)
        collected = embed(collect=True)[1].steps
        for name in StepRecord._fields[:4]:
            assert (rep.steps[name] == collected[name]).all()

    @pytest.mark.parametrize(
        "read, field",
        [
            (lambda rep: rep.mean_kld, "kld"),
            (lambda rep: write_csv([rep], ["x"], io.StringIO()), "h_p"),
            (lambda rep: heatmaps([rep]), "h_p"),
        ],
        ids=["mean_kld", "write_csv", "heatmaps"],
    )
    def test_uncollected_stats_raise(self, read, field):
        _, rep = embed(collect=False)
        with pytest.raises(ValueError, match=f"per-step {field} was not collected"):
            read(rep)


@st.composite
def weight_pair(draw):
    p = draw(st.lists(st.integers(1, 50), min_size=256, max_size=256))
    q = draw(st.lists(st.integers(0, 50), min_size=256, max_size=256).filter(lambda w: sum(w) > 0))
    return np.array(p), np.array(q)


@settings(max_examples=60)
@given(weight_pair())
def test_gibbs_and_jsd_bounds(pair):
    p_w, q_w = pair
    d = PixelDistribution(p_w)
    order = np.argsort(-q_w, kind="stable")
    cut = [0]
    for k in range(256):
        if q_w[order[k]] == 0:
            break
        cut.append(cut[-1] + int(q_w[order[k]]))
    part = QuantizedPartition(order, cut, int(q_w.sum()))
    kld = kld_q_p(part, d)
    jsd = jsd_q_p(part, d)
    assert kld >= -1e-12
    assert -1e-12 <= jsd <= 1 + 1e-12
    if (q_w * d.total == p_w * q_w.sum()).all():
        assert kld == pytest.approx(0, abs=1e-9)
    else:
        assert kld > 0
