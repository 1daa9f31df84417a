import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stegosampler import coder
from stegosampler.bitio import BitStream, BitString
from stegosampler.coder import (
    CoderState,
    StepRecord,
    embed_image,
    embed_step,
    quantize,
)
from stegosampler.metrics import (
    STATS,
    AbsoluteContinuityViolated,
    EmbedReport,
    ShapeMismatch,
    aggregate,
    heatmaps,
    step_stats,
    write_csv,
)
from stegosampler.models import FixedModel, PixelDistribution, StreamModel
from stegosampler.pnm import ImageGrid, sequence_positions


def dist(**mass):
    w = np.zeros(256, dtype=np.int64)
    for v, m in mass.items():
        w[int(v)] = m
    return PixelDistribution(w)


def stats_of(dist_, width):
    return dict(zip(("h_p", "h_q", "kld", "jsd"), step_stats([dist_], [width])[0]))


class TestEntropy:
    def test_uniform(self):
        assert stats_of(PixelDistribution(np.ones(256, dtype=np.int64)), 1 << 26)["h_p"] == 8.0

    def test_point_mass(self):
        assert stats_of(dist(**{"7": 1}), 1 << 26)["h_p"] == 0.0

    def test_two_equal(self):
        assert stats_of(dist(**{"0": 5, "255": 5}), 1 << 26)["h_p"] == 1.0

    def test_partition(self):
        # two units per value: q = (1/2, 1/2)
        assert stats_of(dist(**{"3": 1, "9": 1}), 4)["h_q"] == 1.0


def shannon(p):
    """Shannon entropy in bits of a probability vector, summed value by value."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def oracle_stats(dist_, width):
    """The per-step stats as computed inside each coding step before they became columns."""
    partition = quantize(dist_, CoderState(62, 0, int(width) - 1))
    q = np.zeros(256)
    ws = np.diff(partition.cut)
    q[partition.order[: len(ws)]] = ws / partition.width
    nz, p = q > 0, dist_.weights / dist_.total
    if np.any(p[nz] == 0):
        raise AbsoluteContinuityViolated("quantized mass on a zero-weight symbol")
    kld = float((q[nz] * np.log2(q[nz] / p[nz])).sum())
    m = 0.5 * (p + q)
    pnz = p > 0
    dqm = (q[nz] * np.log2(q[nz] / m[nz])).sum()
    dpm = (p[pnz] * np.log2(p[pnz] / m[pnz])).sum()
    return shannon(p), shannon(q), kld, float(0.5 * dqm + 0.5 * dpm)


class TestDivergences:
    def test_zero_when_equal(self):
        d = dist(**{"0": 3, "1": 1})
        st_ = stats_of(d, 1 << 26)
        assert st_["kld"] == pytest.approx(0.0, abs=1e-7)
        assert st_["jsd"] == pytest.approx(0.0, abs=1e-7)
        assert st_["h_q"] == pytest.approx(st_["h_p"])

    def test_known_value(self):
        # p = (3/4, 1/4) over 5 units: floors (3, 1), the deficit widens rank 0: q = (4/5, 1/5)
        st_ = stats_of(dist(**{"0": 3, "1": 1}), 5)
        assert st_["kld"] == pytest.approx(0.8 * math.log2(0.8 / 0.75) + 0.2 * math.log2(0.2 / 0.25))
        assert st_["h_q"] == pytest.approx(-(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2)))
        m = (0.775, 0.225)
        jsd = 0.5 * (0.8 * math.log2(0.8 / m[0]) + 0.2 * math.log2(0.2 / m[1])) + 0.5 * (
            0.75 * math.log2(0.75 / m[0]) + 0.25 * math.log2(0.25 / m[1])
        )
        assert st_["jsd"] == pytest.approx(jsd)

    def test_point_mass_on_a_fair_coin(self):
        # one unit of width: both floors are 0 and rank 0 takes it all, so q = (1, 0)
        st_ = stats_of(dist(**{"5": 1, "9": 1}), 1)
        assert st_["kld"] == pytest.approx(1.0)
        assert st_["h_q"] == 0.0
        # m = (3/4, 1/4); where q = 0, p·log2(p/m) is exactly p = 1/2
        jsd = 0.5 * math.log2(4 / 3) + 0.5 * (0.5 * math.log2(2 / 3) + 0.5)
        assert st_["jsd"] == pytest.approx(jsd)

    def test_absolute_continuity(self):
        # a distribution whose top rank has zero weight: the deficit puts q's mass there
        d = dist(**{"5": 1, "9": 1})
        d.run_w = np.roll(d.run_w, 1)
        with pytest.raises(AbsoluteContinuityViolated):
            step_stats([d], [1])


@st.composite
def stats_chunk(draw):
    """A chunk of steps: prc, distributions (shared between steps or not) and widths."""
    prc = draw(st.integers(8, 62))
    n = draw(st.sampled_from([1, 255, 256, 257]))
    distinct = draw(st.sampled_from([1, 3, n]))
    top = draw(st.sampled_from([8, 20, 32]))  # weights below 2^top
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dists = []
    for _ in range(distinct):
        w = rng.integers(0, 1 << top, 256)
        w[rng.random(256) < rng.random()] = 0  # sparse and skewed ones too
        w[rng.integers(256)] += 1
        dists.append(PixelDistribution(w))
    steps = [dists[i] for i in rng.integers(0, distinct, n)]
    bits = rng.integers(1, prc + 1, n)
    widths = [int(rng.integers(1 << (b - 1), 1 << b, endpoint=True)) for b in bits]
    return steps, widths


@settings(max_examples=40, deadline=None)
@given(stats_chunk())
def test_step_stats_matches_per_step_formula(chunk):
    dists, widths = chunk
    got = step_stats(dists, np.array(widths))
    assert got.shape == (len(dists), 4)
    want = np.array([oracle_stats(d, w) for d, w in zip(dists, widths)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_step_stats_mixes_the_int64_and_python_int_rows():
    # 2^62 units times a top weight near 2^32 is past the int64 guard; 2^20 units are not
    heavy = np.full(256, (1 << 32) - 1, dtype=np.int64)
    heavy[::2] = 3
    dists = [PixelDistribution(heavy), PixelDistribution(np.arange(256) % 5)] * 3
    widths = [1 << 62, 1 << 20, (1 << 62) - 12345, 1 << 20, 7, 1 << 62]
    got = step_stats(dists, np.array(widths))
    want = np.array([oracle_stats(d, w) for d, w in zip(dists, widths)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
        buf = io.BytesIO()
        write_csv(reports, [f"img{i}" for i in range(5)], buf)
        lines = buf.getvalue().decode().strip().splitlines()
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
W, H = 17, 16  # 272 steps: stats in two chunks


def embed(collect, prc=26, model=MODEL):
    return embed_image(
        model, W, H, 1, b"\x5a\xc3", prc=prc, framed=False, pad_seed=9, collect=collect
    )


class TestSteps:
    @pytest.mark.parametrize("prc", [8, 26, 62])
    def test_rows_are_the_records_embed_step_returns(self, prc):
        _, rep = embed(collect=True, prc=prc)
        state, msg = CoderState(prc), BitStream(BitString(b"\x5a\xc3"), 9)
        grid = ImageGrid.blank(W, H, 1)
        records, dists = [], []
        for pos in sequence_positions(W, H, 1):
            dists.append(MODEL.distribution(grid, pos))
            rec = embed_step(state, dists[-1], msg)
            grid.data[pos.index] = rec.pixel_value
            records.append(rec)
        assert rep.steps.dtype.names == StepRecord._fields
        assert np.isnan([rec[4:] for rec in records]).all()  # embed_step leaves the stats out
        assert [row[:4] for row in rep.steps.tolist()] == [rec[:4] for rec in records]
        stats = step_stats(dists, rep.steps.width_before)
        for i, name in enumerate(STATS):
            np.testing.assert_allclose(rep.steps[name], stats[:, i], rtol=0, atol=1e-12)
        assert rep.bits_confirmed == sum(r.bits_confirmed for r in records)
        info = math.fsum(-math.log2(r.q_width / r.width_before) for r in records)
        assert rep.self_information_bits == pytest.approx(info, rel=1e-9)

    def test_chunked_stats_match_the_per_step_formula(self):
        table = np.random.default_rng(3).integers(0, 1 << 12, (W * H, 256))
        table[:, 7] += 1
        _, rep = embed(collect=True, model=StreamModel(table))
        for k, row in enumerate(rep.steps):
            want = oracle_stats(PixelDistribution(table[k]), row.width_before)
            np.testing.assert_allclose([row[name] for name in STATS], want, rtol=0, atol=1e-12)

    def test_stats_come_in_chunks(self, monkeypatch):
        calls = []
        real = coder.step_stats
        monkeypatch.setattr(coder, "step_stats", lambda d, w: calls.append(len(d)) or real(d, w))
        embed(collect=True)
        assert calls == [256, W * H - 256]
        calls.clear()
        embed(collect=False)
        assert calls == []

    def test_uncollected_stats_are_nan(self):
        _, rep = embed(collect=False)
        assert len(rep.steps) == W * H
        assert np.isnan(rep.steps.kld).all() and np.isnan(rep.steps[3].h_p)
        collected = embed(collect=True)[1].steps
        for name in StepRecord._fields[:4]:
            assert (rep.steps[name] == collected[name]).all()

    @pytest.mark.parametrize(
        "read, field",
        [
            (lambda rep: rep.mean_kld, "kld"),
            (lambda rep: write_csv([rep], ["x"], io.BytesIO()), "h_p"),
            (lambda rep: heatmaps([rep]), "h_p"),
        ],
        ids=["mean_kld", "write_csv", "heatmaps"],
    )
    def test_uncollected_stats_raise(self, read, field):
        _, rep = embed(collect=False)
        with pytest.raises(ValueError, match=f"per-step {field} was not collected"):
            read(rep)


@settings(max_examples=60)
@given(
    st.lists(st.integers(1, 50), min_size=256, max_size=256),
    st.integers(1, 256),
)
def test_gibbs_and_jsd_bounds(p_w, width):
    d = PixelDistribution(np.array(p_w))
    _, h_q, kld, jsd = step_stats([d], [width])[0]
    assert -1e-12 <= jsd <= 1 + 1e-12
    assert 0 <= h_q <= 8 + 1e-12
    # q = p exactly iff every floor is exact; otherwise Gibbs: D_KL(q||p) > 0
    if (width * d.weights % d.total == 0).all():
        assert kld == pytest.approx(0, abs=1e-9)
    else:
        assert kld > 0
