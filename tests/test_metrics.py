import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stegosampler import coder, metrics, models
from stegosampler.bitio import BitStream, BitString
from stegosampler.coder import (
    CapacityExceeded,
    CoderState,
    embed_image,
    embed_step,
    quantize,
)
from stegosampler.metrics import (
    STATS,
    STATS_CELLS,
    AbsoluteContinuityViolated,
    EmbedReport,
    ShapeMismatch,
    StepRecord,
    aggregate,
    heatmaps,
    step_stats,
    write_csv,
)
from stegosampler.models import (
    INT64_MAX,
    MANY_RUNS,
    FixedModel,
    PixelDistribution,
    StreamModel,
)
from stegosampler.pnm import ImageGrid


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
    q[list(partition.order[: len(ws)])] = ws / partition.width
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
        d.runs = d.runs[-1:] + d.runs[:-1]
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


def test_step_stats_of_no_steps():
    assert step_stats([], []).shape == (0, 4)


def test_step_stats_mixes_the_int64_and_python_int_rows():
    # 2^62 units times a top weight near 2^32 is past the int64 guard; 2^20 units are not
    heavy = np.full(256, (1 << 32) - 1, dtype=np.int64)
    heavy[::2] = 3
    # a top weight of 2^30 at the guard's edge, on both sides: on the int64 side the width
    # times the total passes 2^63 - 1
    edge = PixelDistribution([1 << 30, *range(255, 0, -1)])
    dists = [PixelDistribution(heavy), PixelDistribution(np.arange(256) % 5)] * 3 + [edge] * 2
    widths = [1 << 62, 1 << 20, (1 << 62) - 12345, 1 << 20, 7, 1 << 62,
              INT64_MAX // edge.top, INT64_MAX // edge.top + 1]
    got = step_stats(dists, np.array(widths))
    want = np.array([oracle_stats(d, w) for d, w in zip(dists, widths)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(8, 62))
def test_step_stats_of_one_symbol_rows_match_their_runs(seed, prc):
    """A row with more than MANY_RUNS runs, stored one symbol per run, gets the stats it gets
    stored as its runs of equal weight. A row with fewer keeps the very bits of its H(p). Its
    other stats sum the chunk's nonzero widths padded to the widest row, which one symbol per
    run can widen, and numpy's pairwise sums group padded rows of other lengths differently."""
    rng = np.random.default_rng(seed)
    table = []
    # weights from up to 63 values (at most 64 runs) or from 120 to 256 (almost surely more)
    for n in rng.permutation([*rng.integers(1, 64, 12), *rng.integers(120, 257, 12)]):
        w = rng.choice(rng.integers(0, 1 << 24, n), 256)
        w[rng.integers(256)] += 1  # total > 0
        table.append(w)
    widths = np.array([int(rng.integers(2, 1 << int(rng.integers(2, prc + 1)), endpoint=True))
                       for _ in table])
    got = step_stats([PixelDistribution(w) for w in table], widths)
    with mock.patch.object(models, "MANY_RUNS", 256):  # every row stored as its runs
        as_runs = [PixelDistribution(w) for w in table]
        want = step_stats(as_runs, widths)
    one_symbol = np.array([len(d.runs) > MANY_RUNS for d in as_runs])
    assert all((PixelDistribution(w).runs is None) == m for w, m in zip(table, one_symbol))
    np.testing.assert_array_equal(got[~one_symbol, 0], want[~one_symbol, 0])
    # H(p) and H(q) sum terms of one sign: another summation order of up to 256 of them moves
    # the sum by at most about 2 * 256 * 2^-53 of itself, under 1e-13. KLD and JSD sum terms of
    # both signs that nearly cancel when q is close to p, so their error is absolute instead:
    # the same factor times the sum of the terms' magnitudes, a few bits, under 1e-12.
    np.testing.assert_allclose(got[:, :2], want[:, :2], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(stats_chunk(), st.integers(0, 2**32 - 1))
def test_a_steps_stats_do_not_depend_on_its_chunk(chunk, seed):
    """Each step's four stats are bit for bit those it gets alone, whatever rows of other widths
    share its chunk: rows of a few runs are padded to the widest row, up to 256 cells."""
    dists, widths = chunk
    rng = np.random.default_rng(seed)
    for n in rng.integers(1, 9, 8):  # rows drawn from 1 to 8 values: at most 9 runs
        w = rng.choice(rng.integers(1, 1 << 24, n), 256)
        dists.append(PixelDistribution(w))
        widths.append(int(rng.integers(1, max(widths), endpoint=True)))
    order = rng.permutation(len(dists))
    dists, widths = [dists[i] for i in order], np.array(widths)[order]
    got = step_stats(dists, widths)
    alone = np.array([step_stats([d], [w])[0] for d, w in zip(dists, widths)])
    assert got.tobytes() == alone.tobytes()


class PlannedModel:
    """One kind of row for each 256 steps: a shared 3-run row, a shared 256-run row, or a
    distribution of a few runs made afresh at every step, as a stream's are. A fresh row is
    drawn from its step's index, so a second lookup of a step gives the same weights."""

    NARROW = PixelDistribution(np.arange(256) % 3 + 1)
    WIDE = PixelDistribution(np.arange(256) * 7 + 1)

    def __init__(self, plan, seed):
        self.plan, self.seed = plan, seed

    def distribution(self, prefix, step):
        kind = self.plan[step // 256]
        if kind < 2:
            return (self.NARROW, self.WIDE)[kind]
        rng = np.random.default_rng([self.seed, step])
        return PixelDistribution(rng.choice([1, 5, 90, 1000], 256))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=17, max_size=17), st.integers(0, 2**32 - 1))
@example([0, 1] * 8 + [2], 0)  # a slice begun on a 3-run row holds 256-run rows too
def test_stats_chunks_stay_within_their_cells(plan, seed):
    """Whatever rows come next, no step_stats table passes STATS_CELLS, its steps times its
    widest row, and the stats are those of one call over every step's lookup."""
    calls, depth = [], [0]  # (depth, steps, widest row) of each call, in call order
    real = metrics.step_stats

    def traced(dists, widths):
        runs = max((len(d.run_start) - 1 for d in dists), default=0)
        calls.append((depth[0], len(dists), runs))
        depth[0] += 1
        try:
            return real(dists, widths)
        finally:
            depth[0] -= 1

    model = PlannedModel(plan, seed)
    with mock.patch.object(coder, "step_stats", traced), mock.patch.object(
        metrics, "step_stats", traced
    ):
        _, rep = embed_image(model, 70, 60, 1, b"", framed=False, pad_seed=seed, collect=True)
    fills = [c for c in calls if c[0] == 0]
    tables = [c for c, after in zip(calls, calls[1:] + [(0,)]) if after[0] <= c[0]]
    assert sum(n for _, n, _ in fills) == 70 * 60
    assert all(n * runs <= STATS_CELLS for _, n, runs in tables)
    dists = [model.distribution(None, step) for step in range(70 * 60)]
    want = step_stats(dists, rep.steps.width_before)
    assert np.column_stack([rep.steps[name] for name in STATS]).tobytes() == want.tobytes()


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

    def test_no_reports(self):
        with pytest.raises(ValueError, match="at least one report"):
            aggregate([])

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

    def test_varying_field_scales_min_to_max(self):
        rep = fake_report([0, 2, 4, 8])
        ent, bits = heatmaps([rep])
        assert bytes(bits.data) == bytes([0, 64, 128, 255])
        assert bytes(ent.data) == b"\xff" * 4  # constant H(p) = 1 saturates

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            heatmaps([fake_report([1] * 4), fake_report([1] * 6, w=3)])

    @pytest.mark.parametrize("maps", [heatmaps, lambda reps: metrics.position_means(reps, "h_p")],
                             ids=["heatmaps", "position_means"])
    def test_no_reports(self, maps):
        with pytest.raises(ValueError, match="need at least one report"):
            maps([])

    def test_rgb_reports_give_gray_maps(self):
        rep = fake_report([1] * 12, w=2, h=2, c=3)
        ent, bits = heatmaps([rep])
        assert ent.channels == 1 and len(ent.data) == 4


MODEL = FixedModel(np.arange(1, 257) % 7 + 1)
W, H = 17, 16  # 272 steps: one 256-step slice and 16 more


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
        for step in range(W * H):
            dists.append(MODEL.distribution(grid, step))
            value, s, q_width, width = embed_step(state, dists[-1], msg)
            grid.data[step] = value
            records.append(StepRecord(value, s, q_width, width))
        assert rep.steps.dtype.names == StepRecord._fields
        assert np.isnan(embed(collect=False, prc=prc)[1].steps[list(STATS)].tolist()).all()
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
        """Stats come after the last coding step, a slice of lookups at a time: one step_stats
        call takes all 272 steps of a shared 3-run row, and a row of 256 runs or a stream's
        distinct rows go 256 a call, each slice looked up just before its call."""
        calls, asked = [], []  # (steps, lookups made so far); steps asked
        real = coder.step_stats

        def counted(dists, widths):
            calls.append((len(dists), len(asked)))
            return real(dists, widths)

        def asking(model):
            ask = model.distribution
            model.distribution = lambda grid, step: asked.append(step) or ask(grid, step)
            return model

        monkeypatch.setattr(coder, "step_stats", counted)
        rng = np.random.default_rng(4)
        n = W * H
        narrow = FixedModel(MODEL.distribution(None, None).weights)
        wide = FixedModel(rng.permutation(256) + 1)  # 256 runs, one symbol each
        for model, want in ((narrow, [(n, 2 * n)]), (wide, [(256, n + 256), (n - 256, 2 * n)])):
            calls.clear()
            asked.clear()
            embed(collect=True, model=asking(model))
            assert calls == want
            assert asked == [*range(n), *range(n)]  # coding, then the stats pass
        calls.clear()
        asked.clear()
        stream = StreamModel([rng.permutation(256) + 1 for _ in range(n)])
        embed(collect=True, model=asking(stream))
        assert calls == [(256, n), (n - 256, n)]  # the stats pass gathers the image at once
        calls.clear()
        embed(collect=False)
        assert calls == []

    def test_capacity_failure_computes_no_stats(self, monkeypatch):
        calls = []
        monkeypatch.setattr(coder, "step_stats", lambda *args: calls.append(args))
        with pytest.raises(CapacityExceeded):
            embed_image(MODEL, 4, 4, 1, bytes(100), pad_seed=1, collect=True)
        assert calls == []

    def test_stats_are_one_step_stats_call_over_the_lookups(self, monkeypatch):
        """A fixed model's stats are bit for bit one step_stats call over its per-step lookups,
        and embed makes just that call."""
        calls = []
        real = coder.step_stats
        monkeypatch.setattr(coder, "step_stats", lambda *a: calls.append(a) or real(*a))
        _, rep = embed(collect=True)
        dists = [MODEL.distribution(None, step) for step in range(W * H)]
        want = real(dists, rep.steps.width_before)
        assert len(calls) == 1
        assert np.column_stack([rep.steps[name] for name in STATS]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("w, h, c", [(16, 16, 1), (32, 32, 3)])
    def test_streams_of_whole_chunks_fill_every_stat(self, w, h, c):
        """A stream of whole 256-step chunks fills every stat, its last slice too."""
        table = np.random.default_rng(w).integers(1, 1 << 12, (w * h * c, 256))
        model, seen = StreamModel(table), []
        ask = model.distribution
        model.distribution = lambda grid, step: seen.append(ask(grid, step)) or seen[-1]
        _, rep = embed_image(model, w, h, c, b"", framed=False, pad_seed=5, collect=True)
        got = np.column_stack([rep.steps[name] for name in STATS])
        assert not np.isnan(got).any()
        assert got.tobytes() == step_stats(seen, rep.steps.width_before).tobytes()

    def test_stats_of_a_stream_hold_no_more_as_the_image_grows(self):
        """The stats pass holds one slice of a stream at a time: from 32x32 to 64x64 RGB, its
        peak grows as much as a plain embed's does, and no more than a few KiB besides."""

        def peak(s, collect):
            model = StreamModel(np.random.default_rng(5).integers(1, 1 << 20, (3 * s * s, 256)))
            tracemalloc.start()
            try:
                embed_image(model, s, s, 3, b"", framed=False, pad_seed=1, collect=collect)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain, stats = (peak(64, collect) - peak(32, collect) for collect in (False, True))
        assert stats <= plain + (64 << 10), f"stats grew {stats} B, a plain embed {plain} B"

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
