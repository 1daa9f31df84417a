"""Acceptance suite: one test per criterion, printing a pass/fail line each."""
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stegosampler import coder, corpus, metrics, models
from stegosampler.bitio import BitStream, BitString
from stegosampler.coder import CoderState, embed_image, embed_step, extract_image

PRC_SET = (8, 16, 26, 40)

DESK_SEED = 11
DESK_BUCKETS = 4
DESK_COUNT = 500


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {text}")
        raise
    print(f"criterion {num}: pass - {text}")


@pytest.fixture(scope="module")
def desk():
    """Trained desk model plus 500 generated 28x28 images with step metrics."""
    t0 = time.perf_counter()
    strokes = corpus.stroke_corpus(DESK_COUNT, 28, 28, 1, seed=DESK_SEED)
    model = models.train_context_model(strokes, buckets=DESK_BUCKETS)
    reports = []
    for i in range(DESK_COUNT):
        _, rep = embed_image(
            model, 28, 28, 1, b"", prc=26, framed=False,
            pad_seed=DESK_SEED * 1000 + i, collect=True,
        )
        reports.append(rep)
    return model, reports, time.perf_counter() - t0


def _golden_dist():
    w = np.zeros(256, dtype=np.int64)
    w[0] = 14
    w[4] = 2
    for v in list(range(1, 4)) + list(range(5, 18)):
        w[v] = 1
    return models.PixelDistribution(w)


def test_criterion_1_golden_vector():
    with criterion(1, "5-bit golden step: pixel 4, bits 0111, full renormalization"):
        dist = _golden_dist()
        elapsed = []
        for _ in range(3):
            state = CoderState(5)
            msg = BitStream(BitString(b"\x78", 5), pad_seed=0)
            t0 = time.perf_counter()
            value, s, q_width, width = embed_step(state, dist, msg)
            elapsed.append(time.perf_counter() - t0)
            assert value == 4
            assert s == 4
            assert (state.low, state.high) == (0, 31)
            ex = CoderState(5)
            prefix, s = coder.extract_step(ex, dist, 4)
            assert (prefix, s) == (0b0111, 4)
            assert (ex.low, ex.high) == (0, 31)
        assert min(elapsed) < 1e-3


def _case_models():
    gray_strokes = corpus.stroke_corpus(60, 16, 16, 1, seed=7, noise=0.4)
    rgb_strokes = corpus.stroke_corpus(60, 16, 16, 3, seed=8, noise=0.4)
    synth = np.array([((v * 37) % 251) + 1 for v in range(256)], dtype=np.int64)
    return {
        "uniform": (models.UniformModel(), (1, 3)),
        "trained-gray": (models.train_context_model(gray_strokes, buckets=4), (1,)),
        "trained-rgb": (models.train_context_model(rgb_strokes, buckets=4), (3,)),
        "synthetic": (models.FixedModel(synth), (1, 3)),
    }


@pytest.fixture(scope="module")
def roundtrips():
    """Criterion 2's 200 randomized framed roundtrips.

    Returns ([(case label, payload, recovered, report)], elapsed seconds).
    """
    t0 = time.perf_counter()
    rng = random.Random(20240)
    pool = _case_models()
    names = sorted(pool)
    runs = []
    for case in range(200):
        name = names[case % len(names)]
        model, channel_opts = pool[name]
        c = rng.choice(channel_opts)
        w = rng.randint(8, 32)
        h = rng.randint(8, 32)
        prc = PRC_SET[case % len(PRC_SET)]
        seed = rng.getrandbits(64)
        # probe capacity with a random raw message, then keep a 2x margin
        _, probe = embed_image(
            model, w, h, c, b"", prc=prc, framed=False, pad_seed=seed, collect=False
        )
        nbytes = max(0, (probe.bits_confirmed - 32) // 16)
        payload = rng.randbytes(min(nbytes, 4096))
        while True:
            try:
                grid, rep = embed_image(
                    model, w, h, c, payload, prc=prc, pad_seed=seed, collect=False
                )
                break
            except coder.CapacityExceeded:
                assert payload, f"case {case} ({name}): no capacity for empty payload"
                payload = payload[: len(payload) // 2]
        recovered = extract_image(model, grid, prc=prc)
        runs.append((f"case {case} ({name})", payload, recovered, rep))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def uniform_runs():
    """Criterion 3's raw uniform embeds: [(w, h, payload, grid, report)]."""
    rng = random.Random(99)
    runs = []
    for w, h in [(1, 1), (2, 2), (5, 3), (8, 8), (16, 16), (31, 7)]:
        payload = rng.randbytes(w * h)
        for prc in PRC_SET:
            grid, rep = embed_image(
                models.UniformModel(), w, h, 1, payload,
                prc=prc, framed=False, pad_seed=1, collect=False,
            )
            runs.append((w, h, payload, grid, rep))
    return runs


def test_criterion_2_lossless_roundtrip(roundtrips):
    with criterion(2, "200 randomized framed roundtrips, byte-identical, <60 s"):
        runs, elapsed = roundtrips
        assert len(runs) == 200
        for label, payload, recovered, _ in runs:
            assert recovered == payload, label
        assert elapsed < 60


def test_criterion_3_uniform_capacity(uniform_runs):
    with criterion(3, "uniform gray model: exactly 8.0000 bpp, pixels = message bytes"):
        for w, h, payload, grid, rep in uniform_runs:
            assert bytes(grid.data) == payload
            assert rep.bits_confirmed == 8 * w * h
            assert rep.er_per_pixel == 8.0


def test_criterion_4_code_length_bound(roundtrips, uniform_runs):
    with criterion(4, "|confirmed - sum(-log2 q_chosen)| <= prc on every tracked run"):
        reports = [run[-1] for run in roundtrips[0]] + [run[-1] for run in uniform_runs]
        assert len(reports) == 200 + 6 * len(PRC_SET)
        for rep in reports:
            bound = abs(rep.bits_confirmed - rep.self_information_bits)
            assert bound <= rep.prc + 1e-6


def test_criterion_5_imperceptibility(desk):
    with criterion(5, "desk model at prc=26: mean step KLD and JSD <= 1e-4 bits, <120 s"):
        model, reports, elapsed = desk
        klds = np.array([s.kld for rep in reports for s in rep.steps])
        jsds = np.array([s.jsd for rep in reports for s in rep.steps])
        assert klds.mean() <= 1e-4
        assert jsds.mean() <= 1e-4
        assert elapsed < 120


def test_criterion_6_lsb_baseline():
    with criterion(6, "LSB rejection baseline: exactly 1.0000 bit/step, exact recovery"):
        strokes = corpus.stroke_corpus(40, 12, 12, 1, seed=5, noise=0.3)
        model = models.train_context_model(strokes, buckets=4)
        rng = random.Random(6)
        for trial in range(20):
            w, h = rng.randint(2, 12), rng.randint(2, 12)
            payload = rng.randbytes(max(1, w * h // 8))
            grid = coder.lsb_embed(
                model, w, h, 1, payload, rng_seed=trial, pad_seed=trial
            )
            n = w * h  # one bit per step, always
            msg = BitStream(BitString(payload), trial)
            expect = msg.window(0, min(64, n)) if n <= 64 else None
            bits = coder.lsb_extract(grid)
            assert bits.length == n
            got = BitStream(bits, 0)
            if expect is not None:
                assert got.window(0, min(64, n)) == expect
            else:
                for j in range(n):
                    assert got.window(j, 1) == msg.window(j, 1)


def test_criterion_7_adaptivity(desk):
    with criterion(7, "per-position mean H(q) vs mean confirmed bits: Pearson >= 0.8"):
        _, reports, _ = desk
        h_q = metrics.position_means(reports, "h_q")
        bits = metrics.position_means(reports, "bits_confirmed")
        r = float(np.corrcoef(h_q, bits)[0, 1])
        assert r >= 0.8, f"correlation {r:.3f}"


def test_criterion_8_entropy_tracking():
    with criterion(8, ">=4096-step images: confirmed >= 98% of quantized self-information"):
        noise_model = models.train_context_model(
            corpus.noise_corpus(100, 16, 16, 1, seed=3), buckets=4
        )
        for model in (models.UniformModel(), noise_model):
            _, rep = embed_image(
                model, 64, 64, 1, b"", prc=26, framed=False, pad_seed=88, collect=False
            )
            assert len(rep.steps) >= 4096
            total = rep.self_information_bits
            assert abs(rep.bits_confirmed - total) <= rep.prc + 1e-6
            assert rep.bits_confirmed >= 0.98 * total


def test_criterion_9_determinism(desk):
    with criterion(9, "fixed-seed embeds byte-identical; training order-independent"):
        model, _, _ = desk
        runs = [
            embed_image(
                model, 20, 20, 1, b"abc", framed=False, pad_seed=4242, collect=False
            )[0]
            for _ in range(2)
        ]
        assert bytes(runs[0].data) == bytes(runs[1].data)

        imgs = corpus.stroke_corpus(20, 10, 10, 1, seed=2)
        base = models.train_context_model(imgs)
        perm = list(imgs)
        random.Random(1).shuffle(perm)
        assert (models.train_context_model(perm).counts == base.counts).all()
