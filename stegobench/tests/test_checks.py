"""The benchmark's own checks: its oracle agrees with the program on good
outputs, and every output check fails on a corrupted one."""
import os
import random

import numpy as np
import pytest

import oracle
import run
import workloads
from stegosampler import bitio, coder, corpus, models, pnm

SMALL = {"desk-analyze": {"images": 40}, "bulk-message": {"size": 16}, "stream-rgb": {"size": 8}}
SPEC = run.declared(os.path.join(run.ROOT, "BENCHMARK.json"))


def run_small(name, tmp_path, trace=False):
    return run.run(name, 7, 0, trace, str(tmp_path), SPEC, **SMALL[name])


def test_pad_bytes_match_bitstream():
    for seed in (0, 1, 2**63 - 1):
        stream = bitio.BitStream(bitio.BitString(), seed)
        want = b"".join(stream.window(8 * i, 8).to_bytes(1, "big") for i in range(40))
        assert oracle.pad_bytes(seed, 40) == want


def test_quantized_widths_match_quantize():
    rng = random.Random(5)
    model = models.train_context_model(corpus.stroke_corpus(20, 8, 8, 1, seed=1), buckets=4)
    for prc in (8, 16, 26, 40, 62):
        state = coder.CoderState(prc)
        state.low = rng.randrange(1 << (prc - 1))
        state.high = state.low + rng.randrange(2, 1 << (prc - 1))
        for weights in (model.counts[0, 2, 4].astype(np.int64) + 1,
                        np.array([rng.randrange(1 << 32) for _ in range(256)])):
            dist = models.PixelDistribution(weights)
            part = coder.quantize(dist, state)
            q = oracle.quantized_widths(weights, state.width)
            widths = np.diff(part.cut)
            assert [q[v] for v in part.order[: len(widths)]] == widths.tolist()
            assert sum(q) == state.width


def test_stream_entropy_range():
    w = oracle.logistic_mixture_weights(np.random.default_rng(3), 4000)
    h = oracle.entropy_bits(w)
    assert w.min() >= 1 and h.min() < 1.0 and h.max() > 7.5


@pytest.mark.parametrize("name", sorted(SMALL))
def test_good_run_passes(name, tmp_path):
    result = run_small(name, tmp_path)
    assert result["correct"]
    # bulk and desk run one fixed embed a round that stalls every time
    if name == "bulk-message":
        assert result["failed"] * 3 == result["attempted"]
    elif name == "desk-analyze":
        assert result["failed"] * (2 * SMALL[name]["images"] + 2) == result["attempted"]
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_flipped_stego_pixel_fails(name, tmp_path, monkeypatch):
    real = pnm.write_image
    width = 28 if name == "desk-analyze" else SMALL[name]["size"]
    calls = []

    def flipped(grid, sink=None):
        calls.append(grid.width == width)
        if grid.width == width and sum(calls) == 2:  # the second stego image written
            grid = pnm.ImageGrid(grid.width, grid.height, grid.channels, bytearray(grid.data))
            grid.data[0] ^= 1
        return real(grid, sink)

    monkeypatch.setattr(pnm, "write_image", flipped)
    assert not run_small(name, tmp_path)["correct"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_truncated_message_fails(name, tmp_path, monkeypatch):
    real = coder.extract_image

    def truncated(*args, **kwargs):
        return real(*args, **kwargs)[:-1]

    monkeypatch.setattr(coder, "extract_image", truncated)
    assert not run_small(name, tmp_path)["correct"]


def test_kld_off_by_one_unit_fails(tmp_path):
    wl = workloads.DeskAnalyze(7, str(tmp_path), images=2)
    wl.setup()
    grid, rep = coder.embed_image(
        wl.model, 28, 28, 1, b"", prc=wl.prc, framed=False, pad_seed=wl.pads[0], collect=True
    )
    counts = wl.model.counts.astype(np.int64) + wl.model.smooth
    ch, left, up = oracle.context_index(grid.data, 28, 28, 1, 4)
    tried = 0
    for k, step in enumerate(rep.steps):
        weights = counts[ch[k], left[k], up[k]]
        q = oracle.quantized_widths(weights, step.width_before)
        nonzero = [v for v in range(256) if q[v] > 1]
        if len(nonzero) < 2:
            continue
        wl.problems.clear()
        wl.check_step(step, weights, "good")
        assert not wl.problems
        a, b = nonzero[0], nonzero[1]
        q[a] -= 1
        q[b] += 1
        step.kld = oracle.kld_q_p(q, step.width_before, weights)
        wl.check_step(step, weights, "one unit moved")
        assert wl.problems, f"step {k}: a KLD off by one unit passed"
        tried += 1
    assert tried > 20


def test_zero_weight_value_fails(tmp_path):
    wl = workloads.StreamRGB(7, str(tmp_path), size=8)
    wl.setup()
    wl.prepare()
    wl.round(run.Recorder(workloads.PROGRAM_ERRORS))
    pixel = pnm.read_image(wl.first_stego).data[0]
    wl.weights = wl.weights.copy()
    wl.weights[0, pixel] = 0
    wl.check()
    assert any("zero stream weight" in p for p in wl.problems)
