"""The per-layer entry points that stegobench's tracer wraps stay real calls, as often as stated.

stegobench/tracing.py patches `vars(owner)[name]` for each of these names, and
its per-step figures divide by the embed_step + extract_step span count. A
refactor that inlines one of them, or moves it off its owner, would zero a
traced metric or break that division without failing anything else.

A context model computes every context of an image at once, so a receiver,
which holds the whole image, gathers every step's distribution in one
`image_distributions` call and calls the model's `distribution` at no step;
an embed looks up one step at a time, and with stats gathers the finished
image's distributions once more, in one `image_distributions` call. A stream
has no gather: it is looked up once per step in extract, and in an embed
once per step for coding and once more in the stats pass. So stegobench's
`models.distribution_us` and `models.cache_hit_ratio` cover the embed's
coding lookups only on the context-model workloads, a gather being no call
the tracer wraps, and both phases on stream-rgb.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stegosampler import bitio, coder, corpus, models

# (owner, name, phase it is counted in, calls per step of that phase; None: at least once)
PER_STEP = [
    (coder, "quantize", "embed", 1),
    (coder, "quantize", "extract", 1),
    (coder, "embed_step", "embed", 1),
    (coder, "extract_step", "extract", 1),
    (bitio.BitStream, "window", "embed", 1),
    (bitio.BitString, "append", "extract", 1),
    (models.PixelDistribution, "__init__", "embed", None),
]
# each model's lookups: (owner, name, phase, calls per step of that phase, calls per image)
LOOKUPS = {
    "context": [
        (models.ContextModel, "distribution", "embed", 1, 0),
        (models.ContextModel, "distribution", "extract", 0, 0),
        (models.ContextModel, "image_distributions", "embed", 0, 1),
        (models.ContextModel, "image_distributions", "extract", 0, 1),
    ],
    "stream": [
        (models.StreamModel, "distribution", "embed", 2, 0),  # coding, then the stats pass
        (models.StreamModel, "distribution", "extract", 1, 0),
    ],
}
W, H, C = 6, 5, 3


def context_model():
    return models.train_context_model(corpus.noise_corpus(4, 8, 8, C, seed=2), buckets=4)


def stream_model():
    rng = np.random.default_rng(3)
    return models.StreamModel(rng.integers(1, 1 << 20, (W * H * C, 256)))


@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_traced_names_are_called_once_per_step(kind, monkeypatch):
    steps = W * H * C
    targets = [(o, n, when, None if k is None else k * steps) for o, n, when, k in PER_STEP]
    targets += [(o, n, when, k * steps + once) for o, n, when, k, once in LOOKUPS[kind]]
    counts = {}
    phase = ["embed"]
    for owner, name, _, _ in targets:
        assert name in vars(owner), f"{owner.__name__}.{name} is not defined on its owner"
        if (owner, name) in counts:
            continue
        counts[owner, name] = {"embed": 0, "extract": 0}
        fn = vars(owner)[name]

        def counted(*args, _fn=fn, _key=(owner, name), **kwargs):
            counts[_key][phase[0]] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    model = context_model() if kind == "context" else stream_model()
    grid, report = coder.embed_image(model, W, H, C, b"\x5a\xa5", pad_seed=1, collect=True)
    phase[0] = "extract"
    receiver = context_model() if kind == "context" else stream_model()
    assert coder.extract_image(receiver, grid) == b"\x5a\xa5"

    assert len(report.steps) == steps
    for owner, name, when, calls in targets:
        got = counts[owner, name][when]
        label = f"{owner.__name__}.{name} in {when}"
        if calls is None:
            assert got > 0, label
        else:
            assert got == calls, label


def test_every_traced_name_is_defined_on_its_owner():
    """The tracer patches `vars(owner)[name]` for each of its targets, so a name that moved off
    its owner would end a traced benchmark run with a KeyError."""
    path = Path(__file__).resolve().parents[1] / "stegobench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("stegobench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{o.__name__}.{name}" for o, name, _ in tracing.TARGETS if name not in vars(o)]
    assert len(tracing.TARGETS) > 0 and missing == []
