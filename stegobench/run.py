#!/usr/bin/env python3
"""Benchmark of stegosampler: one workload per run, in one process and one thread.

    python3 stegobench/run.py --workload desk-analyze --seed 1 --seconds 20 --trace 0

The package is imported from src/ next to this directory. The run sets up
several times (the median is setup_s), then repeats whole rounds of the
workload's operations for about --seconds, checks every output, prints one
line per metric, and last a JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. Every time is in reference seconds (see `Recorder`). A traced run
leaves its first round untraced, prints how much slower its traced rounds
were, and writes its spans under .stegobench-trace/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from bisect import bisect_right

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5  # set-ups timed before the rounds, and as many after them
MIN_ROUNDS = 2

REF_RATE = 20000  # reference iterations in one reference second
REF_ITERS = 400  # iterations per reference sample, ~20 ms
REF_EVERY = 0.5  # wall seconds between reference samples
REF_WINDOW = 2.0  # an operation is scaled by the samples this many wall seconds around it
REF_MAX_SAMPLES = 8  # samples taken at once after a long operation
_REF_WEIGHTS = np.random.default_rng(12345).integers(1, 1 << 20, (64, 256))


def reference_loop(iterations: int) -> int:
    """Fixed work shaped like a coding step, kept apart from the program.

    Each iteration sorts 256 weights, floors an interval over them, takes the
    cumulative sum and bisects it, in the same mix of small numpy calls and
    Python ints as a coding step, so the host slows it as much as the program.
    """
    acc, width = 0, 1 << 26
    for i in range(iterations):
        row = _REF_WEIGHTS[i & 63]
        order = np.argsort(-row, kind="stable")
        sw = row[order]
        cut = [0] + (width * sw // int(sw.sum())).cumsum().tolist()
        k = bisect_right(cut, acc * 2654435761 % width) - 1
        acc = ((acc << 5) ^ (k * 40503) ^ i) & (width - 1)
    return acc


class Recorder:
    """Times each operation of a round and counts attempts and failures.

    Times are CPU time of this thread, in reference seconds: every REF_EVERY
    seconds the recorder times REF_ITERS iterations of `reference_loop`, and
    an operation's CPU time is divided by the CPU time that REF_RATE reference
    iterations took around it (median of the samples within REF_WINDOW of the
    operation's midpoint). On a shared host the same code's CPU time moves by
    30 % and more between phases some minutes long; the reference moves with
    it, the ratio much less.

    Every round repeats the same operations, so the share that fails is the
    same in every run.
    """

    def __init__(self, errors: tuple):
        self.errors = errors  # what a failed operation raises
        self.attempted = 0
        self.failed = 0
        self.round = 0
        self.tracer = None
        # kind -> (round, wall midpoint, CPU s) of every timed call
        self.samples: dict[str, list[tuple[int, float, float]]] = {}
        self.refs: list[tuple[float, float]] = []  # (wall, CPU s per reference iteration)
        self._next_ref = 0.0

    def new_round(self) -> None:
        self.round += 1

    def reference(self) -> None:
        """Time the reference: once, plus once for each REF_EVERY overdue.

        So a long operation is followed by as many samples as short ones
        taking the same time would have been.
        """
        overdue = int(max(time.perf_counter() - self._next_ref, 0.0) / REF_EVERY)
        for _ in range(1 + min(overdue, REF_MAX_SAMPLES - 1)):
            t0 = time.thread_time()
            reference_loop(REF_ITERS)
            cpu = time.thread_time() - t0
            self.refs.append((time.perf_counter(), cpu / REF_ITERS))
        self._next_ref = time.perf_counter() + REF_EVERY

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run fn and keep its CPU time; exceptions pass through untimed."""
        if time.perf_counter() >= self._next_ref:
            self.reference()
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        w0, t0 = time.perf_counter(), time.thread_time()
        result = fn(*args, **kwargs)
        cpu = time.thread_time() - t0
        self.samples.setdefault(kind, []).append((self.round, (w0 + time.perf_counter()) / 2, cpu))
        return result

    def op(self, kind: str, fn, *args, **kwargs):
        """One operation: its result, or None if the program reported a failure."""
        self.attempted += 1
        try:
            return self.timed(kind, fn, *args, **kwargs)
        except self.errors:
            self.failed += 1
            return None

    def median(self, kind: str, rounds=None) -> float:
        """Median time of the calls of a kind, in reference seconds.

        Over the given rounds, all by default. (Taking each operation's
        fastest repetition instead picks the calls whose reference sample
        read slow by chance: over four desk runs it spread 0.085 and 0.129 on
        embed and extract, against 0.016 and 0.027 for the median.)
        """
        walls = np.array([w for w, _ in self.refs])
        per_iter = np.array([p for _, p in self.refs])
        times = []
        for r, wall, cpu in self.samples[kind]:
            if rounds is None or r in rounds:
                lo = np.searchsorted(walls, wall - REF_WINDOW)
                hi = max(np.searchsorted(walls, wall + REF_WINDOW, "right"), lo + 1)
                times.append(cpu / (float(np.median(per_iter[lo:hi])) * REF_RATE))
        return statistics.median(times)


def declared(path: str) -> dict[str, dict]:
    with open(path) as f:
        spec = json.load(f)
    return {
        key: {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def per_layer(tracer, wl, rounds: int) -> dict[str, float]:
    from tracing import SpanTable

    t = SpanTable(tracer, {"embed", "extract", "summary", "embed-fixed"})
    steps = t.count("coder.embed_step") + t.count("coder.extract_step")
    built, lookups = t.count("models.build"), t.count("models.distribution")
    return {
        "models.distribution_us": t.mean_us("models.distribution"),
        "models.dists_built": built / rounds,
        "models.cache_hit_ratio": 1.0 - built / lookups,
        "models.load_ms": t.mean_us("models.load") / 1e3,
        "coder.quantize_us": t.mean_us("coder.quantize"),
        "coder.partition_symbols": tracer.partition_symbols / t.count("coder.quantize"),
        "coder.step_self_us": (t.self_ns("coder.embed_step") + t.self_ns("coder.extract_step"))
        / steps / 1e3,
        "coder.efficiency": wl.efficiency,
        "bitio.window_us": t.mean_us("bitio.window"),
        "bitio.append_us": t.mean_us("bitio.append"),
        "metrics.self_us": t.self_ns("metrics") / steps / 1e3,
        "pnm.write_ms": t.mean_us("pnm.write") / 1e3,
        "pnm.read_ms": t.mean_us("pnm.read") / 1e3,
    }


def layer_report(tracer) -> list[str]:
    """Figures of layers that not every workload calls."""
    from tracing import SpanTable

    t = SpanTable(tracer, {"embed", "extract", "summary", "embed-fixed"})
    setup = SpanTable(tracer, {"setup"})
    summary_ns = sum(t.total_ns(f"metrics.{f}") for f in ("aggregate", "heatmaps", "write_csv"))
    frame_calls = t.count("bitio.frame_encode") + t.count("bitio.frame_decode")
    frame_ns = t.total_ns("bitio.frame_encode") + t.total_ns("bitio.frame_decode")
    lines = [
        f"metrics.step_stats_us = {t.mean_us('metrics.step_stats'):.6g} us/call",
        f"metrics.summary_ms = {summary_ns / max(t.count('metrics.write_csv'), 1) / 1e6:.6g} ms/summary",
        f"bitio.frame_ms = {frame_ns / max(frame_calls, 1) / 1e6:.6g} ms/call",
        f"cli.overhead_ms = {t.self_ns('cli') / max(t.count('cli.main'), 1) / 1e6:.6g} ms/call",
        f"models.train_ms = {setup.mean_us('models.train') / 1e3:.6g} ms",
        f"corpus.generate_ms = {setup.mean_us('corpus.generate') / 1e3:.6g} ms",
        f"models.save_ms = {setup.mean_us('models.save') / 1e3:.6g} ms",
    ]
    steps = t.count("coder.embed_step") + t.count("coder.extract_step")
    for layer in ("models", "coder", "bitio", "metrics", "pnm", "cli"):
        lines.append(f"self time in {layer}: {t.self_ns(layer) / steps / 1e3:.4g} us/step")
    return lines


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, spec: dict,
        **sizes) -> dict:
    """One benchmark run; returns the result object and prints the metric lines.

    `spec` is `declared(BENCHMARK.json)`: the metrics to report, with units.
    """
    from workloads import PROGRAM_ERRORS, WORKLOADS

    wl = WORKLOADS[name](seed, workdir, **sizes)
    rec = Recorder(PROGRAM_ERRORS)
    tracer = None

    def set_up() -> None:
        for _ in range(SETUPS):
            rec.timed("setup", wl.setup)
        rec.reference()

    try:
        set_up()
        wl.prepare()
        rss_prepared = rss_mib()
        round_seconds = []
        start = time.perf_counter()
        while True:
            if trace and rec.round == 1:
                # the first round ran untraced: the baseline of the tracing overhead
                from tracing import Tracer

                tracer = rec.tracer = Tracer()
                tracer.install()
            t0 = time.perf_counter()
            rec.new_round()
            wl.round(rec)
            rec.reference()
            round_seconds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if rec.round >= MIN_ROUNDS and elapsed + statistics.median(round_seconds) > seconds:
                break
        # set up as often again after the rounds, so that setup_s samples both
        # ends of the run; the products are the same as before
        set_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss = rss_mib()  # before the checks, which embed again in-process
    wl.check()
    problems = list(wl.problems)

    if trace:
        traced = range(2, rec.round + 1)
        values, spec = per_layer(tracer, wl, len(traced)), spec["per_layer"]
    else:
        values, spec = {
            "setup_s": rec.median("setup"),
            "embed_steps_per_s": wl.steps / rec.median("embed"),
            "extract_steps_per_s": wl.steps / rec.median("extract"),
            "capacity_bpp": wl.capacity_bpp,
            "peak_rss_mib": peak_rss,
        }, spec["end_to_end"]
    print(f"{name}: seed {seed}, {rec.round} rounds, {rec.attempted} operations, "
          f"{rec.failed} failed")
    for key, value in values.items():
        unit, better = spec[key]
        print(f"  {key} = {value:.6g} {unit} ({better} is better)")
    print(f"  peak RSS after set-up {rss_prepared:.1f} MiB, after the rounds {peak_rss:.1f} MiB")
    q1, q2, q3 = statistics.quantiles([p * 1e6 for _, p in rec.refs], n=4)
    print(f"  reference loop: {q2:.4g} us per iteration (quartiles {q1:.4g}, {q3:.4g}; "
          f"{len(rec.refs)} samples)")
    if trace:
        for kind in ("embed", "extract"):
            plain, traced_s = rec.median(kind, {1}), rec.median(kind, traced)
            print(f"  tracing overhead, {kind}: {plain * 1e3:.4g} -> {traced_s * 1e3:.4g} ms "
                  f"per operation ({traced_s / plain - 1:+.1%})")
        for line in layer_report(tracer):
            print(f"  {line}")
        path = tracer.write(os.path.join(ROOT, ".stegobench-trace"), f"{name}-seed{seed}")
        print(f"  spans: {path}")
    for line in wl.notes():
        print(f"  {line}")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": spec[k][0]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stegosampler", "__init__.py")):
        print(f"stegobench: no stegosampler package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = declared(os.path.join(ROOT, "BENCHMARK.json"))

    workdir = tempfile.mkdtemp(prefix=".stegobench-", dir=ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
