"""Command-line surface: train, embed, extract, analyze, selftest.

Exit codes, each with one `error:` line on stderr (5 with a `selftest:` line):
  2  an unreadable or invalid input file, a flag out of range, a model whose
     channel count differs from the image's, an image too large to allocate, an
     unwritable output, two outputs on one path
  3  capacity: the image cannot confirm the framed message
  4  extraction: a pixel the model cannot decode, or a truncated framed payload
  5  selftest: a golden vector gives other bits
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bitio, coder, metrics, models, pnm

EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_EXTRACTION = 4
EXIT_SELFTEST = 5

# Checked in order, so subclasses come before ValueError. Every input check in
# the package raises a ValueError subclass or an OSError; an image too large for
# memory raises MemoryError.
EXIT_CODES = {
    coder.CapacityExceeded: EXIT_CAPACITY,
    coder.UndecodablePixel: EXIT_EXTRACTION,
    bitio.TruncatedStream: EXIT_EXTRACTION,
    ValueError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
    MemoryError: EXIT_CONFIG,
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model", help="trained context model file (PSCM)")
    g.add_argument("--uniform", action="store_true", help="uniform distribution at every step")
    g.add_argument("--dist-stream", help="precomputed distribution stream file (PSDS)")


def _load_model(args):
    if args.uniform:
        return models.UniformModel()
    if args.dist_stream:
        return models.load_stream(args.dist_stream)
    return models.load_model(args.model)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stegosampler")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a context model on a PGM/PPM corpus")
    t.add_argument("--corpus", required=True, help="directory of PGM/PPM files")
    t.add_argument("--out", required=True)
    t.add_argument("--buckets", type=int, default=16)
    t.add_argument("--smooth", type=int, default=1)

    e = sub.add_parser("embed", help="embed a message file into a generated image")
    _add_model_flags(e)
    e.add_argument("--message", required=True)
    e.add_argument("--width", type=int, required=True)
    e.add_argument("--height", type=int, required=True)
    e.add_argument("--rgb", action="store_true")
    e.add_argument("--prc", type=int, default=coder.DEFAULT_PRC)
    e.add_argument("--raw", action="store_true", help="no length header; embed file bits as-is")
    e.add_argument("--seed", type=int, help="padding seed (default: OS entropy)")
    e.add_argument("--out", required=True)
    e.add_argument("--report")

    x = sub.add_parser("extract", help="recover the message from a stego image")
    _add_model_flags(x)
    x.add_argument("--image", required=True)
    x.add_argument("--prc", type=int, default=coder.DEFAULT_PRC)
    x.add_argument("--raw", action="store_true")
    x.add_argument("--out", required=True)

    a = sub.add_parser("analyze", help="generate images and report rates/divergences")
    _add_model_flags(a)
    a.add_argument("--count", type=int, required=True)
    a.add_argument("--width", type=int, required=True)
    a.add_argument("--height", type=int, required=True)
    a.add_argument("--rgb", action="store_true")
    a.add_argument("--prc", type=int, default=coder.DEFAULT_PRC)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out-csv", required=True)
    a.add_argument("--out-entropy-map", required=True)
    a.add_argument("--out-bits-map", required=True)

    sub.add_parser("selftest", help="replay the golden coding vectors")
    return p


def _read_corpus(directory: str) -> list[pnm.ImageGrid]:
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith((".pgm", ".ppm"))
    )
    images = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            images.append(pnm.read_image(path))
        except ValueError as e:
            e.args = (f"{path}: {e}",)
            raise
    return images


def cmd_train(args) -> int:
    corpus = _read_corpus(args.corpus)
    model = models.train_context_model(corpus, args.buckets, args.smooth)
    _write_all([(args.out, models.save_model(model, None))])
    contexts = model.channels * (model.buckets + 1) ** 2
    print(f"trained on {len(corpus)} images: {contexts} contexts -> {args.out}")
    return 0


def _write_all(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, bytes) pair, all or none: to temporary names beside the
    paths, renamed only once every write succeeded. Outputs on one path are
    refused before anything is written; after a failure, neither the temporaries
    nor the outputs renamed so far remain."""
    paths = [path for path, _ in outputs]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError(f"two outputs on one path: {' '.join(paths)}")
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    renamed = []
    try:
        for tmp, (_, blob) in zip(temps, outputs):
            pnm.write_bytes(blob, tmp)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for leftover in filter(os.path.exists, temps + renamed):
            os.remove(leftover)
        raise


def cmd_embed(args) -> int:
    model = _load_model(args)
    message = pnm.read_bytes(args.message)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big")
    channels = 3 if args.rgb else 1
    grid, report = coder.embed_image(
        model, args.width, args.height, channels, message, prc=args.prc,
        framed=not args.raw, pad_seed=seed, collect=bool(args.report),
    )
    outputs = [(args.out, pnm.write_image(grid))]
    if args.report:
        outputs.append((args.report, metrics.write_csv([report], [args.out])))
    _write_all(outputs)
    print(
        f"pad seed {seed}; confirmed {report.bits_confirmed} bits; "
        f"ER {report.er_per_pixel:.4f} bpp ({report.er_per_step:.4f} bits/step)"
    )
    return 0


def cmd_extract(args) -> int:
    model = _load_model(args)
    image = pnm.read_image(args.image)
    payload = coder.extract_image(model, image, prc=args.prc, framed=not args.raw)
    _write_all([(args.out, payload)])
    print(f"recovered {len(payload)} bytes -> {args.out}")
    return 0


def check_count(count: int) -> None:
    """Refuse an analysis of no images, which has no mean to report."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")


def analyze(model, width: int, height: int, channels: int, count: int, prc: int,
            first_seed: int, paths) -> tuple[list[metrics.EmbedReport], dict]:
    """Embed `count` images with stats, image i (named img_%04d) from pad seed first_seed + i,
    and write their CSV, entropy map and bits map to the three `paths`, all or none. Returns
    the reports and their summary, as `metrics.aggregate`."""
    check_count(count)
    # empty raw payload: every embedded bit comes from the seeded padding
    # generator, i.e. a fresh uniformly random message per image
    reports = [
        coder.embed_image(
            model, width, height, channels, b"", prc=prc,
            framed=False, pad_seed=first_seed + i, collect=True,
        )[1]
        for i in range(count)
    ]
    names = [f"img_{i:04d}" for i in range(count)]
    blobs = [metrics.write_csv(reports, names), *map(pnm.write_image, metrics.heatmaps(reports))]
    _write_all(list(zip(paths, blobs, strict=True)))
    return reports, metrics.aggregate(reports)


def cmd_analyze(args) -> int:
    paths = (args.out_csv, args.out_entropy_map, args.out_bits_map)
    _, summary = analyze(_load_model(args), args.width, args.height, 3 if args.rgb else 1,
                         args.count, args.prc, args.seed, paths)
    for key, (mean, std) in summary.items():
        print(f"{key}: {mean:.4f} +/- {std:.4f}")
    return 0


def _golden_weights() -> np.ndarray:
    # 5-bit register worked example: total 32, value 4 gets subinterval [14,16)
    w = np.zeros(256, dtype=np.int64)
    w[0] = 14
    w[4] = 2
    for v in list(range(1, 4)) + list(range(5, 18)):
        w[v] = 1
    return w


def run_selftest() -> tuple[bool, str]:
    """Replays the golden vectors; returns (ok, first failing vector name)."""
    # vector 1: 5-bit register step — message window 01111 lands in value 4's
    # subinterval [14,15], confirms 0111, renormalizes to the full interval
    dist = models.PixelDistribution(_golden_weights())
    state = coder.CoderState(prc=5)
    msg = bitio.BitStream(bitio.BitString(b"\x78", 5), pad_seed=0)
    value, s, _, _ = coder.embed_step(state, dist, msg)
    if (value, s, state.low, state.high) != (4, 4, 0, 31):
        return False, "golden-step"
    ex_state = coder.CoderState(prc=5)
    prefix, s = coder.extract_step(ex_state, dist, 4)
    if (prefix, s) != (0b0111, 4):
        return False, "golden-step"

    # vector 2: uniform model passes message bytes straight through to pixels
    payload = bytes([0x0F, 0xF0, 0xAA, 0x55])
    grid, rep = coder.embed_image(
        models.UniformModel(), 2, 2, 1, payload, framed=False, pad_seed=0, collect=False
    )
    if bytes(grid.data) != payload or rep.bits_confirmed != 32:
        return False, "uniform-passthrough"
    if coder.extract_image(models.UniformModel(), grid, framed=False)[:4] != payload:
        return False, "uniform-passthrough"

    # vector 3: framed embed/extract round-trip
    grid, _ = coder.embed_image(models.UniformModel(), 4, 4, 1, b"hello", pad_seed=1)
    if coder.extract_image(models.UniformModel(), grid) != b"hello":
        return False, "framed-roundtrip"
    return True, ""


def cmd_selftest(args) -> int:
    ok, name = run_selftest()
    if ok:
        print("selftest: all vectors pass")
        return 0
    print(f"selftest: vector '{name}' FAILED", file=sys.stderr)
    return EXIT_SELFTEST


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "embed": cmd_embed,
        "extract": cmd_extract,
        "analyze": cmd_analyze,
        "selftest": cmd_selftest,
    }[args.command]
    return run_handler(handler, args)


def run_handler(handler, args) -> int:
    """`handler(args)`, which returns an exit code; an error of EXIT_CODES ends instead in
    one `error:` line on stderr and its code. The scripts under scripts/ end through it too."""
    try:
        return handler(args)
    except tuple(EXIT_CODES) as e:
        # a bare MemoryError has an empty message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
