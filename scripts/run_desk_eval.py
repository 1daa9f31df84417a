#!/usr/bin/env python3
"""Desk-scale evaluation: embedding rate, divergences, and heatmaps.

Trains a context model on a synthetic stroke corpus, generates stego-images
with the arithmetic-coding sampler and with the LSB rejection baseline, and
prints mean +/- std for ER and for the distortion between the effective
sampling distribution q and the model distribution p.

The sampler half is `cli.analyze`, the pipeline of `stegosampler analyze`: image i uses pad
seed seed*1000 + i, and the CSV and both maps are written all or none, before the LSB half
runs. A bad argument, an image too large to allocate or an unwritable output ends in one
`error:` line and exit code 2, through the stegosampler CLI's mapping of errors to exit codes.
"""
import argparse
import time

import numpy as np

from stegosampler import cli, coder, corpus, metrics, models


def lsb_step_kld(dist, bit):
    """KLD of p restricted to the required LSB parity vs p: -log2 P(parity)."""
    mass = int(dist.weights[bit::2].sum())
    if mass == 0:
        return float("inf")
    return -float(np.log2(mass / dist.total))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="images per method")
    ap.add_argument("--width", type=int, default=28)
    ap.add_argument("--height", type=int, default=28)
    ap.add_argument("--corpus-size", type=int, default=500)
    ap.add_argument("--buckets", type=int, default=4)
    ap.add_argument("--prc", type=int, default=26)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out-csv", default="desk_eval.csv")
    ap.add_argument("--out-entropy-map", default="entropy_map.pgm")
    ap.add_argument("--out-bits-map", default="bits_map.pgm")
    return cli.run_handler(evaluate, ap.parse_args())


def evaluate(args) -> int:
    # refused before the corpus is drawn and the model trained
    cli.check_count(args.count)
    coder.check_prc(args.prc)
    models.check_buckets(args.buckets)
    t0 = time.perf_counter()
    strokes = corpus.stroke_corpus(
        args.corpus_size, args.width, args.height, 1, seed=args.seed
    )
    model = models.train_context_model(strokes, buckets=args.buckets)
    print(f"trained on {len(strokes)} stroke images in {time.perf_counter() - t0:.1f}s")

    paths = (args.out_csv, args.out_entropy_map, args.out_bits_map)
    reports, summary = cli.analyze(
        model, args.width, args.height, 1, args.count, args.prc, args.seed * 1000, paths
    )
    print("arithmetic-coding sampler:")
    print(f"  ER   {summary['er_pixel'][0]:.4f} +/- {summary['er_pixel'][1]:.4f} bpp")
    print(f"  KLD  {summary['kld'][0]:.4e} +/- {summary['kld'][1]:.4e} bit")
    print(f"  JSD  {summary['jsd'][0]:.4e} +/- {summary['jsd'][1]:.4e} bit")

    lsb_ers, lsb_klds = [], []
    steps = args.width * args.height
    for i in range(args.count):
        payload = bytes(
            np.random.default_rng(args.seed + i).integers(0, 256, (steps + 7) // 8, dtype=np.uint8)
        )
        grid = coder.lsb_embed(
            model, args.width, args.height, 1, payload, rng_seed=i, pad_seed=i
        )
        lsb_ers.append(coder.lsb_extract(grid).length / steps)
        klds = [
            lsb_step_kld(dist, pixel & 1)
            for dist, pixel in zip(model.image_distributions(grid), grid.data)
        ]
        lsb_klds.append(float(np.mean(klds)))
    er, kld = metrics.mean_std(lsb_ers), metrics.mean_std(lsb_klds)
    print("LSB rejection baseline:")
    print(f"  ER   {er[0]:.4f} +/- {er[1]:.4f} bits/step")
    print(f"  KLD  {kld[0]:.4e} +/- {kld[1]:.4e} bit")

    h_q = metrics.position_means(reports, "h_q")
    bits = metrics.position_means(reports, "bits_confirmed")
    print(f"entropy/bits position correlation: {np.corrcoef(h_q, bits)[0, 1]:.3f}")
    print(f"wrote {args.out_csv}, {args.out_entropy_map}, {args.out_bits_map}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
