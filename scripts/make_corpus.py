#!/usr/bin/env python3
"""Write a synthetic stroke corpus as PGM/PPM files for CLI training.

A bad argument, an image too large to allocate or an unwritable output ends in one `error:`
line and exit code 2, through the stegosampler CLI's mapping of errors to exit codes."""
import argparse
import os

from stegosampler import cli, corpus, pnm


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--width", type=int, default=28)
    ap.add_argument("--height", type=int, default=28)
    ap.add_argument("--rgb", action="store_true")
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    return cli.run_handler(write_corpus, ap.parse_args())


def write_corpus(args) -> int:
    channels = 3 if args.rgb else 1
    ext = "ppm" if args.rgb else "pgm"
    images = corpus.stroke_corpus(
        args.count, args.width, args.height, channels, seed=args.seed, noise=args.noise
    )
    os.makedirs(args.out, exist_ok=True)
    for i, img in enumerate(images):
        pnm.write_image(img, os.path.join(args.out, f"stroke_{i:05d}.{ext}"))
    print(f"wrote {len(images)} images to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
