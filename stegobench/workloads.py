"""The three workloads: set-up, one round of operations, and output checks.

A run repeats whole rounds of the same operations on the same inputs, so the
share of failed operations is the same in every run, and the stego images of
every round can be compared with those of the first.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import shutil

import numpy as np

import oracle
from stegosampler import bitio, cli, coder, corpus, metrics, models, pnm


class CliFailure(Exception):
    """`stegosampler` exited with a nonzero code."""


class Stalled(Exception):
    """The coder's interval fell below one unit per symbol while embedding."""


# What a failed operation raises: the program's embed and extract errors, and
# Stalled, which the benchmark raises on an embed it finds stalled.
PROGRAM_ERRORS = (
    coder.CapacityExceeded,
    coder.UndecodablePixel,
    bitio.TruncatedStream,
    models.StreamExhausted,
    CliFailure,
    Stalled,
)


class Problems(list):
    """Failed output checks, one line each."""

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)


def self_information_ok(report: metrics.EmbedReport) -> bool:
    """|bits confirmed - sum of -log2(q_width / width)| <= prc, summed apart from the program."""
    info = math.fsum(-math.log2(r.q_width / r.width_before) for r in report.steps)
    bits = sum(r.bits_confirmed for r in report.steps)
    return abs(bits - info) <= report.prc


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(*argv) -> str:
    """`stegosampler ARGV` in-process; its standard output, or CliFailure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliFailure(code)
    return out.getvalue()


class Workload:
    """Base: subclasses set `name`, the image shape and `prc`, and define the phases."""

    name = ""
    width = height = channels = prc = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.problems = Problems()
        self.digests: list[str] | None = None  # SHA-256 of each stego image, first round
        self.bits_confirmed: list[int] = []  # per distinct image, first round
        self.sum_entropy_bits = 0.0  # sum of H(p) over the steps of those images

    @property
    def steps(self) -> int:
        return self.width * self.height * self.channels

    def setup(self) -> None:
        """Timed: build the model (or stream) the run codes with."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: derive the run's inputs once the set-up products exist."""

    def round(self, rec) -> None:
        """One round of operations, each timed by `rec.op`."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed checks on what the first round kept; adds to self.problems."""

    def notes(self) -> list[str]:
        """Checked figures worth printing that are not metrics."""
        return []

    def compare_digests(self, digests: list[str]) -> None:
        if self.digests is None:
            self.digests = digests
        else:
            self.problems.expect(
                digests == self.digests,
                f"{self.name}: stego images differ from the first round on the same seeds",
            )

    @property
    def capacity_bpp(self) -> float:
        pixels = self.width * self.height * len(self.bits_confirmed)
        return sum(self.bits_confirmed) / pixels

    @property
    def efficiency(self) -> float:
        return sum(self.bits_confirmed) / self.sum_entropy_bits


class DeskAnalyze(Workload):
    """`stegosampler analyze` on the desk model, plus a receiver for every image."""

    name = "desk-analyze"
    width = height = 28
    channels = 1
    prc = coder.DEFAULT_PRC
    IMAGES = 192  # enough that the correlation check holds on every seed
    KLD_SAMPLE = 256  # steps whose q is rebuilt with Python ints
    DIVERGENCE_LIMIT = 1e-4  # bit, mean per-step KLD and JSD over the run's images
    MIN_CORRELATION = 0.8  # per-position H(q) against bits confirmed
    # An interval narrower than the 256 symbols cannot follow p at all; a
    # coder with underflow handling keeps it above 2^(prc-2). Without it the
    # desk coder falls below on one image in 2000 to 5000 and recovers, after
    # steps of up to 8 bit KLD. Such images are counted and printed, and left
    # out of the KLD limit, which they alone would break on a seed-dependent
    # share of runs. This pad (seed 202, image 179) narrows to 7 units; its
    # embed runs in every round and counts as failed.
    STALL_WIDTH = 256
    STALL_PAD = 3564206103004627545

    def __init__(self, seed: int, workdir: str, images: int = IMAGES):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.pads = [rng.getrandbits(63) for _ in range(images)]
        self.names = [f"img_{i:04d}" for i in range(images)]
        self.expected: list[bytes] | None = None  # padding each image carries

    def setup(self) -> None:
        strokes = corpus.stroke_corpus(500, self.width, self.height, 1, seed=11)
        self.model = models.train_context_model(strokes, buckets=4)
        self.model_file = models.save_model(self.model, None)

    def summarize(self, reports) -> dict:
        """What cmd_analyze does after its embeds."""
        metrics.write_csv(reports, self.names, os.path.join(self.workdir, "eval.csv"))
        ent_map, bits_map = metrics.heatmaps(reports)
        pnm.write_image(ent_map, os.path.join(self.workdir, "entropy.pgm"))
        pnm.write_image(bits_map, os.path.join(self.workdir, "bits.pgm"))
        return metrics.aggregate(reports)

    def round(self, rec) -> None:
        reports, stego = [], []
        for pad in self.pads:
            grid, rep = rec.op(
                "embed", coder.embed_image, self.model, self.width, self.height, 1, b"",
                prc=self.prc, framed=False, pad_seed=pad, collect=True,
            )
            reports.append(rep)
            stego.append(pnm.write_image(grid))
        summary = rec.op("summary", self.summarize, reports)

        receiver = models.load_model(self.model_file)
        extracted = [
            rec.op("extract", coder.extract_image, receiver, pnm.read_image(data),
                   prc=self.prc, framed=False)
            for data in stego
        ]
        rec.op("embed-fixed", self.embed_stalling)
        self.compare_digests([sha256(s) for s in stego])
        if self.expected is None:
            # checked in the first round, so that no round's reports outlive it
            self.inspect(reports, stego, summary)
        for i, out in enumerate(extracted):
            self.problems.expect(
                out == self.expected[i], f"{self.name}: image {i} extracts other bits than it embedded"
            )

    def stalled(self, report) -> bool:
        return min(r.width_before for r in report.steps) < self.STALL_WIDTH

    def embed_stalling(self) -> None:
        """An embed on fixed inputs that stalls: raises Stalled every time."""
        _, rep = coder.embed_image(
            self.model, self.width, self.height, 1, b"", prc=self.prc, framed=False,
            pad_seed=self.STALL_PAD, collect=True,
        )
        if self.stalled(rep):
            raise Stalled(f"mean per-step KLD {rep.mean_kld:.3g} bit")

    def inspect(self, reports, stego, summary) -> None:
        """Checks on the first round's images and reports."""
        self.bits_confirmed = [r.bits_confirmed for r in reports]
        self.expected = [
            oracle.pad_bytes(pad, bits // 8) for pad, bits in zip(self.pads, self.bits_confirmed)
        ]
        counts = self.model.counts.astype(np.int64) + self.model.smooth
        h_table = oracle.entropy_bits(counts)
        rng = random.Random(self.seed)
        sample = set(rng.sample(range(len(reports) * self.steps), self.KLD_SAMPLE))
        for i, (rep, data) in enumerate(zip(reports, stego)):
            raster = pnm.read_image(data).data
            ch, left, up = oracle.context_index(raster, self.width, self.height, 1, self.model.buckets)
            pixels = np.frombuffer(bytes(raster), dtype=np.uint8)
            self.problems.expect(
                bool((counts[ch, left, up, pixels] > 0).all()),
                f"{self.name}: image {i} holds a value of zero model weight",
            )
            self.problems.expect(
                self_information_ok(rep), f"{self.name}: image {i} breaks the code-length bound"
            )
            self.sum_entropy_bits += float(h_table[ch, left, up].sum())
            for k in range(self.steps):
                if i * self.steps + k in sample:
                    weights = counts[ch[k], left[k], up[k]]
                    self.check_step(rep.steps[k], weights, f"image {i} step {k}")

        self.run_kld = summary["kld"][0]
        kept = [rep for rep in reports if not self.stalled(rep)]
        self.stalled_images = len(reports) - len(kept)
        self.mean_kld = float(np.mean([rep.mean_kld for rep in kept]))
        self.mean_jsd = float(np.mean([rep.mean_jsd for rep in kept]))
        self.problems.expect(
            max(self.mean_kld, self.mean_jsd) <= self.DIVERGENCE_LIMIT,
            f"{self.name}: mean per-step KLD {self.mean_kld:.3g} or JSD {self.mean_jsd:.3g} bit "
            f"above {self.DIVERGENCE_LIMIT}",
        )
        h_q = metrics.position_means(reports, "h_q")
        bits = metrics.position_means(reports, "bits_confirmed")
        self.correlation = float(np.corrcoef(h_q, bits)[0, 1])
        self.problems.expect(
            self.correlation >= self.MIN_CORRELATION,
            f"{self.name}: per-position H(q)-bits correlation {self.correlation:.3f} "
            f"below {self.MIN_CORRELATION}",
        )

    def notes(self) -> list[str]:
        return [
            f"mean per-step KLD {self.mean_kld:.4g} bit, JSD {self.mean_jsd:.4g} bit over "
            f"{len(self.pads) - self.stalled_images} images; {self.stalled_images} stalled "
            f"(interval below {self.STALL_WIDTH} units), KLD over all images {self.run_kld:.4g} bit",
            f"H(q)-bits correlation {self.correlation:.4f}",
        ]

    def check_step(self, step, weights, where: str) -> None:
        """The step's q, rebuilt with Python ints, gives its q_width and its KLD."""
        q = oracle.quantized_widths(weights, step.width_before)
        self.problems.expect(
            q[step.pixel_value] == step.q_width, f"{self.name}: {where}: q width differs"
        )
        kld = oracle.kld_q_p(q, step.width_before, weights)
        self.problems.expect(
            math.isclose(step.kld, kld, rel_tol=1e-6, abs_tol=1e-15),
            f"{self.name}: {where}: reported KLD {step.kld!r}, recomputed {kld!r}",
        )


class BulkMessage(Workload):
    """Large framed random messages through the CLI, on a high-entropy RGB model."""

    name = "bulk-message"
    channels = 3
    # At the default prc 26 the coder stalls on this model (no underflow
    # handling, see CHANGES.md): 7 of 19 seeds' messages failed with exit 3,
    # so the failed share would depend on the seed. The seeded messages use
    # prc 40, where 60 seeds gave no stall; every round also embeds the
    # message FIXED_SEED gets for a FIXED_SIZE image at the default prc,
    # which stalls every time (58133 of 86728 framed bits) and counts as
    # failed.
    prc = 40
    FIXED_SEED, FIXED_PRC, FIXED_SIZE = 22, coder.DEFAULT_PRC, 64
    MARGIN = 0.9  # message bits + header <= MARGIN * lowest context H(p) * steps

    def __init__(self, seed: int, workdir: str, size: int = 128):
        super().__init__(seed, workdir)
        self.width = self.height = size
        self.corpus_dir = os.path.join(workdir, "corpus")
        self.model_path = os.path.join(workdir, "noise.pscm")
        self.message_path = os.path.join(workdir, "message.bin")
        self.fixed_path = os.path.join(workdir, "fixed.bin")
        self.fixed_stego_path = os.path.join(workdir, "fixed.ppm")
        self.stego_path = os.path.join(workdir, "stego.ppm")
        self.out_path = os.path.join(workdir, "recovered.bin")
        self.confirmed: list[int] = []  # bit count the CLI prints, every round
        self.first_stego: bytes | None = None

    def setup(self) -> None:
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        os.makedirs(self.corpus_dir)
        for i, img in enumerate(corpus.noise_corpus(100, 32, 32, 3, seed=3)):
            pnm.write_image(img, os.path.join(self.corpus_dir, f"noise{i:03d}.ppm"))
        run_cli("train", "--corpus", self.corpus_dir, "--out", self.model_path, "--buckets", 4)

    def prepare(self) -> None:
        self.model = models.load_model(self.model_path)
        self.counts = self.model.counts.astype(np.int64) + self.model.smooth
        self.h_table = oracle.entropy_bits(self.counts)
        self.message, self.pad = self.inputs(self.seed, self.steps)
        fixed_message, self.fixed_pad = self.inputs(self.FIXED_SEED, 3 * self.FIXED_SIZE**2)
        with open(self.message_path, "wb") as f:
            f.write(self.message)
        with open(self.fixed_path, "wb") as f:
            f.write(fixed_message)

    def inputs(self, seed: int, steps: int) -> tuple[bytes, int]:
        """A seed's message for an image of `steps` steps, and its pad seed."""
        budget = self.MARGIN * float(self.h_table.min()) * steps - bitio.HEADER_BITS
        rng = random.Random(seed)
        message = rng.randbytes(int(budget) // 8)
        return message, rng.getrandbits(63)

    def round(self, rec) -> None:
        text = rec.op(
            "embed", run_cli, "embed", "--model", self.model_path, "--rgb",
            "--out", self.stego_path, "--message", self.message_path,
            "--width", self.width, "--height", self.height, "--prc", self.prc, "--seed", self.pad,
        )
        if text is not None:
            found = re.search(r"confirmed (\d+) bits", text)
            self.confirmed.append(int(found.group(1)) if found else -1)
            with open(self.stego_path, "rb") as f:
                stego = f.read()
            self.first_stego = self.first_stego or stego
            self.compare_digests([sha256(stego)])
            ok = rec.op(
                "extract", run_cli, "extract", "--model", self.model_path,
                "--image", self.stego_path, "--prc", self.prc, "--out", self.out_path,
            )
            if ok is not None:
                with open(self.out_path, "rb") as f:
                    self.problems.expect(
                        f.read() == self.message, f"{self.name}: extract differs from the message"
                    )

        # inputs independent of the seed, on which the coder stalls at the default prc
        rec.op(
            "embed-fixed", run_cli, "embed", "--model", self.model_path, "--rgb",
            "--out", self.fixed_stego_path, "--message", self.fixed_path,
            "--width", self.FIXED_SIZE, "--height", self.FIXED_SIZE,
            "--prc", self.FIXED_PRC, "--seed", self.fixed_pad,
        )

    def check(self) -> None:
        if self.first_stego is None:
            return
        self.problems.expect(
            len(set(self.confirmed)) == 1,
            f"{self.name}: confirmed bit counts differ between rounds: {sorted(set(self.confirmed))}",
        )
        # the same embed in-process must give the CLI's image and bit count
        grid, rep = coder.embed_image(
            self.model, self.width, self.height, 3, self.message,
            prc=self.prc, pad_seed=self.pad, collect=False,
        )
        image = pnm.read_image(self.first_stego)
        self.problems.expect(
            bytes(grid.data) == bytes(image.data), f"{self.name}: CLI image differs from embed_image"
        )
        self.problems.expect(
            rep.bits_confirmed == self.confirmed[0], f"{self.name}: CLI prints another bit count"
        )
        self.problems.expect(
            self_information_ok(rep), f"{self.name}: image breaks the code-length bound"
        )
        ch, left, up = oracle.context_index(image.data, self.width, self.height, 3, self.model.buckets)
        pixels = np.frombuffer(bytes(image.data), dtype=np.uint8)
        self.problems.expect(
            bool((self.counts[ch, left, up, pixels] > 0).all()),
            f"{self.name}: image holds a value of zero model weight",
        )
        self.bits_confirmed = [self.confirmed[0]]
        self.sum_entropy_bits = float(self.h_table[ch, left, up].sum())


class StreamRGB(Workload):
    """Per-step distributions from an external model, carried in a PSDS stream."""

    name = "stream-rgb"
    channels = 3
    prc = coder.DEFAULT_PRC
    MARGIN = 0.9  # message bits + header <= MARGIN * sum of H(p)
    RATE_TOLERANCE = 0.05  # |bits per step / mean H(p) - 1|

    def __init__(self, seed: int, workdir: str, size: int = 48):
        super().__init__(seed, workdir)
        self.width = self.height = size
        self.first_stego: bytes | None = None
        self.info_ok = False  # the first image keeps the code-length bound

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.weights = oracle.logistic_mixture_weights(rng, self.steps)
        self.stream_file = models.save_stream(self.weights, None)

    def prepare(self) -> None:
        self.entropy = oracle.entropy_bits(self.weights)
        budget = self.MARGIN * float(self.entropy.sum()) - bitio.HEADER_BITS
        rng = random.Random(self.seed)
        self.message = rng.randbytes(int(budget) // 8)
        self.pad = rng.getrandbits(63)

    def embed(self):
        """The sender: a fresh model from the stream, then a framed embed."""
        model = models.load_stream(self.stream_file)
        return coder.embed_image(
            model, self.width, self.height, 3, self.message,
            prc=self.prc, pad_seed=self.pad, collect=False,
        )

    def extract(self, data: bytes) -> bytes:
        """The receiver: its own model from the stream, then a framed extract."""
        model = models.load_stream(self.stream_file)
        return coder.extract_image(model, pnm.read_image(data), prc=self.prc)

    def round(self, rec) -> None:
        result = rec.op("embed", self.embed)
        if result is None:
            return
        grid, rep = result
        stego, bits = pnm.write_image(grid), rep.bits_confirmed
        if self.first_stego is None:
            self.first_stego, self.bits_confirmed = stego, [bits]
            self.info_ok = self_information_ok(rep)
        del result, grid, rep  # the sender's report does not outlive its embed
        self.compare_digests([sha256(stego)])
        out = rec.op("extract", self.extract, stego)
        if out is not None:
            self.problems.expect(out == self.message, f"{self.name}: extract differs from the message")
        self.problems.expect(
            bits == self.bits_confirmed[0], f"{self.name}: confirmed bit count changed between rounds"
        )

    def check(self) -> None:
        if self.first_stego is None:
            return
        pixels = np.frombuffer(bytes(pnm.read_image(self.first_stego).data), dtype=np.uint8)
        self.problems.expect(
            bool((self.weights[np.arange(self.steps), pixels] > 0).all()),
            f"{self.name}: image holds a value of zero stream weight",
        )
        self.problems.expect(self.info_ok, f"{self.name}: image breaks the code-length bound")
        self.sum_entropy_bits = float(self.entropy.sum())
        self.rate = self.bits_confirmed[0] / self.sum_entropy_bits
        self.problems.expect(
            abs(self.rate - 1.0) <= self.RATE_TOLERANCE,
            f"{self.name}: bits per step are {self.rate:.4f} of the mean H(p), "
            f"outside 1 +/- {self.RATE_TOLERANCE}",
        )

    def notes(self) -> list[str]:
        return [f"bits per step / mean H(p) = {self.rate:.4f}"] if self.first_stego else []


WORKLOADS = {w.name: w for w in (DeskAnalyze, BulkMessage, StreamRGB)}
