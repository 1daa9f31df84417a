import csv
import hashlib
import os

import numpy as np
import pytest

from stegosampler import cli, coder, corpus, models, pnm


def run(*argv):
    return cli.main(list(argv))


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for i, img in enumerate(corpus.stroke_corpus(8, 8, 8, seed=3, noise=0.3)):
        pnm.write_image(img, d / f"img{i:02d}.pgm")
    return d


class TestTrain:
    def test_trains_and_saves(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "model.pscm"
        assert run("train", "--corpus", str(corpus_dir), "--out", str(out), "--buckets", "4") == 0
        model = models.load_model(out)
        assert model.buckets == 4
        assert "8 images" in capsys.readouterr().out

    def test_hand_counted_single_image(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        pnm.write_image(pnm.ImageGrid(2, 2, 1, bytearray(4)), d / "z.pgm")
        out = tmp_path / "m.pscm"
        assert run("train", "--corpus", str(d), "--out", str(out)) == 0
        model = models.load_model(out)
        B = model.buckets
        assert model.counts[0, B, B, 0] == 1
        assert model.counts.sum() == 4

    def test_empty_dir_exit_2(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert run("train", "--corpus", str(d), "--out", str(tmp_path / "m")) == 2

    def test_mixed_corpus_exit_2(self, tmp_path):
        d = tmp_path / "mixed"
        d.mkdir()
        pnm.write_image(pnm.ImageGrid(1, 1, 1, bytearray(1)), d / "a.pgm")
        pnm.write_image(pnm.ImageGrid(1, 1, 3, bytearray(3)), d / "b.ppm")
        assert run("train", "--corpus", str(d), "--out", str(tmp_path / "m")) == 2


class TestEmbedExtract:
    def test_uniform_raw_passthrough(self, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(bytes([1, 2, 3, 4]))
        out = tmp_path / "s.pgm"
        assert run(
            "embed", "--uniform", "--message", str(msg), "--width", "2", "--height", "2",
            "--raw", "--seed", "5", "--out", str(out),
        ) == 0
        assert bytes(pnm.read_image(out).data) == bytes([1, 2, 3, 4])

    @pytest.mark.parametrize(
        "model, payload, named",
        [
            # a stream of point-mass steps cannot confirm the framed header
            ("degenerate", b"",
             "confirmed 0 of 32 framed bits at prc 26, final interval [0, 67108863]"),
            # four uniform gray steps confirm 8 bits each: the header, not the payload byte
            ("uniform", b"x", "confirmed 32 of 40 framed bits at prc 26, final interval"),
        ],
        ids=["degenerate-stream", "uniform-short"],
    )
    def test_capacity_exceeded_exit_3(self, model, payload, named, tmp_path, capsys):
        if model == "degenerate":
            table = [[0] * 256 for _ in range(4)]
            for row in table:
                row[7] = 1
            stream_path = tmp_path / "d.psds"
            models.save_stream(table, stream_path)
            model_args = ["--dist-stream", str(stream_path)]
        else:
            model_args = ["--uniform"]
        msg = tmp_path / "m.bin"
        msg.write_bytes(payload)
        code = run(
            "embed", *model_args, "--message", str(msg),
            "--width", "2", "--height", "2", "--seed", "1", "--out", str(tmp_path / "s.pgm"),
        )
        assert code == 3
        line = assert_one_error_line(capsys)
        assert named in line

    def test_full_pipeline_checksum(self, corpus_dir, tmp_path):
        model_path = tmp_path / "model.pscm"
        run("train", "--corpus", str(corpus_dir), "--out", str(model_path), "--buckets", "4")
        payload = os.urandom(16)
        msg = tmp_path / "m.bin"
        msg.write_bytes(payload)
        img = tmp_path / "s.pgm"
        rec = tmp_path / "r.bin"
        assert run(
            "embed", "--model", str(model_path), "--message", str(msg),
            "--width", "28", "--height", "28", "--seed", "9", "--out", str(img),
            "--report", str(tmp_path / "rep.csv"),
        ) == 0
        assert run(
            "extract", "--model", str(model_path), "--image", str(img), "--out", str(rec)
        ) == 0
        assert hashlib.sha256(rec.read_bytes()).digest() == hashlib.sha256(payload).digest()

    def test_raw_extract_length(self, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"\xaa" * 4)
        img = tmp_path / "s.pgm"
        run("embed", "--uniform", "--message", str(msg), "--width", "3", "--height", "3",
            "--raw", "--seed", "2", "--out", str(img))
        out = tmp_path / "o.bin"
        assert run("extract", "--uniform", "--image", str(img), "--raw", "--out", str(out)) == 0
        assert len(out.read_bytes()) == 9  # floor(72 confirmed bits / 8)

    def test_wrong_model_exit_4(self, tmp_path, capsys):
        # degenerate stream disagrees with the uniform-embedded pixels
        table = [[0] * 256 for _ in range(4)]
        for row in table:
            row[7] = 1
        stream_path = tmp_path / "d.psds"
        models.save_stream(table, stream_path)
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"\x55")
        img = tmp_path / "s.pgm"
        run("embed", "--uniform", "--message", str(msg), "--width", "2", "--height", "2",
            "--raw", "--seed", "3", "--out", str(img))
        code = run(
            "extract", "--dist-stream", str(stream_path), "--image", str(img),
            "--raw", "--out", str(tmp_path / "o.bin"),
        )
        assert code == 4
        line = assert_one_error_line(capsys)
        assert "step 0 (row 0, column 0, channel 0) at prc 26: pixel " in line

    @pytest.mark.parametrize("command", ["embed", "extract"])
    def test_short_stream_names_its_step(self, command, tmp_path, capsys):
        # a 4-step stream for a 3x2 image runs out at row 1, column 1
        models.save_stream(np.ones((4, 256), dtype=np.int64), tmp_path / "short.psds")
        (tmp_path / "m.bin").write_bytes(b"")
        pnm.write_image(pnm.ImageGrid(3, 2, 1, bytearray(6)), tmp_path / "s.pgm")
        argv = {
            "embed": ["--message", str(tmp_path / "m.bin"), "--width", "3", "--height", "2",
                      "--raw", "--seed", "1", "--out", str(tmp_path / "o.pgm")],
            "extract": ["--image", str(tmp_path / "s.pgm"), "--raw", "--out", str(tmp_path / "o.bin")],
        }[command]
        code = run(command, "--dist-stream", str(tmp_path / "short.psds"), "--prc", "30", *argv)
        assert code == 2
        line = assert_one_error_line(capsys)
        where = "step 4 (row 1, column 1, channel 0) at prc 30: stream has 4 steps, step 4 requested"
        assert where in line

    def test_determinism(self, tmp_path):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"fixed")
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            run("embed", "--uniform", "--message", str(msg), "--width", "4", "--height", "4",
                "--seed", "77", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def bad_inputs(tmp_path):
    """Paths for the bad-input probes: each names a file or a directory."""
    table = np.ones((4, 256), dtype=np.int64)
    table[2] = 0
    models.save_stream(table, tmp_path / "zero-row.psds")
    gray = corpus.stroke_corpus(4, 4, 4, 1, seed=1)
    models.save_model(models.train_context_model(gray, buckets=4), tmp_path / "gray.pscm")
    pnm.write_image(pnm.ImageGrid(2, 2, 3, bytearray(12)), tmp_path / "rgb.ppm")
    pnm.write_image(pnm.ImageGrid(2, 2, 1, bytearray(4)), tmp_path / "gray.pgm")
    (tmp_path / "msg.bin").write_bytes(b"\x01")
    (tmp_path / "maxval17").mkdir()
    (tmp_path / "maxval17" / "a.pgm").write_bytes(b"P5\n2 2\n17\n\x00\x01\x02\x03")
    (tmp_path / "corpus").mkdir()
    pnm.write_image(pnm.ImageGrid(2, 2, 1, bytearray(4)), tmp_path / "corpus" / "a.pgm")
    return {"d": str(tmp_path), "missing": str(tmp_path / "missing")}


EMBED = "embed --message {d}/msg.bin --width 2 --height 2 --seed 1"
ANALYZE = "analyze --count 1 --width 2 --height 2 --out-csv {d}/a.csv " \
    "--out-entropy-map {d}/e.pgm --out-bits-map {d}/b.pgm"

# every bad input ends in exit 2 with one error line, never a traceback
BAD_INPUT_PROBES = {
    "embed-zero-row-stream": f"{EMBED} --dist-stream {{d}}/zero-row.psds --out {{d}}/s.pgm",
    "analyze-zero-row-stream": f"{ANALYZE} --dist-stream {{d}}/zero-row.psds",
    "extract-gray-model-rgb-image": "extract --model {d}/gray.pscm --image {d}/rgb.ppm --out {d}/o.bin",
    "embed-gray-model-rgb": f"{EMBED} --model {{d}}/gray.pscm --rgb --out {{d}}/s.ppm",
    "embed-width-0": "embed --uniform --message {d}/msg.bin --width 0 --height 2 --out {d}/s.pgm",
    "embed-prc-70": f"{EMBED} --uniform --prc 70 --out {{d}}/s.pgm",
    "extract-prc-70": "extract --uniform --image {d}/gray.pgm --prc 70 --out {d}/o.bin",
    "extract-prc-4": "extract --uniform --image {d}/gray.pgm --prc 4 --out {d}/o.bin",
    "train-maxval-17": "train --corpus {d}/maxval17 --out {d}/m.pscm",
    "train-buckets-256": "train --corpus {d}/corpus --out {d}/m.pscm --buckets 256",
    "train-buckets-minus-1": "train --corpus {d}/corpus --out {d}/m.pscm --buckets -1",
    "train-smooth-minus-1": "train --corpus {d}/corpus --out {d}/m.pscm --smooth -1",
    "train-smooth-2^32": "train --corpus {d}/corpus --out {d}/m.pscm --smooth 4294967296",
    "analyze-count-0": ANALYZE.replace("--count 1", "--count 0") + " --uniform",
    "embed-out-missing-dir": f"{EMBED} --uniform --raw --out {{missing}}/s.pgm",
    "extract-out-missing-dir": "extract --uniform --image {d}/gray.pgm --raw --out {missing}/o.bin",
    "embed-report-missing-dir": f"{EMBED} --uniform --raw --out {{d}}/s.pgm "
    "--report {missing}/r.csv",
    "embed-out-missing-dir-with-report": f"{EMBED} --uniform --raw --out {{missing}}/s.pgm "
    "--report {d}/r.csv",
    "analyze-bits-map-missing-dir": ANALYZE.replace("{d}/b.pgm", "{missing}/b.pgm") + " --uniform",
}


# a path the probe's error line must name, and the files the failed command must not leave
PROBE_NAMES = {"train-maxval-17": "{d}/maxval17/a.pgm"}
PROBE_LEAVES_NO = {
    "embed-report-missing-dir": ["{d}/s.pgm"],
    "embed-out-missing-dir-with-report": ["{d}/r.csv", "{missing}/s.pgm"],
    "analyze-bits-map-missing-dir": ["{d}/a.csv", "{d}/e.pgm"],
}


@pytest.mark.parametrize("probe", sorted(BAD_INPUT_PROBES))
def test_bad_input_exit_2(probe, bad_inputs, capsys):
    argv = BAD_INPUT_PROBES[probe].format(**bad_inputs).split()
    assert cli.main(argv) == 2
    line = assert_one_error_line(capsys)
    if probe in PROBE_NAMES:
        assert PROBE_NAMES[probe].format(**bad_inputs) in line
    for path in PROBE_LEAVES_NO.get(probe, []):
        assert not os.path.exists(path.format(**bad_inputs))
    assert not [n for n in os.listdir(bad_inputs["d"]) if n.endswith(".tmp")]


class TestAnalyze:
    def test_uniform_constant_er(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        assert run(
            "analyze", "--uniform", "--count", "4", "--width", "8", "--height", "8",
            "--seed", "1", "--out-csv", str(csv_path),
            "--out-entropy-map", str(tmp_path / "e.pgm"),
            "--out-bits-map", str(tmp_path / "b.pgm"),
        ) == 0
        with csv_path.open() as f:
            rows = list(csv.DictReader(f))
        detail = [r for r in rows if r["image"].startswith("img_")]
        assert len(detail) == 4
        assert all(float(r["er_pixel"]) == 8.0 for r in detail)
        ent = pnm.read_image(tmp_path / "e.pgm")
        assert bytes(ent.data) == b"\xff" * 64  # constant 8-bit entropy field


class TestSelftest:
    def test_passes(self, capsys):
        assert run("selftest") == 0
        assert "pass" in capsys.readouterr().out

    def test_detects_perturbed_quantizer(self, monkeypatch, capsys):
        real = coder.quantize

        def skewed(dist, state):
            part = real(dist, state)
            if len(part.ends) > 1:  # nudge one boundary: the end of run 0 that embed bisects
                part.ends[0] += 1
            return part

        monkeypatch.setattr(coder, "quantize", skewed)
        assert run("selftest") == 5
        assert "golden-step" in capsys.readouterr().err
