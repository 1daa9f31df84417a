"""Smoke runs of the scripts under scripts/, each as a subprocess with tiny arguments."""
import csv
import os
import subprocess
import sys

import pytest

import stegosampler
from stegosampler import cli, corpus, models, pnm

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, cwd, code=0):
    src = os.path.dirname(os.path.dirname(stegosampler.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args], capture_output=True, text=True,
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == code, done.stderr
    return done.stdout.splitlines(), done.stderr


@pytest.mark.parametrize("rgb", [False, True], ids=["gray", "rgb"])
def test_make_corpus_writes_the_stroke_corpus(tmp_path, rgb):
    out, _ = run_script("make_corpus.py", "--out", "c", "--count", "3", "--width", "9",
                     "--height", "7", "--seed", "4", *(["--rgb"] if rgb else []), cwd=tmp_path)
    assert out == ["wrote 3 images to c"]
    ext, channels = ("ppm", 3) if rgb else ("pgm", 1)
    want = corpus.stroke_corpus(3, 9, 7, channels, seed=4)
    got = [pnm.read_image(str(tmp_path / "c" / f"stroke_{i:05d}.{ext}")) for i in range(3)]
    assert [(g.width, g.height, g.channels, bytes(g.data)) for g in got] == [
        (9, 7, channels, bytes(w.data)) for w in want]
    assert len(os.listdir(tmp_path / "c")) == 3


# a 10^8 x 10^8 image is refused at once: bytearray(10^16) raises without allocating
OVERSIZE = ["--width", "100000000", "--height", "100000000"]
NO_MEMORY = "no memory for the 10000000000000000 bytes of a 100000000x100000000x1 image"


@pytest.mark.parametrize("args, message", [
    (["--count", "-3"], "count must not be negative, got -3"),
    (["--width", "0"], "image dimensions must be positive"),
    (OVERSIZE, NO_MEMORY),
], ids=["count", "width", "oversize"])
def test_make_corpus_refuses_a_bad_argument_in_one_line(tmp_path, args, message):
    out, err = run_script("make_corpus.py", "--out", "c", *args, cwd=tmp_path, code=2)
    assert out == [] and err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "c").exists()


# a bad prc or bucket count is refused before the corpus is drawn, which refuses width 0
@pytest.mark.parametrize("args, message", [
    (["--count", "0"], "count must be at least 1, got 0"),
    (["--width", "0"], "image dimensions must be positive"),
    (["--prc", "7", "--width", "0"], "prc 7 outside [8, 62]"),
    (["--buckets", "256", "--width", "0"], "buckets 256 outside 0..255"),
    (OVERSIZE, NO_MEMORY),
], ids=["count", "width", "prc", "buckets", "oversize"])
def test_run_desk_eval_refuses_a_bad_argument_in_one_line(tmp_path, args, message):
    out, err = run_script("run_desk_eval.py", "--corpus-size", "20", *args, cwd=tmp_path, code=2)
    assert out == [] and err.splitlines() == [f"error: {message}"]  # no `trained on` line
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["--out-bits-map", os.path.join("missing", "bits.pgm")],
    ["--out-csv", "x", "--out-entropy-map", "x"],
], ids=["unwritable", "one-path"])
def test_run_desk_eval_writes_its_outputs_all_or_none(tmp_path, args):
    """An output that cannot be written, or two outputs on one path, leaves no output behind."""
    _, err = run_script("run_desk_eval.py", "--count", "2", "--corpus-size", "20", *args,
                        cwd=tmp_path, code=2)
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert os.listdir(tmp_path) == []


def test_run_desk_eval_prints_and_writes_its_summary(tmp_path):
    out, _ = run_script("run_desk_eval.py", "--count", "3", "--corpus-size", "20", cwd=tmp_path)
    assert out[0].startswith("trained on 20 stroke images in ")
    assert [line.split()[0] for line in out[1:8]] == [
        "arithmetic-coding", "ER", "KLD", "JSD", "LSB", "ER", "KLD"]
    assert out[2].endswith(" bpp") and out[6].endswith(" bits/step")
    assert out[-2].startswith("entropy/bits position correlation: ")
    assert out[-1] == "wrote desk_eval.csv, entropy_map.pgm, bits_map.pgm"
    with open(tmp_path / "desk_eval.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [row[0] for row in rows] == ["image", "img_0000", "img_0001", "img_0002", "mean", "std"]
    for name in ("entropy_map.pgm", "bits_map.pgm"):
        img = pnm.read_image(str(tmp_path / name))
        assert (img.width, img.height, img.channels) == (28, 28, 1)


def test_run_desk_eval_of_one_image_has_no_spread(tmp_path):
    """One image per method: every std is 0, the LSB baseline's as the arithmetic coder's."""
    out, err = run_script("run_desk_eval.py", "--count", "1", "--corpus-size", "20", cwd=tmp_path)
    assert err == ""
    assert out[5:8] == [
        "LSB rejection baseline:",
        "  ER   1.0000 +/- 0.0000 bits/step",
        out[7].split(" +/- ")[0] + " +/- 0.0000e+00 bit",
    ]
    assert out[2].endswith(" +/- 0.0000 bpp")


def test_run_desk_eval_writes_what_stegosampler_analyze_writes(tmp_path):
    """The script's sampler half is `stegosampler analyze` on the script's model, with pad
    seeds seed*1000 + i: the same CSV and maps, byte for byte."""
    run_script("run_desk_eval.py", "--count", "3", "--corpus-size", "20", cwd=tmp_path)
    model = models.train_context_model(corpus.stroke_corpus(20, 28, 28, 1, seed=11), buckets=4)
    models.save_model(model, str(tmp_path / "m.pscm"))
    names = ["desk_eval.csv", "entropy_map.pgm", "bits_map.pgm"]
    (tmp_path / "cli").mkdir()
    flags = ["--out-csv", "--out-entropy-map", "--out-bits-map"]
    argv = ["analyze", "--model", str(tmp_path / "m.pscm"), "--count", "3", "--width", "28",
            "--height", "28", "--seed", "11000"]
    for flag, name in zip(flags, names):
        argv += [flag, str(tmp_path / "cli" / name)]
    assert cli.main(argv) == 0
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name
