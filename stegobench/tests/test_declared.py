"""Printed metric names, units and directions match BENCHMARK.json, both ways."""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

from test_checks import SMALL, run_small

LINE = re.compile(r"^  (\S+) = (\S+) (\S+) \((higher|lower) is better\)$")


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match(name, trace, tmp_path, capsys):
    result = run_small(name, tmp_path, trace)
    key = "per_layer" if trace else "end_to_end"
    spec = run.declared(os.path.join(run.ROOT, "BENCHMARK.json"))[key]
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), m.group(4))
    assert printed == spec
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in spec.items()}
    for k, v in result["metrics"].items():
        # only the stream's cache, which never hits, may read zero
        assert v["value"] > 0 or (name, k) == ("stream-rgb", "models.cache_hit_ratio"), k


def test_fails_without_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "stegobench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, *spec["command"][1:],
         "--workload", "stream-rgb", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
