"""The names that the benchmark's tracing (bench/tracing.py) wraps stay called."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--ensemble", "ribeiro_two_point", "--xi", "0.7854", "--init", "caseI",
         "--n", "6"),
        ("average", "--ensemble", "mackay_uniform", "--init", "caseII", "--n", "4",
         "--trials", "16", "--seed", "1", "--workers", "1"),
    ],
    ids=["exact", "average"],
)
def test_traced_run_calls_the_kernel(tmp_path, argv):
    # The tracer wraps `pathsum._evolve_block` and `stats._evolve_block` by
    # name with a two-argument wrapper: a run that stops calling the kernel
    # through that name records no kernel span, and one that changes the
    # call fails inside the wrapper.
    spans = tmp_path / "spans.npz"
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(BENCH), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spans), "--", *argv,
         "--out", str(tmp_path / "result.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["exit_code"] == 0
    layers = load_tracing().summarise(str(spans))
    assert layers["engine.evolve_block"]["calls"] >= 1
