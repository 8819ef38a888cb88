"""Each demo script runs to completion in a fresh interpreter, with the
warnings that ``pyproject.toml`` makes errors in the tests made errors
there too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
WARNINGS_AS_ERRORS = [f"-Werror::{w}" for w in ("RuntimeWarning", "DeprecationWarning",
                                                "FutureWarning")]


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
