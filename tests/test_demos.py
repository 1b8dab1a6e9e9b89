"""Each demo script runs to completion against the package as it stands:
a demo that calls a deleted or renamed API fails here, not in a reader's
hands. A demo prints only to stdout and writes no files."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert list(tmp_path.iterdir()) == []
