"""Smoke tests for the demos in scripts/: each runs in a subprocess at a small
size and must exit 0, so that an API change cannot break a demo unseen."""

import os
import subprocess
import sys

import pytest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# residual_ladder_demo's ladder ends at lambda = 1e4, which needs M_cut >= 200
DEMOS = [
    ("contour_demo.py", ["--families", "1", "--levels", "1"]),
    ("gauge_demo.py", ["--samples", "50"]),
    ("residual_ladder_demo.py", ["--mcut", "200", "--points", "12"]),
]


def test_every_demo_listed():
    assert sorted(name for name, _ in DEMOS) == sorted(
        f for f in os.listdir(os.path.join(REPO, "scripts")) if f.endswith(".py"))


@pytest.mark.parametrize("name, args", DEMOS)
def test_demo_runs(name, args):
    src = os.path.join(REPO, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.join(REPO, "scripts", name), *args],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
