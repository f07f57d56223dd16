import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(REPO, "perfbench")


def test_perfbench_layers_instrument():
    """perfbench/layers.py wraps spectra_lab callables by attribute name, so a
    renamed or deleted one breaks `perfbench/run.py --trace 1` at run time;
    wrapping them all must succeed against the current package."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(REPO, "src")),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("from layers import instrument\n"
            "from spans import Tracer\n"
            "instrument(Tracer())\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
