"""brent_root against scipy's brentq, the reference it ports: the same root
bits and the same evaluation points on smooth functions and on the oracle's
crossing-point function, the same errors, and no scipy.optimize import
anywhere in spectra_lab."""

import cmath
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spectra_lab import bloch
from spectra_lab.bloch import BlochOracle1D
from spectra_lab.roots import brent_root

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# the (xtol, rtol) pairs src/ passes: the oracle's k* and the contour's
# eigenvalue crossings
SRC_TOLERANCES = [(1e-13, bloch._KSTAR_RTOL), (1e-13, 1e-15)]


def _run(solver, f, a, b, xtol, rtol):
    """(outcome, root bits, evaluation points) of one solve."""
    xs = []

    def logged(x):
        xs.append(x)
        return f(x)

    try:
        root = solver(logged, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, None, xs
    return "root", float(root).hex(), xs


def _assert_same(f, a, b, xtol, rtol):
    ours = _run(brent_root, f, a, b, xtol, rtol)
    ref = _run(brentq, f, a, b, xtol, rtol)
    assert ours == ref
    return ours


# odd in t, so odd(x - r) changes sign at r; times a positive weight
ODD = {
    "linear": lambda t, c: t,
    "cubic": lambda t, c: t ** 3 + abs(c) * t,
    "tanh": lambda t, c: math.tanh((1 + abs(c)) * t),
    "sinh": lambda t, c: math.sinh(c * t) if c else t,
    "atan": lambda t, c: math.atan(10 * (1 + abs(c)) * t),
}
WEIGHT = {
    "one": lambda x, c: 1.0,
    "quadratic": lambda x, c: 1 + c * c * x * x,
    "exp_sin": lambda x, c: math.exp(c * math.sin(3 * x)),
    "cosh": lambda x, c: math.cosh(c * x),
}


@settings(max_examples=300, deadline=None)
@given(odd=st.sampled_from(sorted(ODD)), weight=st.sampled_from(sorted(WEIGHT)),
       c1=st.floats(-3, 3), c2=st.floats(-2, 2),
       a=st.floats(-5, 5), width=st.floats(1e-6, 8), where=st.floats(0, 1),
       root_at=st.sampled_from(["inside", "a", "b"]),
       scale=st.sampled_from([1.0, -1.0, 1e-170, -1e-170]))
def test_same_points_and_root_as_brentq(odd, weight, c1, c2, a, width, where,
                                        root_at, scale):
    """Smooth functions with a sign change in [a, b], the root inside or
    exactly at an end, at both tolerance pairs src/ uses.  A flat root (the
    cubic at c1 = 0) can use up the 100 iterations in both.  At scale 1e-170
    the extrapolation step's divisor underflows to 0."""
    b = a + width
    r = {"inside": a + where * width, "a": a, "b": b}[root_at]

    def f(x):
        return scale * ODD[odd](x - r, c1) * WEIGHT[weight](x, c2)

    for xtol, rtol in SRC_TOLERANCES:
        outcome, bits, xs = _assert_same(f, a, b, xtol, rtol)
        assert outcome in ("root", "RuntimeError")
        if root_at != "inside":
            # an exact zero at an end is returned after f(a) and f(b)
            assert (bits, len(xs)) == (r.hex(), 2)


@settings(max_examples=25, deadline=None)
@given(amp=st.floats(0.05, 1.0), phase=st.floats(0, 2 * math.pi),
       penta=st.floats(0.02, 0.5) | st.just(0.0), band=st.integers(0, 6),
       t=st.floats(0.01, 0.99))
def test_oracle_kstar_as_brentq(amp, phase, penta, band, t):
    """The oracle's crossing-point function on tri (penta = 0) and penta
    tables, real and complex: brent_root and brentq visit the same k and
    return the same k*, and the oracle's crossing band is built on it."""
    c = amp * cmath.exp(1j * phase)
    table = {(1,): c, (-1,): c.conjugate()}
    if penta:
        table.update({(2,): penta, (-2,): penta})
    oracle = BlochOracle1D(table, M_cut=20)
    oracle._ensure_spectra(80.0)
    e0, eh = oracle._edges
    lam = float(min(e0[band], eh[band]) + t * abs(eh[band] - e0[band]))

    def f(k):
        return bloch._eig_banded_k(k, oracle.ms, oracle.four, oracle.bw,
                                   index=band, vectors=False)[0][0] - lam

    lo, hi = 1e-12, 0.5 - 1e-12
    assume((f(lo) > 0) != (f(hi) > 0))
    outcome, bits, _ = _assert_same(f, lo, hi, 1e-13, bloch._KSTAR_RTOL)
    assert outcome == "root"
    kstar = float.fromhex(bits)
    a, b = (0.0, kstar) if eh[band] > e0[band] else (kstar, 0.5)
    assert oracle._crossing_nodes(band, lam)[0] == 0.5 * (b - a)


def _step(x):
    return 1.0 if x > 0.3 else -1.0


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: math.nan, 0.0, 1.0, ValueError),
    (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0, ValueError),
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: 1e-200, 0.0, 1.0, ValueError),
    # bisection from 2e300 down to 1e-13 needs ~1000 halvings, not 100
    (_step, -1e300, 1e300, RuntimeError),
])
def test_errors_as_brentq(f, a, b, error):
    """A NaN value, ends of one sign (also where their product underflows)
    and no convergence in 100 iterations raise as in brentq, after the same
    evaluations."""
    for xtol, rtol in SRC_TOLERANCES:
        with pytest.raises(error):
            brent_root(f, a, b, xtol, rtol)
        assert _assert_same(f, a, b, xtol, rtol)[0] == error.__name__


def test_no_scipy_optimize_import():
    """Importing every spectra_lab module, an oracle ladder and a contour
    check load no scipy.optimize, at the top level or deferred."""
    code = """
import importlib, pkgutil, sys
import numpy as np
import spectra_lab
for m in pkgutil.iter_modules(spectra_lab.__path__):
    importlib.import_module("spectra_lab." + m.name)
from spectra_lab.bloch import BlochOracle1D
from spectra_lab.validation import (QuadratureConfig, check_contour_identity,
                                    random_family)
BlochOracle1D({(1,): 0.2, (-1,): 0.2}, M_cut=20).evaluate(
    np.linspace(20.0, 60.0, 5), 0.3)
check_contour_identity(random_family(3, 2, 1), (1.0, 4.0),
                       quad=QuadratureConfig(n_r=8, n_mu=8, n_contour=32))
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
assert not loaded, loaded
"""
    _run_fresh(code)


def test_zones_cli_imports_no_sympy_or_scipy():
    """The CLI's zones path, frequency.fourier_table's module included, loads
    neither sympy nor scipy."""
    _run_fresh("""
import sys
from spectra_lab import cli
assert cli.main(["zones", "--config", "configs/mathieu.json"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("sympy", "scipy"))
assert not loaded, loaded
""")


def _run_fresh(code):
    """Run code in a new interpreter on this checkout's src; it must exit 0."""
    src = os.path.join(REPO, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
