"""Brent's method for a root inside a sign-changing bracket.

R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
ch. 4, in the form of scipy's brentq: the same bracket bookkeeping, the same
inverse-interpolation and extrapolation steps, the same test for accepting
a step and the same tolerance.  It therefore evaluates f at the same points
and returns the same bits as brentq with the same tolerances, without
importing scipy.optimize.
"""

from __future__ import annotations

import math
from typing import Callable

_MAXITER = 100


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float, rtol: float) -> float:
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    An end where f is exactly 0 is returned at once.  The search stops when
    the bracket's half-width falls below delta = (xtol + rtol |x|) / 2 about
    the current best x; a step shorter than delta is lengthened to delta.
    Raises ValueError when f returns NaN or f(a), f(b) have the same sign,
    and RuntimeError after 100 iterations without convergence."""

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError("f(%r) is NaN" % x)
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        # xcur is the best iterate, xblk the end of the bracket opposite it
        # and xpre the previous iterate
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a zero divisor makes the step inf or NaN in IEEE arithmetic,
            # which the acceptance test below rejects
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("no convergence after %d iterations, x = %r"
                       % (_MAXITER, xcur))
