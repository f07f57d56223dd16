#!/usr/bin/env python3
"""Fit the first expansion coefficients of the local density of states for
b(x) = 2v cos x against the Bloch oracle and print the residual ladder."""

import argparse
import math

import numpy as np

from spectra_lab.bloch import BlochOracle1D
from spectra_lab.heat import TrigPotential
from spectra_lab.validation import (coefficients_from_potential,
                                    fit_power_coefficient, residual_ladder)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--v", type=float, default=0.2, help="cosine amplitude")
    ap.add_argument("--x", type=float, default=0.0)
    ap.add_argument("--mcut", type=int, default=220)
    ap.add_argument("--points", type=int, default=80)
    args = ap.parse_args()

    table = {(1,): args.v, (-1,): args.v}
    coeffs = coefficients_from_potential(TrigPotential.build(1, table), 2)
    oracle = BlochOracle1D(table, M_cut=args.mcut)
    ladder = np.geomspace(1e2, 1e4, args.points)

    vals = oracle.evaluate(ladder, args.x)
    rl = residual_ladder(coeffs, ladder, vals, 2, [args.x])
    a1 = float(coeffs.values([args.x])[0])
    fit = fit_power_coefficient(ladder, rl.residuals[0], -0.5)

    print(f"x = {args.x}, b(x) = {2 * args.v * math.cos(args.x):.6f}")
    print(f"closed-form a_1(x) = {a1:.8e}")
    print(f"fitted lambda^-1/2 coefficient = {fit:.8e}")
    for L in (0, 1, 2):
        tag = "noise floor" if rl.noise_floor[L] else f"slope {rl.slopes[L]:.4f}"
        print(f"|R_{L}| envelope: {tag}")


if __name__ == "__main__":
    main()
