"""Command-line entry point: zones, gauge, heat, bloch, compare, validate.

Exit codes: 0 success, 1 check failure, 2 configuration error.  All numeric
output is deterministic given the config and seed; CSV cells use 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import validation as V
from .config import RunConfig, parse_config, serialize_config
from .errors import ConfigError, SpectraLabError
from .frequency import (FrequencySet, GeneratorBasis, check_condition_A,
                        diophantine_constants, potential_frequencies)
from .gauge import CutoffFamily, run_gauge, verify_b3
from .symbols import XiGrid, is_symmetric, multiplication_symbol
from .zones import ZoneGeometry, ZoneParameters, sample_annulus


def _num(v) -> str:
    return format(float(v), ".16e")


def _point(p) -> str:
    return ";".join(_num(v) for v in p)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _zone_inputs(cfg: RunConfig, samples: int) -> tuple:
    """The frequency set of b, the zone parameters and `samples` annulus
    points drawn with the config's seed."""
    S = FrequencySet.build(cfg.dimension, GeneratorBasis(cfg.surd_D),
                           potential_frequencies(cfg.potential))
    zp = ZoneParameters.create(cfg.rho_n, cfg.dimension, alpha=cfg.alpha,
                               ktilde=cfg.ktilde)
    rng = np.random.default_rng(cfg.seed)
    return S, zp, sample_annulus(cfg.dimension, cfg.rho_n, samples, rng)


def cmd_zones(cfg: RunConfig) -> tuple:
    S, zp, pts = _zone_inputs(cfg, cfg.samples)
    geom = ZoneGeometry(S, zp)
    dim_counts: dict = {}
    max_class_size = 0
    max_diameter = 0.0
    for xi in pts:
        label = geom.classify_point(xi)
        dim_counts[label.dim] = dim_counts.get(label.dim, 0) + 1
        if label.dim > 0:
            cls = geom.congruence_class(xi)
            max_class_size = max(max_class_size, len(cls))
            max_diameter = max(max_diameter, cls.diameter())
    cond_ok, witness = check_condition_A(S, cfg.k_max)
    dio = diophantine_constants(S)
    report = {
        "dimension": cfg.dimension,
        "rho_n": cfg.rho_n,
        "alpha": list(zp.alpha),
        "samples": int(len(pts)),
        "label_dim_counts": {str(k): v for k, v in sorted(dim_counts.items())},
        "nonresonant_fraction": dim_counts.get(0, 0) / len(pts),
        "max_class_size": max_class_size,
        "max_class_diameter": max_diameter,
        "condition_A": {"k_max": cfg.k_max, "holds": bool(cond_ok),
                        "witness": repr(witness) if witness else None},
        "diophantine": dio.to_json_dict(),
    }
    return 0, _json_dump(report)


def cmd_gauge(cfg: RunConfig) -> tuple:
    S, zp, pts = _zone_inputs(cfg, cfg.samples)
    cf = CutoffFamily(cfg.rho_n, zp.beta)
    b = multiplication_symbol(cfg.potential)
    grid = XiGrid(pts, zp.beta)
    out = run_gauge(b, cfg.ktilde, cf, S, norm_grid=grid)
    b3 = verify_b3(out, pts, S, zp)
    sym_grid = XiGrid(pts[: min(len(pts), 200)], zp.beta)
    checks = {
        "b3": {"checked": b3["checked"], "passed": b3["passed"],
               "violations": len(b3["violations"]), "tol": b3["tol"]},
        "psi1_symmetric": bool(out.psi and is_symmetric(out.psi[0], sym_grid)),
        "w_symmetric": bool(is_symmetric(out.w, sym_grid)),
    }
    report = {
        "ktilde": cfg.ktilde,
        "rho_n": cfg.rho_n,
        "beta": zp.beta,
        "w_support": sorted(tuple(float(v) for v in th.to_float())
                            for th in out.w.support()),
        "psi_norms": [entry["norm"]
                      for entry in out.diagnostics.get("psi_norm_ladder", [])],
        "remainder_norm": out.diagnostics.get("remainder_norm"),
        "checks": checks,
        "convention": out.diagnostics["convention"],
    }
    code = 0 if (checks["b3"]["passed"] and checks["psi1_symmetric"]
                 and checks["w_symmetric"]) else 1
    return code, _json_dump(report)


def cmd_heat(cfg: RunConfig) -> tuple:
    import sympy as sp

    from .heat import (TrigPotential, at_point, closed_form_a,
                       discrepancy_report, mean_a, weyl_constant)

    b = TrigPotential.build(cfg.dimension, cfg.potential)
    disc = discrepancy_report(b, cfg.x)
    a1 = disc["a1_closed_form"]
    a2 = at_point(closed_form_a(b, 2), cfg.x)
    report = {
        "dimension": cfg.dimension,
        "x": list(cfg.x),
        "weyl_constant": float(weyl_constant(cfg.dimension)),
        "a1": {"exact": sp.srepr(a1), "pretty": str(a1), "float": float(a1)},
        "a2": {"exact": sp.srepr(a2), "pretty": str(a2), "float": float(a2)},
        "mean_a1": str(mean_a(b, 1)),
        "mean_a2": str(mean_a(b, 2)),
        "sigma_engine": {
            "a1_verbatim": str(disc["a1_verbatim"]),
            "a1_closed_form": str(disc["a1_closed_form"]),
            "ratio": str(disc["ratio"]),
            "expected_ratio": str(disc["expected_ratio"]),
            "note": disc["note"],
        },
    }
    return 0, _json_dump(report)


def cmd_bloch(cfg: RunConfig) -> tuple:
    from .bloch import spectral_function

    lams = cfg.ladder()
    x = np.array(cfg.x)
    y = np.array(cfg.y) if cfg.y is not None else x
    vals = spectral_function(lams, x, y, cfg.potential, cfg.M_cut, cfg.N_k,
                             d=cfg.dimension)
    lines = ["lambda,x,y,e_lambda,N_k,M_cut"]
    for lam, v in zip(lams, np.atleast_1d(vals)):
        lines.append(",".join([_num(lam), _point(x), _point(y), _num(v),
                               str(cfg.N_k), str(cfg.M_cut)]))
    return 0, "\n".join(lines) + "\n"


def cmd_compare(cfg: RunConfig) -> tuple:
    from .bloch import BlochOracle1D, spectral_function
    from .heat import TrigPotential

    lams = cfg.ladder()
    b = TrigPotential.build(cfg.dimension, cfg.potential)
    coeffs = V.coefficients_from_potential(b, 2)
    x = cfg.x
    if cfg.dimension == 1:
        oracle = BlochOracle1D(cfg.potential, M_cut=cfg.M_cut)
        N = oracle.evaluate(lams, x[0])
    else:
        N = spectral_function(lams, np.array(x), np.array(x), cfg.potential,
                              cfg.M_cut, cfg.N_k, d=cfg.dimension)
    N0 = V.expansion_eval(coeffs, lams, list(x), L=0)
    N1 = V.expansion_eval(coeffs, lams, list(x), L=1)
    lines = ["lambda,x,N_oracle,N_expansion_L0,N_expansion_L1,R_0,R_1"]
    for lam, n, e0, e1 in zip(lams, np.atleast_1d(N), np.atleast_1d(N0),
                              np.atleast_1d(N1)):
        lines.append(",".join([_num(lam), _point(x), _num(n), _num(e0),
                               _num(e1), _num(n - e0), _num(n - e1)]))
    return 0, "\n".join(lines) + "\n"


def cmd_validate(cfg: RunConfig) -> tuple:
    from .bloch import free_lds

    checks = []

    def add(name, passed, **details):
        entry = {"name": name, "passed": bool(passed)}
        entry.update(details)
        checks.append(entry)

    # free Weyl term, d=1
    lams = np.geomspace(100.0, 10000.0, 12)
    N = free_lds(lams, 4096, 1)
    rel = float(np.max(np.abs(N / (V.weyl_constant(1) * np.sqrt(lams)) - 1.0)))
    add("free_weyl_d1", rel <= 1e-4, max_rel_err=rel)

    # off-diagonal free formula matches the exact d=1 kernel
    r = 0.7
    lhs = V.free_offdiagonal(lams, 0.0, r, 1)
    rhs = np.sin(np.sqrt(lams) * r) / (math.pi * r)
    add("free_offdiagonal_d1_identity",
        float(np.max(np.abs(lhs - rhs))) <= 1e-14,
        max_abs_err=float(np.max(np.abs(lhs - rhs))))

    # projection perturbation bounds
    rep = V.check_projection_perturbation(30, 0, 1e-2, 20, seed=cfg.seed)
    add("projection_perturbation_s0", rep["passed"],
        min_slack_norm=rep["min_slack_norm"],
        min_slack_vector=rep["min_slack_vector"])
    rep = V.check_projection_perturbation(30, 2, 1e-4, 20, seed=cfg.seed + 1)
    add("projection_perturbation_s2", rep["passed"],
        min_slack_norm=rep["min_slack_norm"],
        min_slack_vector=rep["min_slack_vector"])

    # contour identity: scalar exact case and random families
    rep = V.check_contour_identity(V.scalar_free_family(), (1.0, 4.0))
    add("contour_identity_scalar", abs(rep["lhs"] - 1.0) <= 1e-10
        and rep["abs_diff"] <= 1e-10, lhs=rep["lhs"], abs_diff=rep["abs_diff"])
    worst = 0.0
    for k in range(3):
        fam = V.random_family(4, 2, cfg.seed + k)
        worst = max(worst,
                    V.check_contour_identity(fam, (1.0, 4.0))["abs_diff"])
    add("contour_identity_random_4x4", worst <= 1e-8, max_abs_diff=worst)

    # resolvent geometric series
    fam = V.random_family(4, 2, cfg.seed + 100)
    rep = V.resolvent_series_check(fam, 2.5 + 0.0j, 4.0, 10)
    add("resolvent_series", rep["errors"][-1] <= rep["ratio"] ** 8,
        ratio=rep["ratio"], measured_rate=rep["measured_rate"])

    # wave-packet growth bound on the free ladder
    growth = V.diagonal_growth_check(lams, N, 1)
    add("diagonal_growth", growth["passed"], max_ratio=growth["max_ratio"])

    # zone partition sanity for the configured frequencies (skipped for b = 0)
    if any(cfg.potential.values()):
        try:
            S, zp, pts = _zone_inputs(cfg, min(cfg.samples, 200))
            geom = ZoneGeometry(S, zp)
            dims = [geom.classify_point(xi).dim for xi in pts]
            ok = all(0 <= m <= cfg.dimension for m in dims)
            if cfg.dimension == 1:
                ok = ok and all(m == 0 for m in dims)
            add("zone_partition", ok, samples=len(pts))
        except SpectraLabError as e:
            add("zone_partition", False, error=str(e))

    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "checks": checks,
              "config": serialize_config(cfg)}
    return (0 if passed else 1), _json_dump(report)


_COMMANDS = {
    "zones": cmd_zones,
    "gauge": cmd_gauge,
    "heat": cmd_heat,
    "bloch": cmd_bloch,
    "compare": cmd_compare,
    "validate": cmd_validate,
}


def dispatch(subcommand: str, cfg: RunConfig) -> int:
    if subcommand not in _COMMANDS:
        sys.stderr.write("unknown subcommand: %s\n" % subcommand)
        return 2
    code, text = _COMMANDS[subcommand](cfg)
    _emit(text, cfg.out)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectra-lab",
        description="Spectral function asymptotics toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out))
                 if v is not None}
    try:
        cfg = parse_config(args.config, command=args.command,
                           overrides=overrides)
        return dispatch(args.command, cfg)
    except ConfigError as e:
        for v in e.violations:
            sys.stderr.write("config error: %s\n" % v)
        return 2
    except SpectraLabError as e:
        sys.stderr.write("%s: %s\n" % (type(e).__name__, e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
