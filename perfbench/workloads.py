"""The four workloads: seeded inputs, the timed batch of ops, and the gates.

Each workload is a class with
  inputs(rng)           -> dict of generated inputs (cheap, part of set-up)
  run(inp, ctx)         -> results; this is the timed region
  check(inp, res, led)  -> per-op correctness gates, outside the timed region
  digests(res)          -> {name: sha256} of output arrays and CLI outputs
The program sees only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from itertools import product

import numpy as np

RHO = 1000.0
X_POINTS = (0.0, math.pi / 2, math.pi)
OFF_PAIR = (0.3, 1.3)


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=float).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _frac(rng, lo, hi):
    """A seeded exact amplitude lo/100 .. hi/100."""
    return Fraction(int(rng.integers(lo, hi + 1)), 100)


class OracleLadder:
    """d = 1 residual ladders (acceptance criteria 02-04) on a tridiagonal and a
    pentadiagonal fiber, one fresh BlochOracle1D per potential."""

    # (name, M_cut, ladder); the pentadiagonal fiber runs at M_cut = 64:
    # at M_cut = 220 one of its crossing-band eigenpairs costs ~0.1 s against
    # ~1 ms for the tridiagonal fiber, so one 12-rung ladder takes a minute
    TRI = ("tri", 220, np.geomspace(1e2, 1e4, 24))
    PENTA = ("penta", 64, np.geomspace(1e2, 1e3, 12))
    REF_POINTS = 4          # refined-oracle check on the lowest ladder rungs

    def inputs(self, rng):
        a = _frac(rng, 10, 30)
        a1, a2 = _frac(rng, 10, 25), _frac(rng, 5, 15)
        return {"tri": {1: a, -1: a}, "penta": {1: a1, -1: a1, 2: a2, -2: a2}}

    def run(self, inp, ctx):
        import sympy as sp

        from spectra_lab import bloch, heat, validation

        res = {}
        for name, m_cut, ladder in (self.TRI, self.PENTA):
            four = {(t,): float(c) for t, c in inp[name].items()}
            oracle = bloch.BlochOracle1D(four, M_cut=m_cut)
            vals = {x: oracle.evaluate(ladder, x) for x in X_POINTS}
            off = oracle.evaluate(ladder, *OFF_PAIR)
            b = heat.TrigPotential.build(1, {(t,): sp.Rational(c.numerator, c.denominator)
                                             for t, c in inp[name].items()})
            coeffs = validation.coefficients_from_potential(b, 2)
            ladders = {x: validation.residual_ladder(coeffs, ladder, vals[x], 2, [x])
                       for x in X_POINTS}
            res[name] = {"four": four, "m_cut": m_cut, "ladder": ladder, "vals": vals,
                         "off": off, "coeffs": coeffs, "ladders": ladders}
        return res

    def check(self, inp, res, led):
        from spectra_lab.bloch import BlochOracle1D
        from spectra_lab.validation import fit_power_coefficient, free_offdiagonal

        ref_err = 0.0
        for name, r in res.items():
            ladder = r["ladder"]
            for x in X_POINTS:
                led.check("%s.monotone.x%.4f" % (name, x), bool((np.diff(r["vals"][x]) >= 0).all()))
                fit = fit_power_coefficient(ladder, r["ladders"][x].residuals[0], -0.5)
                target = r["coeffs"].values([x])[0]
                if abs(target) > 1e-12:
                    ok = abs(fit - target) / abs(target) <= 0.05
                else:
                    ok = abs(fit) <= 1e-6
                led.check("%s.a1_fit.x%.4f" % (name, x), ok, fit=fit, closed_form=target)
            R = r["off"] - free_offdiagonal(ladder, *OFF_PAIR, 1)
            led.check("%s.offdiagonal" % name, abs(R[-1]) <= 0.1, R_top=float(R[-1]))
            sub = ladder[:self.REF_POINTS]
            ref = BlochOracle1D(r["four"], M_cut=r["m_cut"], Nh=256, gauss_nodes=96)
            err = float(np.max(np.abs(ref.evaluate(sub, 0.0) - r["vals"][0.0][:self.REF_POINTS])))
            led.check("%s.refined_oracle" % name, err <= 1e-8, err=err)
            ref_err = max(ref_err, err)
        led.counts["bloch.oracle_ref_err"] = ref_err

    def digests(self, res):
        out = {}
        for name, r in res.items():
            for x in X_POINTS:
                out["%s.x%.4f" % (name, x)] = sha(r["vals"][x])
            out["%s.off" % name] = sha(r["off"])
        return out


class GaugeD2:
    """d = 2 zone geometry and gauge construction on Theta = {0, +-e1, +-e2}
    (criteria 05, 06, 09 and CLI zones/gauge on axes2d)."""

    ZONE_POINTS = 8000
    B3_POINTS = 1000
    SYM_POINTS = 200

    def inputs(self, rng):
        from spectra_lab.zones import sample_annulus

        return {"a1": _frac(rng, 10, 40), "a2": _frac(rng, 10, 40),
                "zone_pts": sample_annulus(2, RHO, self.ZONE_POINTS, rng),
                "b3_pts": sample_annulus(2, RHO, self.B3_POINTS, rng),
                "sym_pts": sample_annulus(2, RHO, self.SYM_POINTS, rng)}

    def run(self, inp, ctx):
        from spectra_lab import frequency, gauge, symbols, zones

        basis = frequency.GeneratorBasis(None)
        e1, e2 = frequency.freq([1, 0], basis), frequency.freq([0, 1], basis)
        S = frequency.FrequencySet.build(2, basis, [e1, e2])
        zp = zones.ZoneParameters.create(RHO, 2)
        geom = zones.ZoneGeometry(S, zp)
        labels = [geom.classify_point(xi) for xi in inp["zone_pts"]]
        classes = [geom.congruence_class(xi) for xi in inp["zone_pts"]]
        cond = frequency.check_condition_A(S, 3)
        frequency.diophantine_constants(S)
        a1, a2 = float(inp["a1"]), float(inp["a2"])
        b = symbols.multiplication_symbol({e1: a1, -e1: a1, e2: a2, -e2: a2})
        orders = {}
        for k in (1, 2, 3):
            zpk = zones.ZoneParameters.create(RHO, 2, ktilde=k)
            cf = gauge.CutoffFamily(RHO, zpk.beta)
            grid = symbols.XiGrid(inp["sym_pts"], zpk.beta)
            # k = 3 runs without norm_grid: the remainder's class norm alone
            # costs ~18 s on top of the ~18 s construction
            out = gauge.run_gauge(b, k, cf, S, norm_grid=grid if k < 3 else None)
            b3 = gauge.verify_b3(out, inp["b3_pts"], S, zpk)
            orders[k] = {"support": list(out.w.support()), "b3": b3,
                         "sym_psi1": symbols.is_symmetric(out.psi[0], grid),
                         "sym_w": symbols.is_symmetric(out.w, grid),
                         "norms": out.diagnostics.get("psi_norm_ladder")}
            del out
        return {"S": S, "zp": zp, "geom": geom, "labels": labels, "classes": classes,
                "cond": cond, "orders": orders}

    def check(self, inp, res, led):
        from spectra_lab.frequency import algebraic_sum

        geom, zp = res["geom"], res["zp"]
        led.check("frequency.condition_A", bool(res["cond"][0]))
        exact, within, over_mL = True, True, 0
        for xi, label, cls in zip(inp["zone_pts"], res["labels"], res["classes"]):
            hits = [V for V in geom.subspaces if geom.in_xi(V, xi)]
            if len(hits) != 1 or hits[0].dimension != label.dim:
                exact = False
                continue
            m = hits[0].dimension
            if m == 0:
                exact = exact and len(cls) == 1 and np.allclose(cls.points[0], xi)
            else:
                diam = cls.diameter()
                within = within and diam <= 2 * m * zp.L(m)
                over_mL += diam > m * zp.L(m)
        led.check("zones.partition", exact)
        led.check("zones.class_diameter_2mL", within)
        led.counts["zones.diam_over_mL"] = over_mL
        for k, o in res["orders"].items():
            theta = set(algebraic_sum(res["S"], k).elements)
            led.check("gauge.support.k%d" % k, set(o["support"]) <= theta)
            led.check("gauge.verify_b3.k%d" % k, o["b3"]["passed"] and o["b3"]["checked"] > 0,
                      violations=len(o["b3"]["violations"]))
            led.check("symbols.is_symmetric.psi1.k%d" % k, bool(o["sym_psi1"]))
            led.check("symbols.is_symmetric.w.k%d" % k, bool(o["sym_w"]))

    def digests(self, res):
        out = {"zones.labels": sha(json.dumps([lab.dim for lab in res["labels"]])),
               "zones.class_sizes": sha(json.dumps([len(c) for c in res["classes"]]))}
        for k, o in res["orders"].items():
            out["gauge.k%d" % k] = sha(json.dumps(
                [sorted(repr(t) for t in o["support"]), o["norms"], o["b3"]["checked"]],
                default=float))
        return out


class Contour:
    """Validation kernels of criteria 07 and 08: contour identity on random
    4x4 degree-2 Hermitian families, projection perturbation, resolvent series."""

    FAMILIES = 4
    TRIALS = 100

    def inputs(self, rng):
        seeds = [int(s) for s in rng.integers(0, 2**31, size=self.FAMILIES + 2)]
        return {"families": seeds[:-2], "projection": seeds[-2], "resolvent": seeds[-1]}

    def run(self, inp, ctx):
        from spectra_lab import validation as V

        fams = [V.random_family(4, 2, s) for s in inp["families"]]
        refined = [V.refine_contour_identity(f, (1.0, 4.0), levels=2) for f in fams]
        scalar = V.check_contour_identity(V.scalar_free_family(), (1.0, 4.0))
        projection = [V.check_projection_perturbation(50, s, eps, self.TRIALS,
                                                      seed=inp["projection"] + i,
                                                      delta=math.sqrt(eps))
                      for i, (s, eps) in enumerate(product((0, 2), (1e-2, 1e-4)))]
        resolvent = V.resolvent_series_check(V.random_family(4, 2, inp["resolvent"]),
                                             2.5 + 0.0j, 4.0, 10)
        return {"refined": refined, "scalar": scalar, "projection": projection,
                "resolvent": resolvent}

    def check(self, inp, res, led):
        for seed, rep in zip(inp["families"], res["refined"]):
            led.check("contour.family.%d" % seed, rep["final_abs_diff"] <= 1e-8,
                      abs_diff=rep["final_abs_diff"])
        sc = res["scalar"]
        led.check("contour.scalar", abs(sc["lhs"] - 1.0) <= 1e-10 and sc["abs_diff"] <= 1e-10,
                  lhs=sc["lhs"])
        for rep in res["projection"]:
            led.check("projection.s%d.eps%g" % (rep["s"], rep["eps"]), rep["passed"])
        rs = res["resolvent"]
        led.check("resolvent_series", rs["errors"][-1] <= rs["ratio"] ** 8)

    def digests(self, res):
        out = {"contour.%d" % i: sha(np.array([r["lhs"] for r in rep["levels"]]
                                              + [r["rhs_real"] for r in rep["levels"]]))
               for i, rep in enumerate(res["refined"])}
        out["projection"] = sha(np.array([r["min_slack_norm"] for r in res["projection"]]))
        out["resolvent"] = sha(np.array(res["resolvent"]["errors"]))
        return out


class CliSweep:
    """In-process spectra_lab.cli.main over all six subcommands on a d = 1 and a
    d = 2 config.  bloch/compare use copies that change only N_k, M_cut and
    ladder (the shipped sizes take 198 s and ~6 h)."""

    CONFIGS = {"d1": "configs/mathieu.json", "d2": "configs/axes2d.json"}
    REDUCED = {"d1": {"M_cut": 60, "N_k": 256, "ladder": {"min": 100.0, "max": 800.0, "count": 12}},
               "d2": {"M_cut": 8, "N_k": 8, "ladder": {"min": 2.0, "max": 16.0, "count": 8}}}
    COMMANDS = ("zones", "gauge", "heat", "bloch", "compare", "validate")
    HEADERS = {"bloch": "lambda,x,y,e_lambda,N_k,M_cut",
               "compare": "lambda,x,N_oracle,N_expansion_L0,N_expansion_L1,R_0,R_1"}

    def inputs(self, rng):
        return {"cli_seed": int(rng.integers(0, 2**31))}

    def prepare(self, inp, workdir):
        """Write the reduced config copies (set-up, not timed)."""
        paths = {}
        for key, shipped in self.CONFIGS.items():
            with open(shipped) as fh:
                cfg = json.load(fh)
            paths[key] = shipped
            cfg.update(self.REDUCED[key])
            reduced = os.path.join(workdir, "reduced_%s.json" % key)
            with open(reduced, "w") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
            paths[key + ".reduced"] = reduced
        inp["configs"] = paths
        inp["workdir"] = workdir

    def run(self, inp, ctx):
        from spectra_lab import cli

        res = {}
        for key in self.CONFIGS:
            for cmd in self.COMMANDS:
                cfg = inp["configs"][key + (".reduced" if cmd in self.HEADERS else "")]
                out = os.path.join(inp["workdir"], "%s_%s.out" % (cmd, key))
                with ctx.span("cli.%s_s" % cmd):
                    code = cli.main([cmd, "--config", cfg, "--out", out,
                                     "--seed", str(inp["cli_seed"])])
                with open(out) as fh:
                    res[(cmd, key)] = (code, fh.read())
        return res

    def check(self, inp, res, led):
        for (cmd, key), (code, text) in res.items():
            ok = code == 0
            with open(inp["configs"][key + (".reduced" if cmd in self.HEADERS else "")]) as fh:
                cfg = json.load(fh)
            if ok and cmd in self.HEADERS:
                lines = text.splitlines()
                ok = lines[0] == self.HEADERS[cmd] and len(lines) == 1 + cfg["ladder"]["count"]
            elif ok:
                report = json.loads(text)
                if cmd == "zones":
                    ok = report["samples"] == cfg["samples"]
                elif cmd == "gauge":
                    ok = report["checks"]["b3"]["passed"] and report["checks"]["w_symmetric"]
                elif cmd == "heat":
                    ok = "a1" in report and "sigma_engine" in report
                elif cmd == "validate":
                    ok = report["passed"] is True
            led.check("cli.%s.%s" % (cmd, key), ok, exit_code=code)

    def digests(self, res):
        return {"%s.%s" % k: sha(text) for k, (code, text) in res.items()}


WORKLOADS = {"oracle_ladder": OracleLadder, "gauge_d2": GaugeD2,
             "contour": Contour, "cli_sweep": CliSweep}
