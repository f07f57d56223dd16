"""Run configuration: JSON ingestion with full-violation reporting and exact
round-tripping (rationals as "p/q" strings, complex numbers as [re, im])."""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import Malformed, NonHermitianPotential, UnsupportedDimension
from .frequency import (FrequencySet, GeneratorBasis, freq,
                        hermitian_violations, potential_frequencies,
                        surd_supported)


def _integer(v, lo=-math.inf) -> bool:
    """A JSON integer >= lo; JSON true and false are no integers."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _real(v) -> bool:
    """A JSON number with a finite float value: json reads NaN and Infinity
    as floats, an integer past the float range has none, and JSON true and
    false are no numbers."""
    if _integer(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _parse_rational(v, violations, where):
    try:
        if isinstance(v, str) or _integer(v):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    violations.append("%s: expected rational 'p/q' or integer, got %r" % (where, v))
    return Fraction(0)


def _parse_coord(v, has_surd, violations, where):
    """One frequency coordinate: rational, or [rational, surd-part] pair."""
    if isinstance(v, list):
        if not has_surd:
            violations.append("%s: surd part given but no generator D" % where)
            return (Fraction(0), Fraction(0))
        if len(v) != 2:
            violations.append("%s: coordinate pair must have 2 entries" % where)
            return (Fraction(0), Fraction(0))
        return (_parse_rational(v[0], violations, where),
                _parse_rational(v[1], violations, where))
    r = _parse_rational(v, violations, where)
    return (r, Fraction(0)) if has_surd else r


def _parse_complex(v, violations, where):
    if _real(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_real(t) for t in v):
        return complex(v[0], v[1])
    violations.append("%s: expected finite number or [re, im], got %r"
                      % (where, v))
    return 0j


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    rho_n: float = 1000.0
    potential: dict = field(default_factory=dict)  # {FrequencyVector: coeff}
    surd_D: Optional[int] = None
    ktilde: int = 1
    k_max: int = 3
    alpha: Optional[tuple] = None
    M_cut: int = 40
    N_k: int = 512
    ladder_min: float = 100.0
    ladder_max: float = 10000.0
    ladder_count: int = 40
    x: tuple = (0.0,)
    y: Optional[tuple] = None
    samples: int = 1000
    seed: int = 0
    out: Optional[str] = None

    def ladder(self):
        import numpy as np

        return np.geomspace(self.ladder_min, self.ladder_max, self.ladder_count)


_KNOWN_KEYS = {
    "dimension", "rho_n", "frequencies", "surd_D", "ktilde", "k_max", "alpha",
    "M_cut", "N_k", "ladder", "x", "y", "samples", "seed", "out",
}


def parse_config(path: str, command: Optional[str] = None,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Read and validate a JSON config; raises with every violation found,
    not just the first.  `overrides` (the CLI's --seed and --out) replace
    keys of the file before validation, so they obey the same rules."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise Malformed(["config file not found: %s" % path])
    except OSError as e:
        raise Malformed(["cannot read config file %s: %s" % (path, e.strerror)])
    except UnicodeDecodeError as e:
        raise Malformed(["config file is not UTF-8: %s" % e])
    except json.JSONDecodeError as e:
        raise Malformed(["invalid JSON: %s" % e])
    if not isinstance(raw, dict):
        raise Malformed(["top-level config must be a JSON object"])
    return validate_config({**raw, **(overrides or {})}, command)


def validate_config(raw: dict, command: Optional[str] = None) -> RunConfig:
    """Check a raw config; the potential becomes one Fourier table keyed by
    exact FrequencyVector, with equal theta summed and the first-seen order
    kept (the gauge composes in that order).  An absent setting, or one in
    violation, takes the default of its RunConfig field."""
    violations = []
    dimension_violations = []

    def setting(key, ok, message, src=raw, name=None):
        default = getattr(RunConfig, name or key)
        v = src.get(key, default)
        if ok(v):
            return v
        violations.append(message)
        return default

    for k in raw:
        if k not in _KNOWN_KEYS:
            violations.append("unknown key %r" % k)

    d = raw.get("dimension")
    if not _integer(d, 1):
        violations.append("dimension must be a positive integer")
        d = 1
    if command in ("bloch", "compare") and d not in (1, 2):
        dimension_violations.append(
            "command %r supports d in {1, 2}, got d=%d" % (command, d))

    surd = raw.get("surd_D")
    if surd is not None:
        if not surd_supported(surd):
            violations.append("surd_D must be a positive non-square integer "
                              "with a finite float square root")
            surd = None
        elif command in ("bloch", "compare", "heat"):
            violations.append("command %r needs rational frequencies "
                              "(surd_D must be null)" % command)

    rho = setting("rho_n", lambda v: _real(v) and v > 1.0,
                  "rho_n must be a finite number > 1")

    basis = GeneratorBasis(surd)
    table = {}
    entries = raw.get("frequencies", [])
    if not isinstance(entries, list):
        violations.append("frequencies must be a list")
        entries = []
    for i, ent in enumerate(entries):
        where = "frequencies[%d]" % i
        if not isinstance(ent, dict) or "theta" not in ent or "coeff" not in ent:
            violations.append("%s: need {'theta': [...], 'coeff': ...}" % where)
            continue
        th = ent["theta"]
        if not isinstance(th, list) or len(th) != d:
            violations.append("%s: theta must be a list of length d=%d" % (where, d))
            continue
        coords = tuple(_parse_coord(v, surd is not None, violations, where)
                       for v in th)
        coeff = _parse_complex(ent["coeff"], violations, where)
        v = freq(coords, basis)
        table[v] = table[v] + coeff if v in table else coeff
    hermitian = hermitian_violations(table)
    # the Bloch oracle needs b periodic on the lattice 2pi Z^d
    if command in ("bloch", "compare") and surd is None:
        for v in potential_frequencies(table):
            if any(a.denominator != 1 for a, _ in v.coords):
                violations.append(
                    "command %r needs integer frequencies, got theta=[%s] "
                    "with a nonzero coefficient"
                    % (command, ", ".join(str(a) for a, _ in v.coords)))
    # the zone geometry needs the frequencies of b to span R^d; validate
    # skips its zone check for b = 0
    if command in ("zones", "gauge") or (command == "validate"
                                         and any(table.values())):
        S = FrequencySet.build(d, basis, potential_frequencies(table),
                               require_spanning=False)
        if S.real_rank() < d:
            violations.append("command %r needs the frequencies with a nonzero "
                              "coefficient to span R^%d" % (command, d))

    positive = functools.partial(_integer, lo=1)
    ktilde = setting("ktilde", positive, "ktilde must be a positive integer")
    k_max = setting("k_max", positive, "k_max must be a positive integer")

    alpha = raw.get("alpha")
    if alpha is not None:
        if (not isinstance(alpha, list) or len(alpha) != d
                or not all(_real(a) for a in alpha)):
            violations.append("alpha must be a list of d finite numbers")
            alpha = None
        else:
            if any(alpha[i] >= alpha[i + 1] for i in range(d - 1)) \
                    or alpha[-1] >= 1.0 / (2 * d):
                violations.append(
                    "alpha must be strictly increasing with alpha_d < 1/(2d)")
                alpha = None
            else:
                alpha = tuple(float(a) for a in alpha)

    M_cut = setting("M_cut", positive, "M_cut must be a positive integer")
    N_k = setting("N_k", positive, "N_k must be a positive integer")

    lad = raw.get("ladder", {})
    if not isinstance(lad, dict):
        violations.append("ladder must be an object {min, max, count}")
        lad = {}
    lmin = lad.get("min", RunConfig.ladder_min)
    lmax = lad.get("max", RunConfig.ladder_max)
    if not (_real(lmin) and _real(lmax) and lmin > 0 and lmax > lmin):
        violations.append("ladder needs finite 0 < min < max")
        lmin, lmax = RunConfig.ladder_min, RunConfig.ladder_max
    lcount = setting("count", functools.partial(_integer, lo=2),
                     "ladder count must be an integer >= 2", lad,
                     "ladder_count")

    def point(key):
        p = raw.get(key)
        if p is None:
            return None
        if isinstance(p, (int, float)):
            p = [p]
        if not isinstance(p, list) or len(p) != d \
                or not all(_real(v) for v in p):
            violations.append("%s must be a list of d finite coordinates" % key)
            return None
        return tuple(float(v) for v in p)

    x = point("x") or RunConfig.x * d
    y = point("y")
    if command in ("compare", "heat") and raw.get("y") is not None:
        violations.append("command %r evaluates on the diagonal only "
                          "(y must be null; bloch takes y)" % command)

    samples = setting("samples", positive, "samples must be a positive integer")
    seed = setting("seed", functools.partial(_integer, lo=0),
                   "seed must be a non-negative integer")
    out = setting("out", lambda v: v is None or (
                      isinstance(v, str) and not os.path.isdir(v)
                      and os.path.isdir(os.path.dirname(v) or ".")),
                  "out must be a path string naming a file in an existing directory")

    all_violations = violations + hermitian + dimension_violations
    if all_violations:
        if hermitian:
            raise NonHermitianPotential(all_violations)
        if dimension_violations:
            raise UnsupportedDimension(all_violations)
        raise Malformed(all_violations)

    return RunConfig(
        dimension=d, rho_n=float(rho), potential=table, surd_D=surd,
        ktilde=ktilde, k_max=k_max, alpha=alpha, M_cut=M_cut, N_k=N_k,
        ladder_min=float(lmin), ladder_max=float(lmax), ladder_count=lcount,
        x=x, y=y, samples=samples, seed=seed, out=out,
    )


def _coord_to_json(c, has_surd):
    if has_surd:
        return [str(c[0]), str(c[1])]
    return str(c[0])


def serialize_config(cfg: RunConfig) -> dict:
    """Inverse of parse_config up to canonical forms (round-trip identity)."""
    has_surd = cfg.surd_D is not None
    freqs = [{"theta": [_coord_to_json(v, has_surd) for v in th.coords],
              "coeff": [c.real, c.imag]}
             for th, c in cfg.potential.items()]
    out = {
        "dimension": cfg.dimension,
        "rho_n": cfg.rho_n,
        "frequencies": freqs,
        "surd_D": cfg.surd_D,
        "ktilde": cfg.ktilde,
        "k_max": cfg.k_max,
        "alpha": list(cfg.alpha) if cfg.alpha is not None else None,
        "M_cut": cfg.M_cut,
        "N_k": cfg.N_k,
        "ladder": {"min": cfg.ladder_min, "max": cfg.ladder_max,
                   "count": cfg.ladder_count},
        "x": list(cfg.x),
        "y": list(cfg.y) if cfg.y is not None else None,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "out": cfg.out,
    }
    return out
