"""Which spectra_lab calls the traced run wraps, and the per-layer metrics.

Span names are metric names: `<module>.<what>_s` is busy time in that
module's public calls.  Counters repeat exactly for a given seed.  exactalg
has no span of its own; its time sits inside zones and frequency spans.
"""

from __future__ import annotations

import weakref

# (metric, unit, better); times are busy seconds, the rest counts or errors
PER_LAYER = [
    ("bloch.oracle_cold_s", "s", "lower"),
    ("bloch.oracle_warm_s", "s", "lower"),
    ("bloch.oracle_points", "count", "higher"),
    ("bloch.oracle_ref_err", "abs", "lower"),
    ("bloch.midpoint_d1_s", "s", "lower"),
    ("bloch.midpoint_d2_s", "s", "lower"),
    ("bloch.fibers", "count", "lower"),
    ("validation.contour_s", "s", "lower"),
    ("validation.contour_families", "count", "higher"),
    ("validation.contour_abs_diff_max", "abs", "lower"),
    ("validation.projection_s", "s", "lower"),
    ("validation.resolvent_s", "s", "lower"),
    ("validation.coefficients_s", "s", "lower"),
    ("validation.residual_ladder_s", "s", "lower"),
    ("gauge.run_k1_s", "s", "lower"),
    ("gauge.run_k2_s", "s", "lower"),
    ("gauge.run_k3_s", "s", "lower"),
    ("gauge.verify_b3_s", "s", "lower"),
    ("gauge.b3_checked", "count", "higher"),
    ("gauge.b3_violations", "count", "lower"),
    ("symbols.is_symmetric_s", "s", "lower"),
    ("symbols.w_support_k1", "count", "lower"),
    ("symbols.w_support_k2", "count", "lower"),
    ("symbols.w_support_k3", "count", "lower"),
    ("zones.geometry_init_s", "s", "lower"),
    ("zones.classify_s", "s", "lower"),
    ("zones.congruence_s", "s", "lower"),
    ("zones.points", "count", "higher"),
    ("zones.resonant", "count", "higher"),
    ("zones.class_points", "count", "lower"),
    ("zones.diam_over_mL", "count", "lower"),
    ("frequency.condition_A_s", "s", "lower"),
    ("frequency.diophantine_s", "s", "lower"),
    ("heat.closed_form_s", "s", "lower"),
    ("heat.sigma_s", "s", "lower"),
    ("heat.mean_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("cli.zones_s", "s", "lower"),
    ("cli.gauge_s", "s", "lower"),
    ("cli.heat_s", "s", "lower"),
    ("cli.bloch_s", "s", "lower"),
    ("cli.compare_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
] + [("%s.self_s" % m, "s", "lower") for m in (
    "bloch", "validation", "gauge", "symbols", "zones", "frequency", "heat",
    "config", "cli")] + [("trace_overhead_s", "s", "lower")]


def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def instrument(tracer):
    """Wrap the public entry points of every layer the workloads touch."""
    # cli first, so that the names it imported are rebound as well
    from spectra_lab import cli  # noqa: F401
    from spectra_lab import bloch, config, frequency, gauge, heat, symbols, validation, zones

    seen = weakref.WeakSet()

    def oracle_name(args, kwargs):
        oracle = args[0]
        if oracle in seen:
            return "bloch.oracle_warm_s"
        seen.add(oracle)
        return "bloch.oracle_cold_s"

    def oracle_points(t, args, kwargs, out):
        t.count("bloch.oracle_points", len(out))

    def midpoint_name(args, kwargs):
        return "bloch.midpoint_d%d_s" % _arg(args, kwargs, 6, "d", 1)

    def fibers(t, args, kwargs, out):
        nk, d = _arg(args, kwargs, 5, "Nk"), _arg(args, kwargs, 6, "d", 1)
        t.count("bloch.fibers", nk // 2 if d == 1 else nk ** d)

    def contour_family(t, args, kwargs, out):
        # one family per outermost contour call; refine calls check per level
        if not t.inside("validation.contour_s"):
            t.count("validation.contour_families")
            diff = out["final_abs_diff"] if "final_abs_diff" in out else out["abs_diff"]
            t.maximum("validation.contour_abs_diff_max", diff)

    def gauge_name(args, kwargs):
        return "gauge.run_k%d_s" % _arg(args, kwargs, 1, "ktilde")

    def w_support(t, args, kwargs, out):
        t.counts["symbols.w_support_k%d" % _arg(args, kwargs, 1, "ktilde")] = len(out.w.coeffs)

    def b3_counts(t, args, kwargs, out):
        t.count("gauge.b3_checked", out["checked"])
        t.count("gauge.b3_violations", len(out["violations"]))

    def classified(t, args, kwargs, out):
        if t.inside("zones.congruence_s"):  # the closure classifies its seed
            return
        t.count("zones.points")
        if out.dim > 0:
            t.count("zones.resonant")

    def class_points(t, args, kwargs, out):
        t.count("zones.class_points", len(out))

    w = tracer.wrap
    w(bloch.BlochOracle1D, "evaluate", oracle_name, oracle_points)
    w(bloch, "spectral_function", midpoint_name, fibers)
    w(validation, "refine_contour_identity", "validation.contour_s", contour_family)
    w(validation, "check_contour_identity", "validation.contour_s", contour_family)
    w(validation, "check_projection_perturbation", "validation.projection_s")
    w(validation, "resolvent_series_check", "validation.resolvent_s")
    w(validation, "coefficients_from_potential", "validation.coefficients_s")
    w(validation, "residual_ladder", "validation.residual_ladder_s")
    w(gauge, "run_gauge", gauge_name, w_support)
    w(gauge, "verify_b3", "gauge.verify_b3_s", b3_counts)
    w(symbols, "is_symmetric", "symbols.is_symmetric_s")
    w(zones.ZoneGeometry, "__init__", "zones.geometry_init_s")
    w(zones.ZoneGeometry, "classify_point", "zones.classify_s", classified)
    w(zones.ZoneGeometry, "congruence_class", "zones.congruence_s", class_points)
    w(frequency, "check_condition_A", "frequency.condition_A_s")
    w(frequency, "diophantine_constants", "frequency.diophantine_s")
    w(heat, "closed_form_a", "heat.closed_form_s")
    w(heat, "discrepancy_report", "heat.sigma_s")
    w(heat, "mean_a", "heat.mean_s")
    w(config, "parse_config", "config.parse_s")


def layer_metrics(tracer):
    """Every per-layer metric except trace_overhead_s, zero where unused."""
    busy, module_self = tracer.layer_times()
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace_overhead_s":
            continue
        if name.endswith(".self_s"):
            value = module_self.get(name.split(".")[0], 0.0)
        elif unit == "s":
            value = busy.get(name, 0.0)
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
