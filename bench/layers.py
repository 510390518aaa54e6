"""Per-layer metrics of one traced pass, named after charcalc's modules.

``calls`` and the work counters are exact and repeat for a given seed.
``self_s`` is a span's time minus its traced children's; ``total_s``
includes them.  Which end-to-end metric each one should move, and on which
workload, is written down in ``bench/README.md``.
"""

from __future__ import annotations

from workloads import FRONTIER_CHECKS

SERIES_OPS = ("init", "mul", "add", "exp", "invert", "pow", "component")
LAMBDA_OPS = ("kelement_mul", "tseries_mul", "tseries_invert", "lambda_t", "gamma_t", "ch", "todd", "total_chern")
CHECKS = FRONTIER_CHECKS + ("homomorphism",)
FRONTIER_RANKS = (5, 6, 7)
CONDUCTOR_STAGES = ("validate_fiber", "is_prime", "normalize_fiber", "generic_euler_check", "bloch_degree", "conductor")
CYCLES = (100, 400, 1600)
COMMANDS = ("cmd_verify", "cmd_conductor", "cmd_explain")


def _catalogue():
    """(name, unit, better) for every per-layer metric, in report order."""
    rows = []
    for op in SERIES_OPS:
        rows += [(f"series.{op}.calls", "count", "lower"), (f"series.{op}.self_s", "s", "lower")]
        if op == "mul":
            rows += [("series.mul.term_pairs", "count", "lower"), ("series.mul.terms_out", "count", "lower")]
    rows.append(("series.peak_terms", "count", "lower"))
    for op in LAMBDA_OPS:
        rows += [(f"lambda_ring.{op}.calls", "count", "lower"), (f"lambda_ring.{op}.self_s", "s", "lower")]
    for check in CHECKS:
        rows += [(f"verify.{check}.calls", "count", "lower"), (f"verify.{check}.total_s", "s", "lower")]
    for check in FRONTIER_CHECKS:
        rows += [(f"verify.{check}.n{n}.total_s", "s", "lower") for n in FRONTIER_RANKS]
    for stage in CONDUCTOR_STAGES:
        rows += [(f"conductor.{stage}.calls", "count", "lower"), (f"conductor.{stage}.self_s", "s", "lower")]
    rows += [
        ("conductor.fibers", "count", "higher"),
        ("conductor.strata", "count", "higher"),
        ("conductor.validations_per_fiber", "ratio", "lower"),
        ("conductor.normalizations_per_fiber", "ratio", "lower"),
    ]
    rows += [(f"conductor.normalize_fiber.I{n}.self_s", "s", "lower") for n in CYCLES]
    rows += [
        ("modelfile.load_model.calls", "count", "lower"),
        ("modelfile.load_model.self_s", "s", "lower"),
        ("modelfile.parse_model.self_s", "s", "lower"),
    ]
    for command in COMMANDS:
        rows += [(f"cli.{command}.{field}", unit, "lower") for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    rows += [("trace.overhead_s", "s", "lower"), ("trace.self_share", "ratio", "higher")]
    return rows


CATALOGUE = _catalogue()


def layer_metrics(tracer, ops, traced_wall: float, untraced_wall: float) -> dict:
    """name -> (value, unit) for every entry of CATALOGUE."""
    by_name, by_op = tracer.summarize()
    values = {}

    def span(name, field, op=None):
        row = by_name.get(name) if op is None else by_op.get((name, op))
        if row is None:
            return 0
        return row[{"calls": 0, "total_s": 1, "self_s": 2}[field]]

    for op in SERIES_OPS:
        for field in ("calls", "self_s"):
            values[f"series.{op}.{field}"] = span(f"series.{op}", field)
    for key in ("series.mul.term_pairs", "series.mul.terms_out", "series.peak_terms"):
        values[key] = tracer.counts.get(key, 0)
    for op in LAMBDA_OPS:
        for field in ("calls", "self_s"):
            values[f"lambda_ring.{op}.{field}"] = span(f"lambda_ring.{op}", field)
    for check in CHECKS:
        for field in ("calls", "total_s"):
            values[f"verify.{check}.{field}"] = span(f"verify.{check}", field)
    for check in FRONTIER_CHECKS:
        for n in FRONTIER_RANKS:
            values[f"verify.{check}.n{n}.total_s"] = span(f"verify.{check}", "total_s", f"{check}@n{n}")
    for stage in CONDUCTOR_STAGES:
        for field in ("calls", "self_s"):
            values[f"conductor.{stage}.{field}"] = span(f"conductor.{stage}", field)
    fibers = sum(op.fibers for op in ops)
    values["conductor.fibers"] = fibers
    values["conductor.strata"] = sum(op.strata for op in ops)
    values["conductor.validations_per_fiber"] = span("conductor.validate_fiber", "calls") / fibers if fibers else 0.0
    values["conductor.normalizations_per_fiber"] = span("conductor.normalize_fiber", "calls") / fibers if fibers else 0.0
    for n in CYCLES:
        values[f"conductor.normalize_fiber.I{n}.self_s"] = sum(
            span("conductor.normalize_fiber", "self_s", f"{command}:cycle-I{n}") for command in ("conductor", "explain")
        )
    values["modelfile.load_model.calls"] = span("modelfile.load_model", "calls")
    values["modelfile.load_model.self_s"] = span("modelfile.load_model", "self_s")
    values["modelfile.parse_model.self_s"] = span("modelfile.parse_model", "self_s")
    for command in COMMANDS:
        for field in ("calls", "total_s", "self_s"):
            values[f"cli.{command}.{field}"] = span(f"cli.{command}", field)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.self_share"] = sum(row[2] for row in by_name.values()) / traced_wall
    return {name: (values[name], unit) for name, unit, _ in CATALOGUE}
