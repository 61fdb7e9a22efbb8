"""Metric definitions and the statistics behind them.

End-to-end metrics come from an untraced run, per-layer metrics from a
traced one (see spans.py).  Every metric is printed with its unit.
"""

from __future__ import annotations

import statistics

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "certify_p50_s": "s",
    "certify_tail_s": "s",
    "pass_ratio": "ratio",
    "cost_ratio_max": "ratio",
    "bound_use_max": "ratio",
    "peak_rss_mb": "MB",
}

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

# Per-layer metrics, per pass over the op list: (span, fields).  calls,
# self_s and total_s come from the spans; other fields are counts the
# wrappers compute from arguments and results (see spans.COUNTERS).
LAYERS = (
    ("blocks.DiagonalMatrix.norm", ("calls", "entries", "self_s")),
    ("blocks.operator_norm", ("calls", "self_s", "dense_elems")),
    ("blocks.scalar_norm", ("calls", "self_s")),
    ("blocks.spectral", ("self_s",)),
    ("certs.FactorizationCertificate.init", ("calls", "self_s")),
    ("certs.cost", ("calls", "self_s")),
    ("certs.evaluate", ("calls", "self_s")),
    ("certs.verify", ("calls", "self_s", "total_s")),
    ("certs.add", ("calls", "self_s")),
    ("certs.rebalance", ("self_s",)),
    ("certs.pad", ("calls", "self_s")),
    ("certs.conjugate", ("self_s",)),
    ("constructions.pinch", ("calls", "self_s", "bytes")),
    ("constructions.IsometryFamily.validate", ("calls", "self_s")),
    ("constructions.factor_through_family", ("calls", "self_s")),
    ("constructions.projection_isometries", ("self_s",)),
    ("constructions.pinch_certificate", ("self_s",)),
    ("constructions.partition_row_decomposition", ("self_s",)),
    ("constructions.build.length1", ("total_s",)),
    ("constructions.build.lemma5", ("total_s",)),
    ("constructions.build.sub18", ("total_s",)),
    ("constructions.build.sub19", ("total_s",)),
    ("constructions.build.t13", ("total_s",)),
    ("splitting.split_small_l2", ("calls", "self_s")),
    ("pipeline.pinching_pipeline", ("calls", "self_s", "total_s")),
    ("pipeline.assemble_from_approximant", ("calls", "self_s", "total_s")),
    ("pipeline.uniformity_check", ("total_s",)),
    ("serial.encode", ("self_s",)),
    ("serial.decode", ("self_s",)),
    ("serial", ("bytes_out", "bytes_in")),
    ("simhom.cb_lower_bound", ("calls", "total_s")),
    ("cli.gen", ("calls", "total_s")),
    ("cli.factor", ("calls", "total_s")),
    ("cli.verify", ("calls", "total_s")),
    ("cli.uniformity", ("calls", "total_s")),
    ("cli.cb", ("calls", "total_s")),
)
SPAN_FIELDS = ("calls", "self_s", "total_s")
FIELD_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "entries": "count",
    "dense_elems": "count", "bytes": "bytes_computed", "bytes_out": "bytes",
    "bytes_in": "bytes",
}
PER_LAYER = {f"{span}.{field}": FIELD_UNITS[field]
             for span, fields in LAYERS for field in fields}
PER_LAYER.update({
    "certs.inits_per_op": "count/op",
    "blocks.svds_per_op": "count/op",
    "trace.untraced_certs_per_s": "1/s",
    "trace.traced_certs_per_s": "1/s",
    "trace.overhead_share": "ratio",
})


def quantile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value, ops beyond) for the highest ladder percentile
    that has at least MIN_BEYOND ops strictly above it.

    With fewer than 2 * MIN_BEYOND ops no percentile qualifies and the
    median is returned with its (smaller) count beyond.
    """
    best = None
    for p in TAIL_LADDER:
        v = quantile(values, p)
        beyond = sum(1 for t in values if t > v)
        if beyond >= MIN_BEYOND or best is None:
            best = (p, v, beyond)
    return best


def end_to_end(times, failed: int, cost_ratio_max: float, bound_use_max: float,
               setup_times, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    values = {
        "setup_s": statistics.median(setup_times),
        "certs_per_s": (len(times) - failed) / sum(times),
        "certify_p50_s": quantile(times, 50.0),
        "certify_tail_s": tail(times)[1],
        "pass_ratio": (len(times) - failed) / len(times),
        "cost_ratio_max": cost_ratio_max,
        "bound_use_max": bound_use_max,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(agg: dict, counts: dict, passes: int, ops: int, certs_returned: int,
              untraced_rate: float, traced_rate: float) -> dict:
    """The per-layer metrics of a traced run, per pass over the op list."""
    values = {}
    for span, fields in LAYERS:
        for field in fields:
            name = f"{span}.{field}"
            total = (agg.get(span, {}).get(field, 0.0) if field in SPAN_FIELDS
                     else counts.get(name, 0.0))
            values[name] = total / passes
    svds = (counts.get("blocks.DiagonalMatrix.norm.entries", 0.0)
            + agg.get("blocks.operator_norm", {}).get("calls", 0)
            + agg.get("blocks.scalar_norm", {}).get("calls", 0))
    inits = agg.get("certs.FactorizationCertificate.init", {}).get("calls", 0)
    values["certs.inits_per_op"] = inits / max(1, certs_returned)
    values["blocks.svds_per_op"] = svds / max(1, ops)
    values["trace.untraced_certs_per_s"] = untraced_rate
    values["trace.traced_certs_per_s"] = traced_rate
    values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
