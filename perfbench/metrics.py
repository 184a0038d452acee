"""Metric names, units, and the per-layer values of a traced run.

``BENCHMARK.json`` lists the same names and units; a test keeps the two
in step.
"""
from __future__ import annotations

from layers import (BIJECTIONS, ENUMERATORS, LAYERS, OPERATOR_SPANS, WEIGHT_SPANS,
                    layer_of)
from snake_atlas.verify import CHECKS, CheckReport

END_TO_END = (("setup_s", "s"), ("run_ref", "ref"), ("peak_rss_mb", "MB"))

IS_MEMBER_CALLS = "permutations.is_member.calls"


def per_layer_specs() -> list[tuple[str, str]]:
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    specs.append(("bench.self_s", "s"))
    specs += [(f"verify.{cid}.s", "s") for cid in sorted(CHECKS)]
    for span, counter in ENUMERATORS.items():
        specs += [(f"{span}.s", "s"), (counter, "count"),
                  (f"{layer_of(span)}.peak_mb", "MB")]
    specs.append((IS_MEMBER_CALLS, "count"))
    for name, (layer, _, _) in BIJECTIONS.items():
        specs += [(f"{layer}.{name}.{d}.us_per_call", "us") for d in ("forward", "inverse")]
    specs += [("qcalculus.weights.us_per_object", "us"),
              ("qcalculus.objects_weighted", "count"),
              ("qcalculus.operator.s", "s"), ("trace.overhead_s", "s")]
    return specs


def per_layer_values(tracer, memory_tracer, untraced_outputs, untraced_s: float,
                     traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced pass (``tracer``), the memory
    pass (``memory_tracer``) and the untraced pass (its outputs, whose
    check reports give the per-check times, and its wall time)."""
    rows = tracer.by_name()

    def total(names) -> float:
        return sum(rows[n]["total_s"] for n in names if n in rows)

    def calls(names) -> int:
        return sum(rows[n]["calls"] for n in names if n in rows)

    def us_per_call(names) -> float:
        count = calls(names)
        return total(names) / count * 1e6 if count else 0.0

    values = {}
    for layer in LAYERS + ("bench",):
        mine = [r for n, r in rows.items() if layer_of(n) == layer]
        values[f"{layer}.self_s"] = sum(r["self_s"] for r in mine)
        values[f"{layer}.calls"] = sum(r["calls"] for r in mine)
    elapsed = {r.check_id: r.elapsed for r in untraced_outputs
               if isinstance(r, CheckReport)}
    for cid in sorted(CHECKS):
        values[f"verify.{cid}.s"] = elapsed.get(cid, 0.0)
    for span, counter in ENUMERATORS.items():
        values[f"{span}.s"] = total([span])
        values[counter] = tracer.counts[counter]
        values[f"{layer_of(span)}.peak_mb"] = memory_tracer.peaks.get(span, 0) / 2**20
    values[IS_MEMBER_CALLS] = tracer.counts[IS_MEMBER_CALLS]
    for name, (layer, fwd, inv) in BIJECTIONS.items():
        values[f"{layer}.{name}.forward.us_per_call"] = us_per_call([f"{layer}.{fwd}"])
        values[f"{layer}.{name}.inverse.us_per_call"] = us_per_call([f"{layer}.{inv}"])
    values["qcalculus.weights.us_per_object"] = us_per_call(WEIGHT_SPANS)
    values["qcalculus.objects_weighted"] = calls(WEIGHT_SPANS)
    values["qcalculus.operator.s"] = total(OPERATOR_SPANS)
    values["trace.overhead_s"] = traced_s - untraced_s
    return values
