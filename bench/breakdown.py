"""Per-layer breakdown of a traced pass: what is wrapped and what it yields.

Byte counts are computed from array sizes (packed buffers returned by the
packing functions, tensor shapes), not measured from memory traffic; the
cost model's prediction is computed the same way, so ``bytes_vs_model``
compares two computed quantities.
"""

from __future__ import annotations

from spans import Tracer

ELEM_BYTES = 4

# Span name, unit, better; the trace reports every one on every workload
# (zero where that layer does no work).
PER_LAYER = (
    ("kernel.microkernel_s", "s", "lower"),
    ("kernel.microkernel_calls", "count", "lower"),
    ("kernel.microkernel_gflops", "GFLOP/s", "higher"),
    ("kernel.execute_self_s", "s", "lower"),
    ("packing.input_s", "s", "lower"),
    ("packing.input_calls", "count", "lower"),
    ("packing.input_bytes", "B", "lower"),
    ("packing.input_replication", "ratio", "lower"),
    ("packing.filter_s", "s", "lower"),
    ("packing.filter_calls", "count", "lower"),
    ("packing.filter_bytes", "B", "lower"),
    ("packing.filter_reload", "ratio", "lower"),
    ("kernel.fallback_s", "s", "lower"),
    ("kernel.fallback_calls", "count", "lower"),
    ("regions.count", "count", "lower"),
    ("regions.remainder_mac_frac", "ratio", "lower"),
    ("strategy.model_bytes", "B", "lower"),
    ("packing.bytes_vs_model", "ratio", "lower"),
    ("strategy.analyze_s", "s", "lower"),
    ("regions.plan_s", "s", "lower"),
    ("model.pad_s", "s", "lower"),
    ("model.pad_bytes", "B", "lower"),
    ("engine.self_s", "s", "lower"),
    ("reference.naive_conv_s", "s", "lower"),
    ("reference.naive_conv_calls", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("reference.max_rel_err", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Spans whose self time makes up the layer-share table.
SHARE_SPANS = ("kernel.microkernel", "packing.input", "packing.filter",
               "kernel.fallback", "kernel.execute", "engine",
               "strategy.analyze", "regions.plan", "model.pad",
               "reference.naive_conv", "harness.run_suite")


def _nbytes(result) -> int:
    return getattr(getattr(result, "data", result), "nbytes", 0)


def _on_pack_input(c, args, result):
    c["input_bytes"] += _nbytes(result)


def _on_pack_filter(c, args, result):
    c["filter_bytes"] += _nbytes(result)


def _on_microkernel(c, args, result):
    (k, n_win), (_, n_f) = args[0].shape, args[1].shape
    c["microkernel_flops"] += 2 * k * n_win * n_f


def _on_pad(c, args, result):
    if result is not args[0]:
        c["pad_bytes"] += result.nbytes


def engine_result_hook(sc, mk):
    """Counts from each run_convolution's RunInfo (regions, cost model)."""
    cost_model = getattr(sc, "cost_model", None)
    remainder = sc.RegionKind.Remainder

    def on_engine(c, args, result):
        out, info = result
        p = info.conv.params  # padded problem
        macs_per_point = p.n * p.fh * p.fw
        for r in info.regions:
            macs = macs_per_point * r.spatial_len * r.oc_len * r.ic_len
            c["macs"] += macs
            if r.kind is remainder:
                c["remainder_macs"] += macs
        c["regions"] += len(info.regions)
        c["out_bytes"] += out.nbytes
        c["input_tensor_bytes"] += p.n * p.ic * p.ih * p.iw * ELEM_BYTES
        c["filter_tensor_bytes"] += p.oc * p.ic * p.fh * p.fw * ELEM_BYTES
        if cost_model is not None:
            c["model_bytes"] += cost_model(info.conv, mk, info.strategy)
    return on_engine


def install(tracer: Tracer, sc, mk) -> None:
    """Wrap each layer's functions where their caller looks them up."""
    tracer.patch("slicedconv.engine", "analyze", "strategy.analyze")
    tracer.patch("slicedconv.engine", "plan_regions", "regions.plan")
    tracer.patch("slicedconv.engine", "pad_input", "model.pad", _on_pad)
    tracer.patch("slicedconv.engine", "execute_region", "kernel.execute")
    tracer.patch("slicedconv.engine", "naive_fallback_region", "kernel.fallback")
    tracer.patch("slicedconv.kernel", "pack_input", "packing.input", _on_pack_input)
    tracer.patch("slicedconv.kernel", "pack_filter", "packing.filter", _on_pack_filter)
    tracer.patch("slicedconv.kernel", "microkernel", "kernel.microkernel", _on_microkernel)
    tracer.patch("slicedconv.harness", "run_convolution", "engine",
                 engine_result_hook(sc, mk))
    tracer.patch("slicedconv.harness", "naive_conv", "reference.naive_conv")
    if getattr(sc, "cost_model", None) is None:
        tracer.absent.append("slicedconv.cost_model")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(per-layer metrics, self-time share per span) of one traced pass."""
    stats = tracer.summary()
    c = tracer.counters

    def total(name):
        return stats[name].total_s if name in stats else 0.0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def calls(name):
        return stats[name].calls if name in stats else 0

    micro_s = total("kernel.microkernel")
    m = {
        "kernel.microkernel_s": micro_s,
        "kernel.microkernel_calls": calls("kernel.microkernel"),
        "kernel.microkernel_gflops": _ratio(c["microkernel_flops"] / 1e9, micro_s),
        "kernel.execute_self_s": self_s("kernel.execute"),
        "packing.input_s": total("packing.input"),
        "packing.input_calls": calls("packing.input"),
        "packing.input_bytes": c["input_bytes"],
        "packing.input_replication": _ratio(c["input_bytes"], c["input_tensor_bytes"]),
        "packing.filter_s": total("packing.filter"),
        "packing.filter_calls": calls("packing.filter"),
        "packing.filter_bytes": c["filter_bytes"],
        "packing.filter_reload": _ratio(c["filter_bytes"], c["filter_tensor_bytes"]),
        "kernel.fallback_s": total("kernel.fallback"),
        "kernel.fallback_calls": calls("kernel.fallback"),
        "regions.count": c["regions"],
        "regions.remainder_mac_frac": _ratio(c["remainder_macs"], c["macs"]),
        "strategy.model_bytes": c["model_bytes"],
        "packing.bytes_vs_model": _ratio(
            c["input_bytes"] + c["filter_bytes"] + c["out_bytes"], c["model_bytes"]),
        "strategy.analyze_s": total("strategy.analyze"),
        "regions.plan_s": total("regions.plan"),
        "model.pad_s": total("model.pad"),
        "model.pad_bytes": c["pad_bytes"],
        "engine.self_s": self_s("engine"),
        "reference.naive_conv_s": total("reference.naive_conv"),
        "reference.naive_conv_calls": calls("reference.naive_conv"),
        "harness.self_s": self_s("harness.run_suite"),
    }
    traced = sum(s.self_s for s in stats.values())
    shares = {name: _ratio(self_s(name), traced) for name in SHARE_SPANS}
    return m, shares
