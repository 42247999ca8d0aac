"""Per-layer metrics of a traced run, and the self-time ranking.

Each layer metric is named after the module it measures, and the comment
beside it names the end-to-end metric it should move and on which workload.
Means are taken over every call in the traced run (set-up included, so the
set-up layers are measured too); counts and ratios over the timed window,
except ``trainer.steps``, which counts every optimiser step of the run.
"""

from __future__ import annotations

import numpy as np

from spans import REQUEST_ROOTS, SpanAnalysis

US, MS, S = 1e6, 1e3, 1.0

#: roots of the churn writer's call chains
WRITER_ROOTS = ("store.snapshot", "store.append", "store.delete", "lifecycle.poll")

#: what the source measurements (2-core box, before this benchmark existed)
#: put on top of each request's self time; the report compares against it
EXPECTED_TOP = {
    "census-miss": ("batcher.queue_wait", "encoding.translate"),
    "census-hot": ("cache.key", "cache.get"),
    "dmv-batch": ("compiled.forward", "compiled.mask"),
}


def forward_counts(plan, batch: int) -> tuple[float, float]:
    """Computed (not measured) cost of one lowered MADE forward pass.

    MFLOP per query: ``2 * in * out`` multiply-adds plus one add per bias
    element, summed over the plan's stages.  MB per batch: every weight and
    bias read once, plus each stage's input read and output written for
    ``batch`` rows, in the plan's dtype.
    """
    itemsize = np.dtype(plan.dtype).itemsize
    flops = 0
    moved = 0
    for stage in plan.stages:
        width_in, width_out = stage.in_features, stage.out_features
        bias = 0 if stage.bias is None else width_out
        flops += 2 * width_in * width_out + bias
        moved += (width_in * width_out + bias + batch * (width_in + width_out)) * itemsize
    return flops / 1e6, moved / 1e6


def _throughput(result: dict) -> float:
    window = result["window"]
    return len(window.served) / window.elapsed


def per_layer_metrics(analysis: SpanAnalysis, plain: dict, traced: dict) -> dict:
    a = analysis
    roots = a.roots
    gets = a.in_window("cache.get")
    waits = a.in_window("batcher.wait")
    start, stop = a.window
    links = [link for link in a.links if link[2] is not None
             and start <= link[1] < stop]
    pass_sizes = {link[2]: link[3] for link in links}
    translates = a.by_name["encoding.translate"]
    translated = sum(span[7] or 0 for span in translates)
    cold_trains = [span for span in a.by_name["trainer.train"]
                   if span[4] is None or a.spans[span[4]][1] != "trainer.fine_tune"]
    mflop, megabytes = traced["forward_counts"]
    return {
        # serving.service -> latency_p50_ms on census-hot
        "service.self_us": float(np.mean([a.self_time[span[0]] for span in roots]))
        * US if roots else 0.0,
        # serving.cache -> latency_p50_ms, throughput_qps on census-hot
        "cache.key_us": a.mean_duration("cache.key", US),
        "cache.get_us": a.mean_duration("cache.get", US),
        "cache.put_us": a.mean_duration("cache.put", US),
        "cache.hit_ratio": sum(1 for span in gets if span[7] is True) / len(gets)
        if gets else 0.0,
        # serving.batcher -> latency_p50_ms, throughput_qps on census-miss
        "batcher.queue_wait_us": float(np.mean(
            [a.spans[link[2]][2] - link[1] for link in links])) * US if links else 0.0,
        "batcher.batch_size_mean": float(np.mean(list(pass_sizes.values())))
        if pass_sizes else 0.0,
        "batcher.passes": len(pass_sizes),
        "batcher.errors": sum(1 for span in waits if span[7] is True),
        # core.encoding -> latency_p50_ms on census-miss, throughput on dmv-batch
        "encoding.translate_us": a.mean_duration("encoding.translate", US),
        "encoding.translate_us_per_query":
            sum(span[3] - span[2] for span in translates) / translated * US
            if translated else 0.0,
        # core.compiled / nn.inference -> throughput_qps on dmv-batch
        "compiled.encode_us": a.mean_duration("compiled.encode", US),
        "compiled.forward_us": a.mean_duration("compiled.forward", US),
        "compiled.mask_us": a.mean_duration("compiled.mask", US),
        "compiled.build_ms": a.mean_duration("compiled.build", MS),
        "compiled.forward_mflop_per_query": mflop,
        "compiled.forward_mb_per_batch": megabytes,
        # data.store -> refresh_s and latency_p99_ms on census-churn
        "store.append_ms": a.mean_duration("store.append", MS),
        "store.delete_ms": a.mean_duration("store.delete", MS),
        "store.snapshot_ms": a.mean_duration("store.snapshot", MS),
        "store.delta_ms": a.mean_duration("store.delta", MS),
        # workload.executor -> refresh_s on census-churn; setup_s
        "executor.label_ms": a.mean_duration("executor.label", MS),
        "executor.label_delta_ms": a.mean_duration("executor.label_delta", MS),
        # core.trainer -> setup_s on census-*; refresh_s on census-churn
        "trainer.train_s": a.mean_duration("trainer.train", S, cold_trains),
        "trainer.fine_tune_s": a.mean_duration("trainer.fine_tune", S),
        "trainer.steps": len(a.by_name["trainer.step"]),
        # serving.registry -> refresh_s on census-churn
        "registry.save_ms": a.mean_duration("registry.save", MS),
        # lifecycle -> refresh_s on census-churn
        "lifecycle.poll_ms": a.mean_duration("lifecycle.poll", MS),
        "lifecycle.refresh_s": a.median_duration("service.refresh", S),
        "lifecycle.tunes": a.count("service.refresh", note=True),
        "lifecycle.canary_rejects": a.count("shadow.evaluate", note=False),
        "shadow.eval_ms": a.mean_duration("shadow.evaluate", MS),
        # the tracing itself
        "trace.overhead_pct": 100.0 * (_throughput(plain) / _throughput(traced) - 1.0),
        "trace.uncovered_share": a.uncovered_share(),
    }


def self_time_report(analysis: SpanAnalysis, workload: str) -> dict:
    """Per-request ranking (and the churn writer's), against the expectation."""
    requests = analysis.ranking()
    for row in requests:
        if row["layer"] in REQUEST_ROOTS:
            row["layer"] = "service.self"
    report = {"requests": requests}
    if workload == "census-churn":
        report["writer"] = analysis.writer_ranking(WRITER_ROOTS)
    expected = EXPECTED_TOP.get(workload)
    if expected is not None:
        top = [row["layer"] for row in requests[:len(expected)]]
        report["expected_top"] = list(expected)
        report["observed_top"] = top
        report["agrees"] = set(top) == set(expected)
    return report
