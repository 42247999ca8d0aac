"""Run one workload of the repo benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload census-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the program up several times (``setup_s`` is their
median) and measures the end-to-end metrics of one untraced window.
``--trace 1`` measures an untraced window and then a traced one of half the
length each, on fresh set-ups, and reports the per-layer metrics of the
traced one plus the tracing overhead between the two.  The metric names and
units come from ``BENCHMARK.json``.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(run conditions, percentile sample counts, self-time ranking) and the span
file of a traced run are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from layers import forward_counts, per_layer_metrics, self_time_report
from spans import SpanAnalysis, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    sys.path.insert(0, str(ROOT / "src"))


def blas_conditions() -> dict:
    """The BLAS library NumPy uses and its thread count (read, never set)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "blas" in line.split()[-1].lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = int(function())
                break
        if threads is not None:
            break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def run_conditions(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **blas_conditions(), "numpy": np.__version__,
            "python": platform.python_version(), "seed": seed}


def timing_summary(samples) -> dict:
    """Median and the highest percentile (at most p99) with >= 10 samples beyond."""
    count = len(samples)
    if count == 0:
        return {"count": 0, "p50": float("nan"), "tail": float("nan"),
                "tail_percentile": None}
    tail = min(0.99, max(0.5, 1.0 - 10.0 / count))
    return {"count": count, "p50": float(np.median(samples)),
            "tail": float(np.quantile(samples, tail)),
            "tail_percentile": round(100 * tail, 2)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------

def measure_window(workload, inputs: dict, seconds: float, workdir: Path,
                   repeats: int) -> dict:
    """Set up ``repeats`` times, run one window on the last set-up, check it."""
    setups = []
    instance = None
    for attempt in range(repeats):
        if instance is not None:
            workload.close(instance)
            # The service and its metric callbacks form reference cycles;
            # collect them so each set-up starts from the same heap.
            instance = None
            gc.collect()
        began = time.perf_counter()
        instance = workload.setup(inputs, _fresh(workdir / f"setup{attempt}"))
        setups.append(time.perf_counter() - began)
    try:
        window = workload.run(instance, inputs, seconds)
        check = workload.check(instance, inputs, window)
        service = workload.service(instance)
        # The runner exposes its compiled plan for exactly this kind of
        # inspection; the counts come from the plan that served the window.
        plan = service._timed_runner.compiled.made_plan
        counts = forward_counts(plan, service.config.max_batch_size)
    finally:
        workload.close(instance)
    return {"setups": setups, "window": window, "check": check,
            "forward_counts": counts}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def subwindow_summary(window, count: int, per_call: int) -> dict:
    """Throughput and latency per sub-window, and their medians.

    The window is cut into ``count`` equal sub-windows by operation start
    time.  Reporting the median sub-window keeps one disturbed stretch (a
    co-tenant burst, a collector pause) from moving the run's figures.
    """
    edges = window.started + np.arange(count + 1) * (window.elapsed / count)
    edges[-1] = window.stopped
    rows = []
    for low, high in zip(edges[:-1], edges[1:]):
        inside = (window.starts >= low) & (window.starts < high)
        latency = timing_summary(window.latencies[inside])
        rows.append({"throughput": np.count_nonzero(inside) * per_call / (high - low),
                     "p90": float(np.quantile(window.latencies[inside], 0.9)),
                     **latency})
    return {
        "throughput": statistics.median(row["throughput"] for row in rows),
        "p50": statistics.median(row["p50"] for row in rows),
        "p90": statistics.median(row["p90"] for row in rows),
        "tail": statistics.median(row["tail"] for row in rows),
        "samples_per_subwindow": [row["count"] for row in rows],
        "tail_percentile": min(row["tail_percentile"] or 0 for row in rows),
    }


def end_to_end(result: dict, workload) -> dict:
    window = result["window"]
    summary = subwindow_summary(window, workload.subwindows, workload.per_call)
    return {
        "latency_p50_ms": summary["p50"] * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(result["setups"]),
    }


def details(result: dict, workload) -> dict:
    """Everything the report keeps beyond the JSON metrics."""
    window, check = result["window"], result["check"]
    summary = subwindow_summary(window, workload.subwindows, workload.per_call)
    out = {
        "setups_s": result["setups"],
        "window_s": window.elapsed,
        "operations": len(window.served),
        "throughput_qps": summary["throughput"],
        "latency_samples_per_subwindow": summary["samples_per_subwindow"],
        "latency_p90_ms": summary["p90"] * 1e3,
        "latency_p99_ms": summary["tail"] * 1e3,
        "latency_tail_percentile": summary["tail_percentile"],
        "hit_share": window.hits / window.requests if window.requests else 0.0,
        "inputs_exhausted": window.exhausted,
        "attempted": check.attempted,
        "failed": check.failed,
        "error_rate": check.failed / max(check.attempted, 1),
        "qerror_samples": int(len(check.qerrors)),
        "qerror_p50": float(np.median(check.qerrors))
        if len(check.qerrors) else float("nan"),
        "qerror_p99": float(np.quantile(check.qerrors, 0.99))
        if len(check.qerrors) else float("nan"),
        **check.notes,
    }
    refreshes = window.extra.get("refresh_seconds")
    if refreshes is not None:
        out["refresh_s"] = statistics.median(refreshes) if refreshes else float("nan")
        out["refresh_samples"] = len(refreshes)
        out["tunes"] = window.extra["tunes"]
    return out


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()

    from workloads import WORKLOADS  # imports the program from src/

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    report = {"workload": args.workload, "conditions": run_conditions(args.seed),
              "seconds": args.seconds, "trace": args.trace}
    try:
        inputs = workload.prepare(args.seed, args.seconds)
        if not args.trace:
            result = measure_window(workload, inputs, args.seconds, workdir,
                                    SETUP_REPEATS)
            values = end_to_end(result, workload)
            wanted = spec["end_to_end"]
            checks = [result["check"]]
            report["details"] = details(result, workload)
        else:
            half = args.seconds / 2
            plain = measure_window(workload, inputs, half, workdir / "plain", 1)
            recorder = SpanRecorder()
            with recorder:
                traced = measure_window(workload, inputs, half, workdir / "traced", 1)
            window = traced["window"]
            analysis = SpanAnalysis(recorder, (window.started, window.stopped))
            values = per_layer_metrics(analysis, plain, traced)
            wanted = spec["per_layer"]
            checks = [plain["check"], traced["check"]]
            report["details"] = {"untraced": details(plain, workload),
                                 "traced": details(traced, workload)}
            report["self_time"] = self_time_report(analysis, args.workload)
            OUT.mkdir(exist_ok=True)
            recorder.write(OUT / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
               for metric in wanted}
    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    report.update(metrics=metrics, attempted=attempted, failed=failed)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2, default=str))

    _print_report(report)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_report(report: dict) -> None:
    print(f"# workload {report['workload']}  seconds {report['seconds']}  "
          f"trace {report['trace']}")
    print("# conditions " + " ".join(f"{key}={value}" for key, value
                                     in report["conditions"].items()))
    details = report["details"]
    for section, values in (details.items() if report["trace"]
                            else [("untraced", details)]):
        print(f"# {section}: " + " ".join(
            f"{key}={_short(value)}" for key, value in values.items()))
    for row in report.get("self_time", {}).get("requests", []):
        print(f"# self time per request  {row['layer']:<24} "
              f"{row['us_per_request']:10.1f} us  {100 * row['share']:5.1f}%")
    for row in report.get("self_time", {}).get("writer", []):
        print(f"# self time of writes    {row['layer']:<24} "
              f"{row['seconds'] * 1e3:10.1f} ms  {100 * row['share']:5.1f}%")
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def _short(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ",".join(str(_short(item)) for item in value) + "]"
    return value


if __name__ == "__main__":
    sys.exit(main())
