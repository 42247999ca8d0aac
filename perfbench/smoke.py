"""Smoke test of the benchmark itself.

Checks, for every workload, that a short run emits every metric named in
``BENCHMARK.json`` with its unit (untraced and traced), and that a
deliberately perturbed estimator is counted as failed.  Finally checks that
the benchmark exits non-zero, without a result line, when the program it
measures is absent.  Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    done = _run("--workload", workload, "--seed", "7", "--seconds", SECONDS,
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert math.isfinite(emitted["value"]), (metric, emitted)
        if not trace:
            assert emitted["value"] > 0, (metric, emitted)
        assert f"{metric['name']} " in done.stdout


@contextmanager
def perturbed_plans():
    """Every compiled plan answers 0.1% high; the tape references do not."""
    from repro.core import CompiledDuetModel

    original = CompiledDuetModel.selectivity_from_logits

    def skewed(self, logits, masks):
        return original(self, logits, masks) * 1.001

    CompiledDuetModel.selectivity_from_logits = skewed
    try:
        yield
    finally:
        CompiledDuetModel.selectivity_from_logits = original


def check_perturbed(workload_name: str) -> None:
    import run
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workdir = run.OUT / "smoke-perturbed"
    inputs = workload.prepare(7, float(SECONDS))
    try:
        with perturbed_plans():
            result = run.measure_window(workload, inputs, float(SECONDS), workdir, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check = result["check"]
    assert check.failed > 0, (workload_name, check)


def check_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "census-miss", "--seed", "1", "--seconds", SECONDS,
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done
    assert '"correct"' not in done.stdout, done.stdout


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run._load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace in (0, 1):
            check_metrics(spec, name, trace)
        check_perturbed(name)
        print(f"ok {name}: metrics and units emitted, perturbed estimator failed")
    check_without_program()
    print("ok exits non-zero without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
