"""The benchmark's own self-test, so a library change that breaks its calls
or its metric output fails the suite."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in workloads:
        assert f"{name}: ok" in lines, proc.stdout


def test_traced_operator_counters(monkeypatch):
    # The tracer counts L- and K-operators on two distinct element classes;
    # if they were one class, the K counters would swallow the L counters.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gabrec
    import run
    import selftest

    def counters(name):
        small = replace(selftest.WORKLOADS[name], name=f"{name}-small", **selftest.SMALL[name])
        return run.run_workload(gabrec, small, seed=0, seconds=0, trace=True).metrics

    kummer = counters("kummer4-mixed")
    for op in ("L_mul", "theta", "L_inverse", "K_mul", "K_inverse"):
        assert kummer[f"exact_algebra.{op}.calls"] > 0, op
    cyclotomic = counters("cyc11-decode")
    assert cyclotomic["exact_algebra.K_mul.calls"] == 0
    # recover decodes the syndrome as its own preimage: no linear solve
    for metrics in (kummer, cyclotomic):
        assert metrics["exact_linalg.solve.calls"] == 0
