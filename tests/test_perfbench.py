"""The benchmark's own self-test, so a library change that breaks its calls
or its metric output fails the suite."""

import json
import subprocess
import sys
from collections import Counter
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
    # The tracer counts L- and K-operators apart: on kummer:4 one K-product
    # is one K_mul, one L-product one L_mul, and the inverse of an L-element
    # one L_inverse plus the one K-inverse of its norm.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gabrec
    import run
    import selftest
    from spans import Tracer

    tower = gabrec.make_tower("kummer", 4)
    a, k = tower.basis[1] + tower.one, tower.scalar_field.basis[1] + 2

    def operators(action):
        tracer = Tracer(gabrec, tower)
        with tracer.active():
            action()
        counts = Counter()
        for (_, op), calls in tracer.calls.items():
            counts[op] += calls
        return dict(counts)

    assert operators(lambda: k * k) == {"K_mul": 1}
    assert operators(lambda: a * a) == {"L_mul": 1}
    assert operators(lambda: a.inverse()) == {"L_inverse": 1, "K_inverse": 1}

    def counters(name):
        small = replace(selftest.WORKLOADS[name], name=f"{name}-small", **selftest.SMALL[name])
        return run.run_workload(gabrec, small, seed=0, seconds=0, trace=True).metrics

    kummer = counters("kummer4-mixed")
    for op in ("L_mul", "theta", "L_inverse", "K_inverse"):
        assert kummer[f"exact_algebra.{op}.calls"] > 0, op
    # the decoder eliminates over L only: no K-product on either tower
    cyclotomic = counters("cyc11-decode")
    for metrics in (kummer, cyclotomic):
        assert metrics["exact_algebra.K_mul.calls"] == 0
        # recover decodes the syndrome as its own preimage: no linear solve
        assert metrics["exact_linalg.solve.calls"] == 0
