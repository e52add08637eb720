"""Quick self-test of the benchmark, with every workload at minimal size.

    python3 perfbench/selftest.py

Each workload's smallest variant runs its fixed trials once untraced and
once traced, with no time budget beyond them.  The test checks that every
trial was correct, that the result line carries exactly the metric names
and units BENCHMARK.json lists for the mode, that every name is printed,
and that both runs of a seed print the same outputs digest.  It exits 0
when all checks pass and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

# the same tower kind, rank pattern and entry height at the smallest size
SMALL = {
    "cyc11-decode": dict(tower=("cyclotomic", 5), k=2, ranks=(1,), pool=2, fixed=2),
    "cyc7-tall": dict(tower=("cyclotomic", 5), k=2, ranks=(1,), pool=2, fixed=2),
    "kummer4-mixed": dict(pool=3, fixed=3),
}


def check_workload(lib, spec: dict, name: str) -> list[str]:
    small = replace(WORKLOADS[name], name=f"{name}-small", **SMALL[name])
    problems = []
    digests = set()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        lines = run.render(run.run_workload(lib, small, seed=0, seconds=0, trace=trace))
        result = json.loads(lines[-1])
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            problems.append(f"{name} {section}: metrics {got} != {expected}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{name} {section}: result {result}")
        printed = "\n".join(lines[:-1])
        problems += [f"{name} {section}: {m} not printed" for m in expected if f"{m} = " not in printed]
        if trace:  # the traced run prints the untraced end-to-end figures too
            problems += [f"{name}: {m} not printed by the traced run" for m in
                         (x["name"] for x in spec["end_to_end"]) if f"{m}=" not in printed]
        digests.update(line for line in lines if line.startswith("outputs_digest"))
    if len(digests) != 1:
        problems.append(f"{name}: outputs digest differs between runs of one seed: {digests}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    lib = run.load_library()
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        found = check_workload(lib, spec, name)
        print(f"{name}: {'ok' if not found else 'FAIL'}", flush=True)
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
