"""Golden outputs: the benchmark's outputs digest and two demo digests.

Every record, recovered matrix and demo report is exact, so a change to the
arithmetic that keeps the values must keep these digests bit for bit.
"""

import json
from pathlib import Path

import pytest

from gabrec.cli import OK, main

ROOT = Path(__file__).resolve().parent.parent

# outputs_digest of the fixed first trials, seed 5, untraced
OUTPUTS_DIGESTS = {
    "cyc11-decode": "e188bf8bd6499d6ad960bbcf8816b338b2fc146b37e187788a8a29d0b48d4034",
    "cyc7-tall": "af32def2ef0515dbeb1fb19077224349490569314577c25968b41bf517b07aa9",
    "kummer4-mixed": "2c606292949b8fe7fe04adeaf8c8c222b701accb98e7b62016e3bafe44e45b9c",
}

DEMO_DIGESTS = [
    (["--tower", "kummer:4", "--k", "2", "--rank", "1", "--trials", "20", "--seed", "7"],
     "7712072217cc48cb95e1b0ee696eafc326ed21fdbbee0acd624fd2e6257ed53f"),
    (["--tower", "cyclotomic:7", "--k", "2", "--rank", "3", "--trials", "10", "--seed", "3"],
     "8fc4b56712eb938aa1a577bdd4b0dbda621243aa69a13b247c2900dbfc09455c"),
]


@pytest.mark.parametrize("name", sorted(OUTPUTS_DIGESTS))
def test_benchmark_outputs_digest(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gabrec
    import run

    report = run.run_workload(gabrec, run.WORKLOADS[name], seed=5, seconds=0, trace=False)
    assert report.failed == 0
    notes = dict(report.notes)
    assert notes["outputs_digest"].split()[0] == OUTPUTS_DIGESTS[name]


@pytest.mark.parametrize("args, digest", DEMO_DIGESTS, ids=["kummer4", "cyclotomic7"])
def test_demo_results_digest(tmp_path, args, digest):
    out = tmp_path / "report.json"
    assert main(["demo", *args, "--out", str(out)]) == OK
    assert json.loads(out.read_text())["resultsDigest"] == digest
