"""End-to-end command-line behaviour and the exit-code contract."""

import json

from gabrec.cli import (
    OK,
    USAGE_ERROR,
    ExperimentConfig,
    deterministic_view,
    main,
    report_digest,
    run_experiment,
)


def run_demo(tmp_path, *extra):
    out = tmp_path / "report.json"
    args = ["demo", "--trials", "5", "--seed", "7", "--out", str(out), *extra]
    code = main(args)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_demo_within_radius(tmp_path):
    code, report = run_demo(tmp_path)
    assert code == OK
    assert report["withinRadius"] is True
    assert report["summary"] == {
        "trials": 5,
        "decodeSuccesses": 5,
        "recoveredEqual": 5,
        "successRate": 1.0,
        "verificationFailures": 0,
    }
    assert len(report["trials"]) == 5
    assert all(t["recoveredEqual"] for t in report["trials"])


def test_demo_rank_zero(tmp_path):
    code, report = run_demo(tmp_path, "--rank", "0", "--trials", "1")
    assert code == OK
    assert report["summary"]["recoveredEqual"] == 1


def test_demo_adversarial_rank(tmp_path):
    code, report = run_demo(tmp_path, "--rank", "2")
    assert code == OK  # adversarial outcomes are tallied, not failed
    assert report["withinRadius"] is False
    assert report["summary"]["verificationFailures"] == 0


def test_demo_kummer_tower(tmp_path):
    code, report = run_demo(tmp_path, "--tower", "kummer:4", "--trials", "3")
    assert code == OK
    assert report["summary"]["recoveredEqual"] == 3


def test_demo_hundred_trials(tmp_path):
    out = tmp_path / "report.json"
    args = ["demo", "--tower", "cyclotomic:5", "--n", "4", "--k", "2",
            "--rank", "1", "--trials", "100", "--seed", "1", "--height", "10",
            "--out", str(out)]
    assert main(args) == OK
    report = json.loads(out.read_text())
    assert report["summary"]["successRate"] == 1.0


def test_demo_deterministic_reports(tmp_path):
    _, first = run_demo(tmp_path)
    _, second = run_demo(tmp_path)
    assert deterministic_view(first) == deterministic_view(second)
    assert first["resultsDigest"] == second["resultsDigest"]
    assert report_digest(first) == first["resultsDigest"]
    _, other = run_demo(tmp_path, "--seed", "8")
    assert other["resultsDigest"] != first["resultsDigest"]


def test_demo_seed_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("GABREC_SEED", "7")
    assert main(["demo", "--trials", "5", "--out", str(out)]) == OK
    env_report = json.loads(out.read_text())
    _, explicit = run_demo(tmp_path)
    assert env_report["resultsDigest"] == explicit["resultsDigest"]
    monkeypatch.setenv("GABREC_SEED", "not-an-int")
    assert main(["demo", "--trials", "1"]) == USAGE_ERROR


def test_demo_usage_errors(tmp_path):
    assert main(["demo", "--tower", "cyclotomic:6"]) == USAGE_ERROR
    assert main(["demo", "--tower", "nonsense"]) == USAGE_ERROR
    assert main(["demo", "--tower", "kummer:8"]) == USAGE_ERROR  # not a field
    assert main(["demo", "--n", "3"]) == USAGE_ERROR  # pipeline needs n = m
    assert main(["demo", "--trials", "0"]) == USAGE_ERROR
    assert main(["demo", "--rank", "5"]) == USAGE_ERROR
    assert main(["nonsense"]) == USAGE_ERROR


def test_config_roundtrip():
    config = ExperimentConfig("cyclotomic:5", 4, 2, 1, 10, 3, 5, out="x.json")
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert config.within_radius
    assert not ExperimentConfig("cyclotomic:5", 4, 2, 2, 10, 3, 5).within_radius


def test_run_experiment_matches_cli(tmp_path):
    config = ExperimentConfig("cyclotomic:5", 4, 2, 1, 5, 7, 5, out=None)
    report = run_experiment(config)
    assert report["summary"]["recoveredEqual"] == 5
    assert report["config"]["seed"] == 7


def test_weights_command(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("(1,0,0,0) (0,1,0,0) (0,0,1,0) (0,0,0,1)\n")
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["A\t4", "thetaL\t4", "thetaK\t4", "B\t4"]

    vec.write_text("(0,0,0,0) (0,0,0,0)\n")
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["A\t0", "thetaL\t0", "thetaK\t0", "B\t0"]

    vec.write_text("(1,0,0,0) (1,0,0,0) (1,0,0,0)\n")
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["A\t1", "thetaL\t1", "thetaK\t1", "B\t1"]


def test_weights_usage_errors(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("(1,0) (0,1)\n")  # wrong coordinate count for the tower
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == USAGE_ERROR
    vec.write_text("")
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == USAGE_ERROR
    assert main(["weights", str(tmp_path / "missing.txt"), "--tower", "cyclotomic:5"]) == USAGE_ERROR
    assert main(["weights", str(vec)]) == USAGE_ERROR  # --tower is required
    capsys.readouterr()
    # a zero denominator is a usage error, not a traceback
    vec.write_text("(1/0,0,0,0)\n")
    assert main(["weights", str(vec), "--tower", "cyclotomic:5"]) == USAGE_ERROR
    assert "gabrec weights: error:" in capsys.readouterr().err
    vec.write_text("((1/0,0),(0,0),(0,0),(0,0))\n")
    assert main(["weights", str(vec), "--tower", "kummer:4"]) == USAGE_ERROR
    assert "gabrec weights: error:" in capsys.readouterr().err
    # a short coordinate tuple is refused, not padded with zeros
    vec.write_text("((1),(0,0),(0,0),(0,0))\n")
    assert main(["weights", str(vec), "--tower", "kummer:4"]) == USAGE_ERROR
    assert "gabrec weights: error:" in capsys.readouterr().err


def test_approx_exact_copy(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("2 2\n0.5 1.5\n2.5 -0.5\n")
    out = tmp_path / "m.exact.txt"
    assert main(["approx", str(src), "--epsilon", "0.3", "--out", str(out)]) == OK
    captured = capsys.readouterr().out
    assert "frobenius_error 0.000000e+00" in captured
    assert out.read_text() == "2 2\n1/2 3/2\n5/2 -1/2\n"


def test_approx_pi(tmp_path, capsys):
    src = tmp_path / "pi.txt"
    src.write_text("1 1\n3.141592653589793\n")
    assert main(["approx", str(src), "--epsilon", "1e-4"]) == OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "333/106"


def test_approx_complex_requires_tower(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("1 1\n1+2j\n")
    assert main(["approx", str(src), "--epsilon", "1e-6"]) == USAGE_ERROR
    assert main(["approx", str(src), "--epsilon", "1e-6", "--tower", "kummer:4"]) == OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "(1,2)"


def test_approx_usage_errors(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("1 1\nbogus\n")
    assert main(["approx", str(src), "--epsilon", "1e-6"]) == USAGE_ERROR
    src.write_text("2 2\n1.0 2.0\n")
    assert main(["approx", str(src), "--epsilon", "1e-6"]) == USAGE_ERROR
    src.write_text("1 1\n1.0\n")
    assert main(["approx", str(src), "--epsilon", "0"]) == USAGE_ERROR
    assert main(["approx", str(src), "--epsilon", "-1"]) == USAGE_ERROR
    capsys.readouterr()
    src.write_text("1 2\n1/0 2\n")
    assert main(["approx", str(src), "--epsilon", "1e-6"]) == USAGE_ERROR
    assert "gabrec approx: error: bad matrix entry '1/0'" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0
