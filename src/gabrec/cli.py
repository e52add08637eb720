"""Command-line harness: recovery experiments, weight tables, approximation.

Exit codes are a stable contract: 0 on success, 1 for usage or input
errors, 2 when a verification property fails.  Reports are JSON; rerunning
with the same seed reproduces every result field byte for byte (per-trial
wall times are the one caveat, see ``deterministic_view``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .exact_algebra import QQ, tower_from_spec
from .exact_linalg import _read_matrix_text, format_matrix, rank
from .gabidulin import build_code
from .lrmr import (
    approximate_complex,
    approximate_real,
    frobenius_error_sq,
    measure,
    random_low_rank,
    recover,
)
from .rank_metric import WEIGHT_KINDS, rank_weight

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "deterministic_view",
    "report_digest",
    "build_parser",
    "main",
]

OK, USAGE_ERROR, VERIFICATION_FAILURE = 0, 1, 2


@dataclass(frozen=True)
class ExperimentConfig:
    tower: str
    n: int
    k: int
    planted_rank: int
    trials: int
    seed: int
    height_bound: int

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def within_radius(self) -> bool:
        return self.planted_rank <= (self.n - self.k) // 2


def run_experiment(config: ExperimentConfig) -> dict:
    """Measure-and-recover trials under one seeded generator; returns the report."""
    tower = tower_from_spec(config.tower)
    if config.trials < 1:
        raise ValueError("need at least one trial")
    code = build_code(tower, config.n, config.k)
    rng = random.Random(config.seed)
    trials = []
    decode_successes = 0
    recovered_equal = 0
    verification_failures = 0
    for index in range(config.trials):
        start = time.perf_counter()
        matrix = random_low_rank(
            tower.m,
            code.n,
            config.planted_rank,
            config.height_bound,
            rng=rng,
            field=tower.scalar_field,
        )
        record = measure(code, matrix)
        result = recover(code, record)
        success = result is not None
        equal = success and result == matrix
        valid = True
        if success and not equal:
            # adversarial outcomes must still explain the measurement within radius
            valid = (
                measure(code, result).y == record.y
                and rank(result) <= code.radius
            )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        decode_successes += success
        recovered_equal += equal
        verification_failures += not valid
        trials.append(
            {
                "index": index,
                "plantedRank": config.planted_rank,
                "decodeSuccess": success,
                "recoveredEqual": equal,
                "wallTimeMs": round(elapsed_ms, 3),
            }
        )
    report = {
        "config": config.to_dict(),
        "withinRadius": config.within_radius,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "trials": trials,
        "summary": {
            "trials": config.trials,
            "decodeSuccesses": decode_successes,
            "recoveredEqual": recovered_equal,
            "successRate": recovered_equal / config.trials,
            "verificationFailures": verification_failures,
        },
    }
    report["resultsDigest"] = report_digest(report)
    return report


def deterministic_view(report: dict) -> dict:
    """The report minus wall times and host facts."""
    view = {
        "config": report["config"],
        "withinRadius": report["withinRadius"],
        "trials": [
            {key: value for key, value in trial.items() if key != "wallTimeMs"}
            for trial in report["trials"]
        ],
        "summary": report["summary"],
    }
    return view


def report_digest(report: dict) -> str:
    canonical = json.dumps(deterministic_view(report), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # verification failures, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gabrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run seeded measure/recover trials")
    demo.add_argument("--tower", default="cyclotomic:5", help="cyclotomic:p or kummer:n")
    demo.add_argument("--k", type=int, default=2, help="code dimension")
    demo.add_argument("--rank", type=int, default=1, help="planted rank per trial")
    demo.add_argument("--trials", type=int, default=20)
    demo.add_argument("--seed", type=int, default=0, help="RNG seed")
    demo.add_argument("--height", type=int, default=5, help="entry bound for factors")
    demo.add_argument("--out", default=None, help="report path (default: stdout)")

    weights = sub.add_parser("weights", help="rank weights of a vector over L")
    weights.add_argument("vector", help="file of whitespace-separated elements")
    weights.add_argument("--tower", required=True, help="cyclotomic:p or kummer:n")

    approx = sub.add_parser("approx", help="exact approximation of a float matrix")
    approx.add_argument("matrix", help="file: 'm n' header then decimal/complex rows")
    approx.add_argument("--epsilon", type=float, required=True, help="Frobenius bound")
    approx.add_argument("--tower", default=None,
                        help="kummer:n (needed for complex input) or cyclotomic:p (rationals)")
    approx.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _cmd_demo(args) -> int:
    # demo runs every code at full length n = m, the tower's degree
    config = ExperimentConfig(
        tower=args.tower,
        n=tower_from_spec(args.tower).m,
        k=args.k,
        planted_rank=args.rank,
        trials=args.trials,
        seed=args.seed,
        height_bound=args.height,
    )
    report = run_experiment(config)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        summary = report["summary"]
        print(
            f"wrote {args.out}: {summary['recoveredEqual']}/{summary['trials']} "
            f"recovered exactly (within radius: {report['withinRadius']})"
        )
    else:
        sys.stdout.write(text)
    if report["summary"]["verificationFailures"]:
        print("verification failure: a reported success violates its contract",
              file=sys.stderr)
        return VERIFICATION_FAILURE
    if report["withinRadius"] and report["summary"]["recoveredEqual"] != config.trials:
        print("verification failure: a within-radius trial did not recover exactly",
              file=sys.stderr)
        return VERIFICATION_FAILURE
    return OK


def _cmd_weights(args) -> int:
    tower = tower_from_spec(args.tower)
    with open(args.vector) as handle:
        tokens = handle.read().split()
    if not tokens:
        raise ValueError(f"no elements found in {args.vector}")
    vector = [tower.from_text(token) for token in tokens]
    values = {kind: rank_weight(tower, vector, kind) for kind in WEIGHT_KINDS}
    for kind in WEIGHT_KINDS:
        print(f"{kind}\t{values[kind]}")
    chain_holds = (
        values["A"] == values["thetaL"]
        and values["thetaL"] <= values["thetaK"]
        and values["thetaK"] == values["B"]
    )
    if not chain_holds:
        print("verification failure: weight chain violated", file=sys.stderr)
        return VERIFICATION_FAILURE
    return OK


def _parse_float_matrix(text: str):
    _, tokens = _read_matrix_text(text)
    is_complex = any("j" in token or "J" in token for row in tokens for token in row)

    def entry(token):
        try:
            return complex(token) if is_complex else QQ.from_text(token)
        except ValueError:
            raise ValueError(f"bad matrix entry {token!r}") from None

    return [[entry(token) for token in row] for row in tokens], is_complex


def _cmd_approx(args) -> int:
    if args.epsilon <= 0:
        raise ValueError("epsilon must be positive")
    with open(args.matrix) as handle:
        rows, is_complex = _parse_float_matrix(handle.read())
    # --tower names the base field: Q for a cyclotomic tower, Q(zeta_n) for Kummer
    tower = tower_from_spec(args.tower) if args.tower else None
    if tower is not None and tower.scalar_field != QQ:
        result = approximate_complex(rows, args.epsilon, tower)
    elif is_complex:
        raise ValueError("complex input needs --tower kummer:n (with 4 | n)")
    else:
        result = approximate_real(rows, args.epsilon)
    error_sq = frobenius_error_sq(result, rows)
    achieved = float(error_sq) ** 0.5
    text = format_matrix(result)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
        print(f"frobenius_error {achieved:.6e}")
    else:
        sys.stdout.write(text)
        print(f"frobenius_error {achieved:.6e}", file=sys.stderr)
    if not error_sq < Fraction(args.epsilon) ** 2:
        print("verification failure: Frobenius bound missed", file=sys.stderr)
        return VERIFICATION_FAILURE
    return OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {"demo": _cmd_demo, "weights": _cmd_weights, "approx": _cmd_approx}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"gabrec {args.command}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
