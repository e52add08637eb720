"""Benchmark of the gabrec measure/recover pipeline.

    python3 perfbench/run.py --workload cyc11-decode --seed 1 --seconds 30 --trace 0

Each workload runs in one process and one thread as a closed loop: the
next trial starts only after the previous one has been checked.  A trial
sets up tower and code, then measures a planted matrix, recovers it from
the measurement record and checks the result exactly.  The instances are
generated from the seed (workloads.py) before timing starts.  A run takes
them in order until ``--seconds`` have gone by, and always completes the
workload's fixed first trials, which the outputs digest covers.

Times are scaled to a fixed host speed.  Between trials the benchmark
times bursts of a reference: its own exact elimination of a fixed matrix
drawn like the workload's inputs, which does not use the library.  A
trial's times are multiplied by the workload's ``reference_ms`` over the
mean elimination time of the bursts on either side of it.  On a shared
2-vCPU x86-64 VM the same Python loop ran in 8 ms or in 15 ms, in
stretches of 10 to 60 seconds, so wall-clock medians of 30-second runs
differed by up to 40%; scaled, they agreed within a few percent.  The
unscaled figures are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs every trial twice, untraced and then traced, and reports the
per-layer metrics from the spans and operator counters of spans.py; the
spans are written to ``perfbench/traces/``.  Standard output lists the
host, every metric by name and unit and the outputs digest; its last line
is the JSON result.  The library is imported from ``src/`` next to this
directory; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer
from workloads import (WORKLOADS, Instance, Workload, coord_rank, entry_text, make_pool,
                       parse_entry, reference_grid)

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "traces"
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

# reference bursts between trials fill about this share of a run
REFERENCE_SHARE = 0.1
REFERENCE_MIN_LOOPS = 3

END_TO_END = {
    "setup_s": "s",
    "recover_ms.p50": "ms",
    "recover_ms.tail": "ms",
    "measure_ms.p50": "ms",
    "roundtrips_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per recover call unless the name says otherwise
PER_LAYER = {
    "exact_algebra.L_mul.calls": "count",
    "exact_algebra.L_mul.ms": "ms",
    "exact_algebra.theta.calls": "count",
    "exact_algebra.theta.ms": "ms",
    "exact_algebra.L_inverse.calls": "count",
    "exact_algebra.L_inverse.ms": "ms",
    "exact_algebra.K_mul.calls": "count",
    "exact_algebra.K_mul.ms": "ms",
    "exact_algebra.K_inverse.calls": "count",
    "exact_linalg.right_kernel.calls": "count",
    "exact_linalg.right_kernel.ms": "ms",
    "exact_linalg.solve.calls": "count",
    "exact_linalg.solve.ms": "ms",
    "exact_linalg.kernel_max_bits": "bits",
    "exact_linalg.input_max_bits": "bits",
    "skew_poly.left_divide.ms": "ms",
    "gabidulin.encode.ms": "ms",
    "rank_metric.rank_weight.ms": "ms",
    "gabidulin.syndrome_decode.ms": "ms",
    "gabidulin.wb_decode.ms": "ms",
    "lrmr.recover.ms": "ms",
    "lrmr.recover.self_ms": "ms",
    "gabidulin.decode_failure_share": "ratio",
    "gabidulin.build_code.ms": "ms",  # per build_code call
    "lrmr.measure.ms": "ms",  # per measure call
    "rank_metric.ext_inv.ms": "ms",  # per measure call
    "trace_overhead_ratio": "ratio",
}


@dataclass
class Trial:
    record: object
    result: object  # recovered Matrix, or None when the decoder gave up
    ok: bool
    times: tuple[float, float, float]  # measure, recover and the whole round trip, in ms


@dataclass
class Report:
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # (label, text) lines printed before the result


def load_library():
    src = ROOT / "src"
    if not (src / "gabrec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gabrec sources under {src}")
    sys.path.insert(0, str(src))
    import gabrec

    return gabrec


def set_up(lib, wl: Workload):
    """Build tower and code; returns the code and the time taken in s."""
    t0 = perf_counter()
    code = lib.build_code(lib.make_tower(*wl.tower), wl.m, wl.k)
    return code, perf_counter() - t0


def to_matrix(lib, field_, inst: Instance):
    return lib.Matrix(field_, [[field_.from_text(entry_text(x)) for x in row] for row in inst.coords])


def coords_of(matrix) -> tuple:
    return tuple(tuple(parse_entry(matrix.field.to_text(v)) for v in row) for row in matrix.entries)


def is_correct(lib, code, inst: Instance, record, result) -> bool:
    if inst.rank <= code.radius:
        return result is not None and coords_of(result) == inst.coords
    if result is None:
        return True  # the decoder reports an error beyond its radius
    # a success beyond the radius must reproduce the measurement with rank <= t
    to_text = code.tower.scalar_field.to_text
    again = lib.measure(code, result)
    return coord_rank(coords_of(result)) <= code.radius and [to_text(v) for v in again.y] == [
        to_text(v) for v in record.y
    ]


def round_trip(lib, code, inst: Instance, matrix) -> Trial:
    t0 = perf_counter_ns()
    record = lib.measure(code, matrix)
    t1 = perf_counter_ns()
    result = lib.recover(code, record)
    t2 = perf_counter_ns()
    ok = is_correct(lib, code, inst, record, result)
    t3 = perf_counter_ns()
    return Trial(record, result, ok, ((t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t0) / 1e6))


def attempt(lib, code, inst: Instance, matrix) -> Trial | None:
    try:
        return round_trip(lib, code, inst, matrix)
    except Exception:  # a trial that raises counts as failed and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None


def output_text(lib, field_, trial: Trial | None) -> str:
    if trial is None:
        return "exception\n"
    record = json.dumps(lib.record_to_json(trial.record, field_), sort_keys=True)
    result = "None\n" if trial.result is None else lib.format_matrix(trial.result)
    return record + "\n" + result


def max_bits(matrix) -> int:
    """Largest numerator or denominator bit length among the entries."""
    return max(
        (int(d).bit_length() for row in matrix.entries for v in row
         for d in re.findall(r"\d+", matrix.field.to_text(v))),
        default=0,
    )


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile.

    With too few samples for any such percentile the maximum stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def host_facts() -> str:
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"platform={platform.platform()}")


def reference_ms(grid, loops: int) -> float:
    """Mean wall time of one reference elimination over a burst of ``loops``."""
    t0 = perf_counter_ns()
    for _ in range(loops):
        coord_rank(grid)
    return (perf_counter_ns() - t0) / loops / 1e6


def run_workload(lib, wl: Workload, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(trace)
    code, _ = set_up(lib, wl)  # fills the library's caches; later set-ups are timed
    field_ = code.tower.scalar_field
    tracer = Tracer(lib, code.tower) if trace else None
    pool = [(inst, to_matrix(lib, field_, inst)) for inst in make_pool(wl, seed)]
    size = len(pool)
    grid = reference_grid(wl)
    # trial i runs between reference bursts i and i + 1
    refs = [reference_ms(grid, REFERENCE_MIN_LOOPS)]
    plain: list[tuple | None] = []  # (set-up s, measure ms, recover ms, round trip ms) per trial
    traced_ms: list[float] = []  # recover ms of the traced twin of each plain trial
    declined = 0
    digest = hashlib.sha256()
    kernel_bits = input_bits = 0
    deadline = perf_counter() + seconds
    i = 0
    while i < wl.fixed or perf_counter() < deadline:
        inst, matrix = pool[i % size]
        started = perf_counter()
        setup_s = set_up(lib, wl)[1]
        trial = attempt(lib, code, inst, matrix)
        plain.append(None if trial is None or not trial.ok else (setup_s, *trial.times))
        if i < wl.fixed:
            digest.update(output_text(lib, field_, trial).encode())
        if tracer:
            with tracer.active():
                set_up(lib, wl)
                twin = attempt(lib, code, inst, matrix)
            report.attempted += 1
            if twin is None or not twin.ok:
                report.failed += 1
            else:
                traced_ms.append(twin.times[1])
                declined += twin.result is None
            if i < wl.fixed:
                for parent, matrix_in, kernel in tracer.kernels:
                    if tracer.parent_name(parent) == "gabidulin.wb_decode":
                        kernel_bits = max(kernel_bits, max_bits(kernel))
                        input_bits = max(input_bits, max_bits(matrix_in))
            tracer.kernels.clear()
        loops = REFERENCE_SHARE * (perf_counter() - started) * 1e3 / refs[-1]
        refs.append(reference_ms(grid, max(REFERENCE_MIN_LOOPS, round(loops))))
        i += 1
    report.attempted += len(plain)
    report.failed += plain.count(None)

    report.notes.append(("host", host_facts()))
    report.notes.append(("run", f"workload={wl.name} seed={seed} seconds={seconds} "
                                f"trace={int(trace)} trials={i} pool={size}"))
    report.notes.append(("outputs_digest", f"{digest.hexdigest()} (first {wl.fixed} trials)"))
    report.notes.append(("failed_share", f"{report.failed / report.attempted} "
                                         f"({report.failed} of {report.attempted})"))
    report.notes.append(("reference", f"median {statistics.median(refs):.4f} ms per elimination "
                                      f"over {len(refs)} bursts"))
    wall = [times for times in plain if times]
    if not wall or (tracer and not traced_ms):
        return report
    scaled = [
        [t * 2 * wl.reference_ms / (refs[k] + refs[k + 1]) for t in times]
        for k, times in enumerate(plain) if times
    ]
    end_to_end = end_to_end_metrics(scaled)
    percentile = tail([t[2] for t in scaled])[1]
    report.notes.append(("recover_ms.tail", f"p{percentile:.1f} of n={len(scaled)} trials"))
    report.notes.append(("unscaled", ", ".join(
        f"{name}={value:.6g}" for name, value in end_to_end_metrics(wall).items())))
    if not tracer:
        report.metrics = end_to_end
        return report
    report.notes.append(("untraced", ", ".join(
        f"{name}={value:.6g} {END_TO_END[name]}" for name, value in end_to_end.items())))
    report.metrics = layer_metrics(tracer, kernel_bits, input_bits)
    report.metrics["gabidulin.decode_failure_share"] = declined / len(traced_ms)
    report.metrics["trace_overhead_ratio"] = (
        statistics.median(traced_ms) / statistics.median(times[2] for times in wall))
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{wl.name}-seed{seed}.json")
    return report


def end_to_end_metrics(trials: list) -> dict:
    """Figures from (set-up s, measure ms, recover ms, round trip ms) per trial."""
    return {
        "setup_s": statistics.median(t[0] for t in trials),
        "recover_ms.p50": statistics.median(t[2] for t in trials),
        "recover_ms.tail": tail([t[2] for t in trials])[0],
        "measure_ms.p50": statistics.median(t[1] for t in trials),
        "roundtrips_per_s": len(trials) / (sum(t[3] for t in trials) / 1e3),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer: Tracer, kernel_bits: int, input_bits: int) -> dict:
    """Per-layer figures from the spans and counters; mean per call of the named root."""
    recover = tracer.totals("lrmr.recover")
    measure = tracer.totals("lrmr.measure")
    setup = tracer.totals("gabidulin.build_code")
    n_recover = recover["lrmr.recover"][0]
    n_measure = measure["lrmr.measure"][0]

    def per_recover_ms(name: str, column: int = 1) -> float:
        return recover.get(name, [0, 0, 0])[column] / n_recover / 1e6

    def op(name: str) -> tuple[float, float]:
        key = ("lrmr.recover", name)
        return tracer.calls[key] / n_recover, tracer.op_ns[key] / n_recover / 1e6

    metrics = {}
    for name in ("L_mul", "theta", "L_inverse", "K_mul"):
        metrics[f"exact_algebra.{name}.calls"], metrics[f"exact_algebra.{name}.ms"] = op(name)
    metrics["exact_algebra.K_inverse.calls"] = op("K_inverse")[0]
    for name in ("right_kernel", "solve"):
        metrics[f"exact_linalg.{name}.calls"] = recover.get(f"exact_linalg.{name}", [0])[0] / n_recover
        metrics[f"exact_linalg.{name}.ms"] = per_recover_ms(f"exact_linalg.{name}")
    metrics["exact_linalg.kernel_max_bits"] = kernel_bits
    metrics["exact_linalg.input_max_bits"] = input_bits
    for name in ("skew_poly.left_divide", "gabidulin.encode", "rank_metric.rank_weight",
                 "gabidulin.syndrome_decode", "gabidulin.wb_decode", "lrmr.recover"):
        metrics[f"{name}.ms"] = per_recover_ms(name)
    metrics["lrmr.recover.self_ms"] = per_recover_ms("lrmr.recover", column=2)
    calls, ns, _ = setup["gabidulin.build_code"]
    metrics["gabidulin.build_code.ms"] = ns / calls / 1e6
    metrics["lrmr.measure.ms"] = measure["lrmr.measure"][1] / n_measure / 1e6
    metrics["rank_metric.ext_inv.ms"] = measure.get("rank_metric.ext_inv", [0, 0])[1] / n_measure / 1e6
    return metrics


def render(report: Report) -> list[str]:
    """Printed lines: notes, every metric with its unit, then the JSON result."""
    units = PER_LAYER if report.trace else END_TO_END
    lines = [f"{label}: {text}" for label, text in report.notes]
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in report.metrics.items()]
    result = {
        "correct": report.failed == 0 and bool(report.metrics),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report.metrics.items()},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    report = run_workload(lib, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(render(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
