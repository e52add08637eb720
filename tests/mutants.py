"""Mutation check of the decoder, the scalar and basis arithmetic under it,
the checks that build codes and towers, the record check of ``recover``,
and the loaders' checks of outside input, the reader of rationals included.

    python3 tests/mutants.py

Each mutant below is one textual change to one file of ``src/gabrec``,
with the tests expected to catch it.  For each mutant the script copies
``src/gabrec``, ``tests`` and ``pyproject.toml`` to a temporary directory,
replaces the one occurrence of the old text there and runs the listed
tests on that copy with pytest (needs pytest and hypothesis, like the
suite).  A mutant is killed when a test fails, or when the tests run past
``TIMEOUT_S``; the listed tests take a few seconds on the unmutated code.
The decoder's loops are bounded: ``left_divide`` steps once per shift, so a
lead that is never inverted leaves a wrong quotient, which
``test_left_divide_identity`` catches, not a loop.  The timeout guards
against a mutant that hangs all the same.  The script exits 1 when a
mutant survives, when its old text does not occur exactly once, or when
pytest ends in any other way, such as a collection error, which kills
nothing.  ``tests/test_mutants.py`` checks the old texts in the suite
itself, so a refactor that moves one fails there first.  Standard library
only.

One mutant of the key reduction is equivalent and left out.  Taking v
from the last free column of B in place of the first changes only the
locator's degree.
The solutions (V, Q) form a left module, so every kernel vector is a left
multiple of the least one and divides to the same quotient, with a
remainder that is zero exactly when the least one's is: the decoded error
and the failure exit stay the same.

The mutants of the operand swap in the Q(zeta_n) convolution, which puts
the factor with more zero numerators in the outer loop, are equivalent and
left out: dropping the swap or reversing its test changes only which
operand the loop skips zeros of.  A product commutes, so only the speed
moves.  So does the order of the primes along the subfield chain of the
tower inverse: smallest first in place of largest first multiplies the
same m conjugates, with one factor q per product, so P and N come out the
same, bit for bit.  And so does paying the kernel's division of the lower
rows eagerly, at the step that makes their numerators, rather than at the
step whose pivot search reads them: every row that is read is divided by
the same inverse, and a taller matrix only gains an inverse of d_(f-2)
that nothing reads.  No output moves; only the inverse count of
``test_kernel_inverts_only_the_pivots_it_divides_by`` sees it.

One mutant of the inverse is equivalent and left out: dropping the
positive-norm check of ``CyclotomicField._divide_by_norm``.  The norm of
a nonzero element of Q(zeta_n) is always a positive integer, since the
field has no real embedding and its conjugates pair up as complex
conjugates, so the check fires only on an arithmetic bug.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/gabrec
    old: str
    new: str
    tests: tuple[str, ...]


LINALG = ("tests/test_exact_linalg.py",)
SKEW = ("tests/test_skew_poly.py",)
DECODE = ("tests/test_gabidulin.py",)
ALGEBRA = ("tests/test_exact_algebra.py",)
RANK = ("tests/test_rank_metric.py",)
RECORD = ("tests/test_lrmr.py::test_recover_validates_record",)
LOADERS = ("tests/test_lrmr.py::test_loaders_refuse_malformed_json",)
SUM = ("tests/test_exact_algebra.py::test_fused_sum_matches_term_by_term_sum",)
TWIST = ("tests/test_exact_algebra.py::test_twist_table_matches_the_fused_sum",)

MUTANTS = (
    Mutant("kernel: skip the row swap", "exact_linalg.py",
           "rows[f], rows[pivot_row] = rows[pivot_row], rows[f]", "pass", LINALG),
    Mutant("kernel: drop the pivot factor in the update", "exact_linalg.py",
           "_dot(field, ((p, x), (a, y)))", "_dot(field, ((field.one, x), (a, y)))", LINALG),
    Mutant("kernel: add the pivot row's multiple, not subtract it", "exact_linalg.py",
           "            a = -row[f]\n", "            a = row[f]\n", LINALG),
    Mutant("kernel: skip the pivot inverse", "exact_linalg.py",
           "v[i] = -(total * inverses[i])", "v[i] = -total", LINALG),
    Mutant("kernel: set v_f to one, not to the last pivot", "exact_linalg.py",
           "v[f], v[f - 1] = rows[f - 1][f - 1], -rows[f - 1][f]",
           "v[f], v[f - 1] = field.one, -rows[f - 1][f]", LINALG),
    Mutant("kernel: v_(f-1) = R_(f-1,f), not its negative", "exact_linalg.py",
           "v[f], v[f - 1] = rows[f - 1][f - 1], -rows[f - 1][f]",
           "v[f], v[f - 1] = rows[f - 1][f - 1], rows[f - 1][f]", LINALG),
    Mutant("Bareiss: drop the division by the previous pivot", "exact_linalg.py",
           "row[f:] = [x * inverse for x in row[f:]]", "pass", LINALG),
    Mutant("Bareiss: divide by the pivot that made the numerators, not the one before",
           "exact_linalg.py", "_invert(rows[f - 2][f - 2])", "_invert(rows[f - 1][f - 1])",
           LINALG),
    Mutant("Bareiss: divide the owed rows by the pivot just found", "exact_linalg.py",
           "_invert(rows[f - 2][f - 2])", "_invert(rows[f][f])", LINALG),
    Mutant("Bareiss: leave a row whose pivot-column entry is zero unscaled", "exact_linalg.py",
           "for row in rows[f + 1 :]:", "for row in (r for r in rows[f + 1 :] if r[f]):",
           LINALG),
    Mutant("kernel: read the 2x2 minor from the row after its update", "exact_linalg.py",
           "x, y = before[id(rows[f - 1])]", "x, y = rows[f - 1][f - 1 : f + 1]", LINALG),
    Mutant("kernel: leave v_(f-2) undivided by d_(f-3)", "exact_linalg.py",
           "minor * inverses[f - 3] if f > 2 else minor", "minor", LINALG),
    Mutant("kernel: flip the sign of the 2x2 minor", "exact_linalg.py",
           "((row[f - 1], y), (-row[f], x))", "((row[f - 1], -y), (row[f], x))", LINALG),
    Mutant("kernel: drop the back-substitution terms", "exact_linalg.py",
           "for c in range(i + 1, f + 1)", "for c in range(f, f + 1)", LINALG),
    Mutant("kernel: eliminate only the next row", "exact_linalg.py",
           "for row in rows[f + 1 :]:", "for row in rows[f + 1 : f + 2]:", LINALG),
    Mutant("SkewPoly product: twist one iterate too far", "skew_poly.py",
           "b[s - i].theta(i)", "b[s - i].theta(i + 1)", SKEW),
    Mutant("SkewPoly product: leave the last pair of each coefficient out", "skew_poly.py",
           "range(lo, hi + 1)", "range(lo, hi)", SKEW),
    Mutant("left_divide: never invert the lead", "skew_poly.py",
           "lead_inv = None if lead is tower.one else lead.inverse()", "lead_inv = None", SKEW),
    Mutant("left_divide: skip the remainder update", "skew_poly.py",
           "sums[shift + i].append((a, c.theta(i) if i else c))", "pass", SKEW),
    Mutant("left_divide: append the update to coefficient shift + i + 1", "skew_poly.py",
           "sums[shift + i].append", "sums[shift + i + 1].append", SKEW),
    Mutant("left_divide: twist the update one iterate too far", "skew_poly.py",
           "c.theta(i) if i else c", "c.theta(i + 1)", SKEW),
    Mutant("left_divide: leave the update untwisted", "skew_poly.py",
           "c.theta(i) if i else c", "c", SKEW),
    Mutant("left_divide: keep the cancelled top in the remainder", "skew_poly.py",
           "for pairs in sums[:dv]", "for pairs in sums[: dv + 1]", SKEW),
    Mutant("left_divide: read the remainder one coefficient too far", "skew_poly.py",
           "for pairs in sums[:dv]", "for pairs in sums[1 : dv + 1]", SKEW),
    Mutant("decode: Q = 0", "gabidulin.py",
           "sv = [locator.evaluate(s) for s in syndrome[:t]]",
           "sv = [tower.zero for s in syndrome[:t]]", DECODE),
    Mutant("decode: evaluate (S v)_j at s_(j+1)", "gabidulin.py",
           "for s in syndrome[:t]]", "for s in syndrome[1 : t + 1]]", DECODE),
    Mutant("numerator table: take P * Q_j, not Q_j * P", "gabidulin.py",
           "SkewPoly(self.tower, q) * self.annihilator",
           "self.annihilator * SkewPoly(self.tower, q)",
           DECODE),
    Mutant("numerator table: W one row short", "gabidulin.py",
           "for s in range(self.k + self.radius))", "for s in range(self.k + self.radius - 1))",
           DECODE),
    Mutant("key matrix: twist row d by theta^d, not theta^(-d)", "gabidulin.py",
           "sums[i + d].theta(-d)", "sums[i + d].theta(d)", DECODE),
    Mutant("key matrix: read c_(i+d+1), not c_(i+d)", "gabidulin.py",
           "sums[i + d].theta(-d)", "sums[i + d + 1].theta(-d)", DECODE),
    Mutant("key reduction: take y from one Moore row too few", "gabidulin.py",
           "theta_matrix(tower, h, r - 1)", "theta_matrix(tower, h, r - 2)", DECODE),
    Mutant("key reduction: take the Lagrange points h_1..h_t, not h_0..h_(t-1)", "gabidulin.py",
           "theta_matrix(tower, h[:t], t)", "theta_matrix(tower, h[1 : t + 1], t)", DECODE),
    Mutant("decode: skip the terms with an exact-one factor in _dot", "exact_linalg.py",
           "for a, b in pairs if a and b]", "for a, b in pairs if a and b and a is not field.one]",
           DECODE),
    Mutant("syndrome decode: check the length against n, not n - k", "gabidulin.py",
           "_coerce_word(code, syndrome, code.n - k)", "_coerce_word(code, syndrome, code.n)",
           DECODE),
    Mutant("decode: drop the degree exit", "gabidulin.py",
           "    if message.degree >= k:\n", "    if False:\n", DECODE),
    Mutant("decode: drop the remainder exit", "gabidulin.py",
           "    if not remainder.is_zero():\n", "    if False:\n", DECODE),
    Mutant("code: radius one too large", "gabidulin.py",
           "return (self.n - self.k) // 2", "return (self.n - self.k) // 2 + 1", DECODE),
    Mutant("code: skip the identity-block check", "gabidulin.py",
           "if tuple(row[k:] for row in parity_check.entries) != identity:", "if False:",
           DECODE),
    Mutant("Moore solve: skip the pivot check", "gabidulin.py",
           "if pivots != list(range(d)):", "if False:", DECODE),
    Mutant("Moore solve: read each solution one column to the left", "gabidulin.py",
           "row[d + l] for row in reduced.entries", "row[d + l - 1] for row in reduced.entries",
           DECODE),
    Mutant("theta_matrix: start one iterate late", "rank_metric.py",
           "row = [tower.coerce(x) for x in vector]",
           "row = [tower.coerce(x).theta() for x in vector]", RANK),
    Mutant("tower: skip the radicand check", "exact_algebra.py",
           "        self._check_radicand(n, radicand)\n", "", ALGEBRA),
    Mutant("Kummer inverse: skip the norm-in-K check", "exact_algebra.py",
           "if not any(norm[:d]) or any(norm[d:]):", "if False:", ALGEBRA),
    Mutant("recover: skip the record length check", "lrmr.py",
           "if len(record.y) != m * r:", "if False:", RECORD),
    Mutant("difference: add the subtrahend", "exact_algebra.py",
           "return self + -other", "return self + other", ALGEBRA),
    Mutant("product: drop q from the denominator", "exact_algebra.py",
           "self.den * other.den * field._q", "self.den * other.den", ALGEBRA),
    Mutant("Kummer inverse: drop q from the norm division's denominator", "exact_algebra.py",
           "return scale.den * self._q, self._mul_nums(product, scale.nums)",
           "return scale.den, self._mul_nums(product, scale.nums)", ALGEBRA),
    Mutant("Kummer inverse: skip the product with the norm's inverse", "exact_algebra.py",
           "return scale.den * self._q, self._mul_nums(product, scale.nums)",
           "return scale.den * self._q, product", ALGEBRA),
    Mutant("embedding: pad before the scalar's row, not after it", "exact_algebra.py",
           "row + (0,) * (self._width * (self.m - 1))",
           "(0,) * (self._width * (self.m - 1)) + row", ALGEBRA),
    Mutant("embedding: build one as basis vector 1", "exact_algebra.py",
           "return self._basis_vector(0)", "return self._basis_vector(1)", ALGEBRA),
    Mutant("basis: vector i at index i, not i * width", "exact_algebra.py",
           "nums[i * self._width] = 1", "nums[i] = 1", ALGEBRA),
    Mutant("code: skip the check that the points are independent over K", "gabidulin.py",
           "if rref(ext(tower, points))[1] != n:", "if False:",
           ("tests/test_gabidulin.py::test_build_rejects_bad_parameters",)),
    Mutant("numerator table: leave the last Lagrange polynomial out of W", "gabidulin.py",
           "for q in self.key_reduction[1]]", "for q in self.key_reduction[1][:-1]]",
           ("tests/test_gabidulin.py::test_decode_rank_one_error",)),
    Mutant("syndrome table: leave the last syndrome out of the c_e", "gabidulin.py",
           "self.tower._twist_table(y, ", "self.tower._twist_table(y[:-1], ",
           ("tests/test_gabidulin.py::test_decode_rank_one_error",)),
    Mutant("SkewPoly: a scalar on the right multiplies from the left", "skew_poly.py",
           "return self * constant", "return constant * self",
           ("tests/test_skew_poly.py::test_scalar_multiplication_sides",)),
    Mutant("recover: skip the bool check", "lrmr.py",
           "if any(isinstance(v, bool) for v in record.y):", "if False:", RECORD),
    Mutant("record: accept a payload that is not an object", "lrmr.py",
           "if not isinstance(payload, dict):", "if False:", LOADERS),
    Mutant("record: accept a non-list y", "lrmr.py",
           "if not isinstance(y, list):", "if not isinstance(y, (list, str)):", LOADERS),
    Mutant("record: accept non-string entries", "lrmr.py",
           "if not all(isinstance(t, str) for t in y):", "if False:", LOADERS),
    Mutant("record: accept a code that is not an object", "lrmr.py",
           "if not isinstance(code, dict):", "if False:", LOADERS),
    Mutant("descriptor: accept one that is not an object", "gabidulin.py",
           "if not isinstance(descriptor, dict):", "if False:", LOADERS),
    Mutant("descriptor: skip the missing-key check", "gabidulin.py",
           "    if missing:\n", "    if False:\n", LOADERS),
    Mutant("descriptor: accept a float count", "gabidulin.py",
           "type(v) is int for v in (param, n, k)", "type(v) in (int, float) for v in (param, n, k)",
           LOADERS),
    Mutant("descriptor: accept a bool count", "gabidulin.py",
           "type(v) is int for v in (param, n, k)", "isinstance(v, int) for v in (param, n, k)",
           LOADERS),
    Mutant("descriptor: accept any g", "gabidulin.py",
           "if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):",
           "if False:", LOADERS),
    Mutant("descriptor: accept a non-string radicand", "gabidulin.py",
           "if not isinstance(radicand, str):", "if False:", LOADERS),
    Mutant("syndrome decode: head of the error +c, not -c", "gabidulin.py",
           "[-c for c in codeword[:k]]", "[c for c in codeword[:k]]", DECODE),
    Mutant("wb_decode: add back a zero head too", "gabidulin.py",
           "if result.success and any(head):", "if result.success and True:",
           ("tests/test_gabidulin.py::test_word_decode_reduces_to_syndrome_decode",)),
    Mutant("recover: let a non-rational entry raise TypeError", "lrmr.py",
           "    except TypeError as exc:\n", "    except ZeroDivisionError as exc:\n", RECORD),
    Mutant("rational text: drop the exponent bound", "exact_algebra.py",
           "if marker and digits.isdecimal() and (len(digits) > 4 or int(digits) > 4300):",
           "if False:",
           ("tests/test_exact_algebra.py::test_rational_text_bounds_the_exponent",)),
    Mutant("rational text: test the exponent with isdigit", "exact_algebra.py",
           "digits.isdecimal()", "digits.isdigit()",
           ("tests/test_exact_algebra.py::test_rational_text_bounds_the_exponent",)),
    Mutant("rational text: let digit separators past the exponent bound", "exact_algebra.py",
           'exponent.replace("_", "").lstrip("+-")', 'exponent.lstrip("+-")',
           ("tests/test_exact_algebra.py::test_rational_text_bounds_the_exponent",)),
    Mutant("twist table: build a Q(zeta_p) column with shift s + 1", "exact_algebra.py",
           "pow(self.primitive_root, s, p)", "pow(self.primitive_root, s + 1, p)", TWIST),
    Mutant("twist table: build a Kummer column with shift s + 1", "exact_algebra.py",
           "twists[(e + i * s) % n][i]", "twists[(e + i * (s + 1)) % n][i]", TWIST),
    Mutant("twist table: wrap a Kummer row round by q, not p", "exact_algebra.py",
           "(k + i * d - size, p * v)", "(k + i * d - size, q * v)", TWIST),
    Mutant("twist table: drop the lcm rescale of a constant", "exact_algebra.py",
           "c.nums if c.den == den else [den // c.den * x for x in c.nums]", "c.nums", TWIST),
    Mutant("twist table: drop q from the denominator", "exact_algebra.py",
           "return den * self._q, tuple(rows)", "return den, tuple(rows)", TWIST),
    Mutant("table sums: drop the lcm rescale of an operand", "exact_algebra.py",
           "flat += x.nums if x.den == common else [common // x.den * v for v in x.nums]",
           "flat += x.nums", TWIST),
    Mutant("sum of products: drop the lcm rescale", "exact_algebra.py",
           "a.nums if t == den else [den // t * x for x in a.nums]", "a.nums", SUM),
    Mutant("sum of products: drop q from the denominator", "exact_algebra.py",
           "_canonical(self, den * self._q, self._reduce(buf))",
           "_canonical(self, den, self._reduce(buf))", SUM),
    Mutant("sum of products: return a one-product sum's first factor unmultiplied",
           "exact_linalg.py", "return b if a is field.one else a * b",
           "return b if a is field.one else a", SUM),
    Mutant("Kummer reduction: scale the low rows by q twice", "exact_algebra.py",
           "buf[:low] = [q * v for v in buf[:low]]", "buf[:low] = [q * q * v for v in buf[:low]]",
           ALGEBRA),
    Mutant("coordinates: let a float reach the numerators", "exact_algebra.py",
           "            if not isinstance(v, (int, Fraction)):\n", "            if False:\n",
           ("tests/test_exact_algebra.py::test_coordinates_are_strict",)),
    Mutant("coordinates: drop the lcm rescale of a rational", "exact_algebra.py",
           "v.numerator * (den // q)", "v.numerator", ALGEBRA),
    Mutant("matrix text: accept negative counts", "exact_linalg.py",
           "if not (tokens[0].isdecimal() and tokens[1].isdecimal()):",
           'if not (tokens[0].lstrip("-").isdecimal() and tokens[1].lstrip("-").isdecimal()):',
           ("tests/test_exact_linalg.py::test_matrix_text_roundtrip",)),
    Mutant("Matrix: accept a negative column count", "exact_linalg.py",
           "elif cols is None or cols < 0:", "elif cols is None:",
           ("tests/test_exact_linalg.py::test_matrix_shape_checks",)),
    Mutant("convolution: advance the output index twice", "exact_algebra.py",
           "                    i += 1\n", "                    i += 2\n", ALGEBRA),
    Mutant("norm chain: twist a conjugate by theta^k, not by sigma^k", "exact_algebra.py",
           "theta(y, k * size)", "theta(y, k)", ALGEBRA),
    Mutant("norm chain: leave a step's factor out of P", "exact_algebra.py",
           "product = factor if product is None else mul(product, factor)",
           "product = factor", ALGEBRA),
    Mutant("norm chain: take each prime of m once", "exact_algebra.py",
           "while size % ell == 0:", "if size % ell == 0:", ALGEBRA),
    Mutant("msp: normalize only at the end", "skew_poly.py",
           "[-w.theta() * w.inverse(), tower.one]) * poly\n    return poly\n",
           "[-w.theta(), w]) * poly\n    return poly.coeffs[-1].inverse() * poly\n",
           ("tests/test_skew_poly.py::test_msp_of_sixteen_kummer20_points",)),
)


def run_mutant(mutant: Mutant) -> str:
    """'killed: ' and the first failing test, or what else happened."""
    with tempfile.TemporaryDirectory(prefix="gabrec-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src" / "gabrec", copy / "src" / "gabrec",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "gabrec" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times, not once"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *mutant.tests]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed: tests ran past {TIMEOUT_S} s"
    if done.returncode == 1:  # pytest: some test failed
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
        return "killed: " + (failed[0].split()[1] if failed else "a test failed")
    if done.returncode == 0:
        return "survived"
    tail = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"pytest exit {done.returncode}: {tail[0]}"


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        print(f"{time.perf_counter() - start:5.1f} s  {mutant.name}\n        {outcome}", flush=True)
        failures += not outcome.startswith("killed")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
