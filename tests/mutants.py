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

Two mutants of the key reduction are equivalent and left out.  Dropping
column 0 from the entries of S v that E_top reads changes nothing: rows
1.. of the h block already have rank t, so column 0 is always the first
pivot of E_bottom and E_top is zero there.  Taking v from the last free
column of B in place of the first changes only the locator's degree.
The solutions (V, Q) form a left module, so every kernel vector is a left
multiple of the least one and divides to the same quotient, with a
remainder that is zero exactly when the least one's is: the decoded error
and the failure exit stay the same.

The mutants of the operand swap in the Q(zeta_n) convolution, which puts
the factor with more zero numerators in the outer loop, are equivalent and
left out: dropping the swap or reversing its test changes only which
operand the loop skips zeros of.  A product commutes, so only the speed
moves.

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

MUTANTS = (
    Mutant("kernel: skip the row swap", "exact_linalg.py",
           "rows[f], rows[pivot_row] = rows[pivot_row], rows[f]", "pass", LINALG),
    Mutant("kernel: drop the pivot factor in the update", "exact_linalg.py",
           "_dot(field, ((p, x), (a, y)))", "_dot(field, ((field.one, x), (a, y)))", LINALG),
    Mutant("kernel: add the pivot row's multiple, not subtract it", "exact_linalg.py",
           "                a = -a\n", "", LINALG),
    Mutant("kernel: skip the pivot inverse", "exact_linalg.py",
           "v[i] = -(total * _invert(row[i]))", "v[i] = -total", LINALG),
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
           "r[shift + i] = r[shift + i] - v_i * c.theta(i)", "pass", SKEW),
    Mutant("left_divide: twist the update one iterate too far", "skew_poly.py",
           "v_i * c.theta(i)", "v_i * c.theta(i + 1)", SKEW),
    Mutant("left_divide: keep the cancelled top in the remainder", "skew_poly.py",
           "SkewPoly(tower, r[:dv])", "SkewPoly(tower, r[: dv + 1])", SKEW),
    Mutant("decode: Q = 0", "gabidulin.py",
           "quotient = [_dot(tower, zip(row, sv)) for row in e_top]",
           "quotient = [tower.zero for row in e_top]", DECODE),
    Mutant("decode: E split at t+1", "gabidulin.py",
           "return block[:t], block[t:]", "return block[: t + 1], block[t + 1 :]", DECODE),
    Mutant("decode: E split at t-1", "gabidulin.py",
           "return block[:t], block[t:]", "return block[: t - 1], block[t - 1 :]", DECODE),
    Mutant("decode: skip the terms with an exact-one factor in _dot", "exact_linalg.py",
           "for a, b in pairs if a and b]", "for a, b in pairs if a and b and a is not field.one]",
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
    Mutant("key reduction: skip the pivot check", "gabidulin.py",
           "if pivots[:t] != list(range(t)):", "if False:", DECODE),
    Mutant("theta_matrix: start one iterate late", "rank_metric.py",
           "row = [tower.coerce(x) for x in vector]",
           "row = [tower.coerce(x).theta() for x in vector]", RANK),
    Mutant("tower: skip the radicand check", "exact_algebra.py",
           "        self._check_radicand(n, radicand)\n", "", ALGEBRA),
    Mutant("Kummer inverse: skip the norm-in-K check", "exact_algebra.py",
           "if not any(norm[:d]) or any(norm[d:]):", "if False:", ALGEBRA),
    Mutant("recover: skip the record length check", "lrmr.py",
           "if len(record.y) != m * r:", "if False:", RECORD),
    Mutant("product: drop q from the denominator", "exact_algebra.py",
           "self.den * other.den * field._q", "self.den * other.den", ALGEBRA),
    Mutant("Kummer inverse: drop q from the norm division's denominator", "exact_algebra.py",
           "return scale.den * self._q, self._mul_nums(product, scale.nums)",
           "return scale.den, self._mul_nums(product, scale.nums)", ALGEBRA),
    Mutant("Kummer inverse: skip the product with the norm's inverse", "exact_algebra.py",
           "return scale.den * self._q, self._mul_nums(product, scale.nums)",
           "return scale.den * self._q, product", ALGEBRA),
    Mutant("basis: vector i at index i, not i * width", "exact_algebra.py",
           "nums[i * self._width] = 1", "nums[i] = 1", ALGEBRA),
    Mutant("code: skip the check that the points are independent over K", "gabidulin.py",
           "if rref(ext(tower, points))[1] != n:", "if False:",
           ("tests/test_gabidulin.py::test_build_rejects_bad_parameters",)),
    Mutant("key reduction: leave the last column of E_top out of read", "gabidulin.py",
           "for j, e in enumerate(row) if e}", "for j, e in enumerate(row[:-1]) if e}",
           ("tests/test_gabidulin.py::test_decode_rank_one_error",)),
    Mutant("key reduction: leave the last column of E_bottom out of B", "gabidulin.py",
           "_dot(tower, zip(row, s_i)) for s_i in s_block",
           "_dot(tower, zip(row[:-1], s_i)) for s_i in s_block",
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
