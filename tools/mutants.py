"""Mutation harness: every named mutant of the library must fail its tests.

    python tools/mutants.py              # run every mutant
    python tools/mutants.py NAME ...     # run the named mutants
    python tools/mutants.py --list       # list the mutants and their tests

Run from anywhere; it needs pytest (and hypothesis, as the test suite does).
Each mutant is one or more exact (file, old text, new text) edits to
``src/bjlevel`` and the pytest selection that must catch it.  The harness
copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
runs each selection there unmutated, which must pass (so that a mutant cannot
"fail" by a broken run), then applies each mutant in turn and requires its
selection to fail, restoring the file afterwards.  An old text that does not
occur exactly once in its file is an error, not a pass: a refactor that moves
the code shows up here as a mutant to update.  Bytecode is not written, so a
restored file is never read from a stale cache.

A change that claims a mutation check adds its mutants to MUTANTS.  The exit
status is 0 when every mutant is caught and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    edits: tuple[tuple[str, str, str], ...]  # (path under src/bjlevel, old text, new text)
    selection: tuple[str, ...]  # pytest arguments, relative to the repository root


def _mutant(name: str, path: str, old: str, new: str, *selection: str) -> Mutant:
    return Mutant(name, ((path, old, new),), selection)


MUTANTS = (
    # One fraction-free elimination (linalg._eliminate, integer_kernel,
    # kernel_basis).
    _mutant(
        "bareiss-no-division",
        "linalg.py",
        "row[c + 1 :] = [(pivot * x - a * y) // prev for x, y",
        "row[c + 1 :] = [(pivot * x - a * y) for x, y",
        "tests/test_linalg.py",
    ),
    _mutant(
        "kernel-not-over-d",
        "linalg.py",
        "return [tuple(Fraction(c, size) if c else ZERO for c in v) for v in kernel]",
        "return [tuple(Fraction(c) if c else ZERO for c in v) for v in kernel]",
        "tests/test_linalg.py",
    ),
    _mutant(
        "integer-kernel-scaled-by-d-not-abs-d",
        "linalg.py",
        "size = abs(d)",
        "size = d",
        "tests/test_linalg.py",
    ),
    _mutant(
        "free-columns-not-rescaled",
        "linalg.py",
        "row[j] = pivot * row[j] // prev",
        "row[j] = row[j]",
        "tests/test_linalg.py",
    ),
    # The kernel condition in integers and the Birkhoff-James interval
    # (levels.kernel_condition, support._integer_range, support_extremes).
    _mutant(
        "kernel-image-test-all-not-any",
        "levels.py",
        "if not any(int_mat_vec(m_rows, q)):",
        "if not all(int_mat_vec(m_rows, q)):",
        "tests/test_levels.py",
    ),
    _mutant(
        "polyhedral-range-over-every-facet",
        "support.py",
        "values = int_mat_vec([rows[i] for i in face], v)",
        "values = int_mat_vec(rows, v)",
        "tests/test_differential.py",
    ),
    _mutant(
        "kernel-interval-strict-lo",
        "levels.py",
        "return lo <= 0 <= hi",
        "return lo < 0 <= hi",
        "tests/test_differential.py",
        "tests/test_levels.py",
    ),
    _mutant(
        "kernel-interval-strict-hi",
        "levels.py",
        "return lo <= 0 <= hi",
        "return lo <= 0 < hi",
        "tests/test_differential.py",
        "tests/test_levels.py",
    ),
    _mutant(
        "l1-free-sum-without-abs",
        "support.py",
        "free = sum(abs(yc) for c, yc in zip(x, y) if not c)",
        "free = sum(yc for c, yc in zip(x, y) if not c)",
        "tests/test_support.py",
        "tests/test_differential.py",
    ),
    _mutant(
        "l1-pinned-sign-flipped",
        "support.py",
        "pinned = sum(yc if c > 0 else -yc for",
        "pinned = sum(-yc if c > 0 else yc for",
        "tests/test_support.py",
    ),
    _mutant(
        "linf-pinned-sign-flipped",
        "support.py",
        "values = [(f[i] * y[i], f) for i, f in _linf_face(space, x)]",
        "values = [(-f[i] * y[i], f) for i, f in _linf_face(space, x)]",
        "tests/test_support.py",
    ),
    Mutant(
        "l1-tie-fill-swapped",
        (
            ("support.py", "f_lo = tuple(s if s else (ONE if yc < 0 else MINUS_ONE)", "f_lo = tuple(s if s else (ONE if yc <= 0 else MINUS_ONE)"),
            ("support.py", "f_hi = tuple(s if s else (MINUS_ONE if yc < 0 else ONE)", "f_hi = tuple(s if s else (MINUS_ONE if yc <= 0 else ONE)"),
        ),
        ("tests/test_orthogonality.py", "tests/test_differential.py"),
    ),
    # The integer certificate check and the counterexample (levels).
    _mutant(
        "check-without-d_t",
        "levels.py",
        "left, right = sd * fs, sn * d_t * gs",
        "left, right = sd * fs, sn * gs",
        "tests/test_levels.py",
    ),
    _mutant(
        "check-swaps-sn-and-sd",
        "levels.py",
        "    sn, sd = scale.numerator, scale.denominator\n    left, right",
        "    sd, sn = scale.numerator, scale.denominator\n    left, right",
        "tests/test_levels.py",
    ),
    _mutant(
        "counterexample-negated",
        "levels.py",
        "return tuple(Fraction(c * point.den, least) for c in y)",
        "return tuple(Fraction(-c * point.den, least) for c in y)",
        "tests/test_levels.py",
    ),
    _mutant(
        "margin-non-strict",
        "levels.py",
        "if not least > 0:",
        "if not least >= 0:",
        "tests/test_levels.py",
        "tests/test_differential.py",
    ),
    _mutant(
        "farkas-non-strict",
        "simplex.py",
        "return dot(y, b_eq) > 0 and",
        "return dot(y, b_eq) >= 0 and",
        "tests/test_simplex.py",
    ),
    # Enumeration's integer memo key, its per-call table of smooth images
    # (levels._face_level_number) and the integer smooth-image test.
    Mutant(
        "memo-key-without-norm",
        (
            ("levels.py", "        return memo[key]\n", "        return memo[key[0]]\n"),
            ("levels.py", "    number = memo[key] = None if", "    number = memo[key[0]] = None if"),
        ),
        ("tests/test_levels.py::test_enumeration_solves_one_problem_per_class_of_image_norm_and_support",),
    ),
    Mutant(
        "smooth-table-outlives-the-call",
        (
            ("levels.py", "    smooth: dict = {}\n", "    smooth = _SMOOTH\n"),
            ("levels.py", "Scalar = Union[Fraction, float]\n", "Scalar = Union[Fraction, float]\n_SMOOTH: dict = {}\n"),
        ),
        ("tests/test_levels.py",),
    ),
    Mutant(
        "smooth-table-keyed-without-the-face",
        (
            ("levels.py", "        entry = smooth[face]\n", "        entry = smooth[n, d]\n"),
            ("levels.py", "        entry = smooth[face] = _smooth_image(", "        entry = smooth[n, d] = _smooth_image("),
        ),
        ("tests/test_levels.py",),
    ),
    _mutant(
        "smooth-table-skips-the-point-comparison",
        "levels.py",
        "        if (n, d) != entry.norm:\n            return None\n",
        "",
        "tests/test_levels.py::test_the_smooth_table_is_per_functional_and_the_comparison_per_point",
    ),
    _mutant(
        "smooth-table-certificate-unchecked",
        "levels.py",
        "            _checked(d_t, m_rows, scale, _smooth_certificate(",
        "            (d_t, m_rows, scale, _smooth_certificate(",
        "tests/test_levels.py::test_enumeration_checks_each_certificate_it_solves",
    ),
    _mutant(
        "linf-key-without-sign-bit",
        "support.py",
        "face = tuple(2 * i + (c < 0) for i, c in enumerate(q) if abs(c) == top)",
        "face = tuple(2 * i for i, c in enumerate(q) if abs(c) == top)",
        "tests/test_support.py",
    ),
    _mutant(
        "smooth-test-max-and-sum-swapped",
        "spaces.py",
        "        return max(map(abs, q)), 1\n    return sum(map(abs, q)), 1\n",
        "        return sum(map(abs, q)), 1\n    return max(map(abs, q)), 1\n",
        "tests/test_levels.py::test_the_integer_smooth_image_test_is_the_dual_norm_test",
    ),
    _mutant(
        "smooth-f-not-divided-by-scale",
        "levels.py",
        "return tuple(Fraction(c * sd, den * sn) for c in image)",
        "return tuple(Fraction(c, den) for c in image)",
        "tests/test_levels.py",
    ),
)


def _pytest(tree: Path, selection: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _apply(tree: Path, mutant: Mutant) -> dict[Path, str]:
    """Apply every edit of ``mutant`` and return the original texts; an old
    text that does not occur exactly once raises ValueError."""
    originals: dict[Path, str] = {}
    try:
        for path, old, new in mutant.edits:
            file = tree / "src" / "bjlevel" / path
            text = file.read_text()
            originals.setdefault(file, text)
            count = text.count(old)
            if count != 1:
                raise ValueError(f"{path}: the old text occurs {count} times: {old!r}")
            file.write_text(text.replace(old, new))
    except ValueError:
        _restore(originals)
        raise
    return originals


def _restore(originals: dict[Path, str]) -> None:
    for file, text in originals.items():
        file.write_text(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}: {' '.join(m.selection)}")
        return 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bjlevel-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        for selection in dict.fromkeys(m.selection for m in chosen):
            if _pytest(tree, selection) != 0:
                print(f"ERROR unmutated selection fails: {' '.join(selection)}")
                return 1
        for m in chosen:
            start = time.perf_counter()
            try:
                originals = _apply(tree, m)
            except ValueError as exc:
                print(f"ERROR {m.name}: {exc}")
                failures += 1
                continue
            try:
                code = _pytest(tree, m.selection)
            finally:
                _restore(originals)
            seconds = time.perf_counter() - start
            # pytest exits 1 when tests ran and failed; any other status is a
            # broken run (an import error, a usage error, no tests collected).
            if code == 1:
                print(f"caught  {m.name} ({seconds:.1f} s)")
            else:
                print(f"{'MISSED' if code == 0 else f'ERROR (pytest exit {code})'} {m.name}: {' '.join(m.selection)}")
                failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
