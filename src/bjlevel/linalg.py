"""Small dense exact linear algebra over `fractions.Fraction`.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  Sizes
stay at desk scale (dimension <= 12).  Ranks, kernels, affine ranks and the
square solves of the facet scan share one fraction-free forward elimination
on integer rows (`_echelon`, Bareiss 1968), which stops at echelon form:
ranks are read off it, and kernels (`integer_kernel`) and square solves are
back-substituted from it in integers, each division exact and checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InternalCheckError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def vec(values: Iterable) -> Vec:
    """The values as a vector: a Fraction is kept as the same object, and
    anything else (int, float, string) is converted exactly."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def unit(n: int, i: int, sign: int = 1) -> Vec:
    return tuple(Fraction(sign) if j == i else ZERO for j in range(n))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def combination(weights: Sequence[Fraction], vectors: Sequence[Vec]) -> Vec:
    """sum(w_i v_i) over the paired weights and vectors."""
    return tuple(sum(w * v[k] for w, v in zip(weights, vectors)) for k in range(len(vectors[0])))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def int_mat_vec(rows: Sequence[Sequence[int]], q: Sequence[int]) -> tuple[int, ...]:
    """The product of an integer matrix, given by its rows, and an integer
    vector."""
    return tuple(sum(map(mul, row, q)) for row in rows)


def integer_point(p: Vec) -> tuple[tuple[int, ...], int]:
    """(q, s) with q = s p integral and s > 0 the lcm of p's denominators.
    A Fraction or an int entry is read by its numerator and denominator, and
    with s = 1 the numerators are q; a float entry is converted exactly."""
    try:
        s = math.lcm(*[c.denominator for c in p])
    except AttributeError:
        return integer_point(vec(p))
    if s == 1:
        return tuple([c.numerator for c in p]), 1
    return tuple([c.numerator * (s // c.denominator) for c in p]), s


def integer_rows(points: Sequence[Vec]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D, the lcm of all the points' denominators, and each point's integer
    row D p, read as `integer_point` reads one point."""
    flat, d = integer_point([c for p in points for c in p])
    n = len(points[0]) if points else 1
    return d, tuple(flat[i : i + n] for i in range(0, len(flat), n))


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free forward elimination (Bareiss 1968) of the integer rows
    in place, over their first ``ncols`` columns; columns past those are
    carried along, as a right-hand side.

    Returns (pivot columns, d): row i of the result is the pivot row of
    column pivots[i], and d is the last pivot.  Each step writes only the
    rows below the pivot, right of the pivot column, and every entry it
    writes is a minor of the (row-permuted) input, so each division by the
    previous pivot is exact and no rational is ever built.  The entries left
    behind, left of each row's pivot and in the rows past the rank, are
    stale: they are read as zero.
    """
    prev = 1
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if not rows[r][c]:
            swap = next((i for i in range(r + 1, nrows) if rows[i][c]), None)
            if swap is None:
                continue
            rows[r], rows[swap] = rows[swap], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[c]
        tail = pivot_row[c + 1 :]
        for row in rows[r + 1 :]:
            a = row[c]
            row[c + 1 :] = [(pivot * x - a * y) // prev for x, y in zip(row[c + 1 :], tail)]
        pivots.append(c)
        prev = pivot
        r += 1
    return pivots, prev


def _back_substitute(rows: list[list[int]], pivots: list[int], fc: int, value: int) -> list[int]:
    """The solution v of E v = 0, E the `_echelon` rows, with v[fc] = value
    and 0 at every other column with no pivot, from the last pivot row up.
    With ``value`` a multiple of the last pivot, v is integral by Cramer's
    rule, so every division is exact: a remainder is an error."""
    v = [0] * len(rows[0])
    v[fc] = value
    for row, pc in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
        entry, rem = divmod(-sum(map(mul, row[pc + 1 :], v[pc + 1 :])), row[pc])
        if rem:
            raise InternalCheckError("back-substitution division is not exact")
        v[pc] = entry
    return v


def _integer_matrix(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row scaled by the lcm of its own denominators: the rank, the
    reduced row echelon form and the null space stay the same."""
    return [list(integer_point(vec(row))[0]) for row in rows]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_echelon(_integer_matrix(rows), len(rows[0]))[0])


def solve_square(m: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[tuple[tuple[int, ...], int]]:
    """Solve m x = b for a square integer matrix m and an integer vector b.

    Returns ``(num, den)`` with x = num / den and den > 0, or None when m is
    singular.  `_echelon` reduces [m | b], whose last pivot d is +-det(m),
    and ``num`` = |d| x is the kernel vector of [m | b] that is -|d| at the
    right-hand column, back-substituted.  ``num`` and ``den`` need not be
    coprime.
    """
    n = len(m)
    rows = [[*row, bi] for row, bi in zip(m, b, strict=True)]
    pivots, d = _echelon(rows, n)
    if len(pivots) < n:
        return None
    den = abs(d)
    return tuple(_back_substitute(rows, pivots, n, -den)[:n]), den


def integer_kernel(rows: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """(size, kernel) for the null space of the integer matrix ``rows``: one
    integer vector per column fc with no pivot, ``size`` times the vector of
    `kernel_basis` (1 at fc and -R[i][fc] at the pivot column of row i of the
    reduced row echelon form R).

    R's entries are quotients of minors over the last pivot d of `_echelon`,
    so with size = |d| the vector is integral: it is back-substituted from
    the echelon rows with ``size`` at fc, and is a positive multiple of the
    Fraction one.
    """
    ncols = len(rows[0])
    work = [list(row) for row in rows]
    pivots, d = _echelon(work, ncols)
    size = abs(d)
    return size, [tuple(_back_substitute(work, pivots, fc, size)) for fc in range(ncols) if fc not in pivots]


def fraction_kernel(size: int, kernel: Sequence[Sequence[int]]) -> list[Vec]:
    """The vectors of `integer_kernel` divided by their free-column entry
    ``size``: the basis of `kernel_basis`."""
    return [tuple(Fraction(c, size) if c else ZERO for c in v) for v in kernel]


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space of m (possibly empty): one vector per column
    fc with no pivot, with 1 at fc and -R[i][fc] at the pivot column of row
    i of the reduced row echelon form R, read from `integer_kernel`."""
    if not m:
        return []
    return fraction_kernel(*integer_kernel(_integer_matrix(m)))


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of the given points (0 for a singleton),
    the rank of the differences of their integer rows."""
    if len(points) <= 1:
        return 0
    _, (base, *rest) = integer_rows(points)
    return len(_echelon([[x - y for x, y in zip(row, base)] for row in rest], len(base))[0])
