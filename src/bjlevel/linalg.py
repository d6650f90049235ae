"""Small dense exact linear algebra over `fractions.Fraction`.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  Sizes
stay at desk scale (dimension <= 12), so plain Gauss-Jordan elimination is
the tool for ranks and kernels.  Square solves, which the facet scan makes by
the thousand, take integer systems and eliminate without fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def solve_square(m: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[tuple[tuple[int, ...], int]]:
    """Solve m x = b for a square integer matrix m and an integer vector b.

    Returns ``(num, den)`` with x = num / den and den > 0, or None when m is
    singular.  Fraction-free Gauss-Jordan elimination (Bareiss 1968): every
    entry after step k is a (k+1)-minor of [m | b], so each division by the
    previous pivot is exact and no rational is ever built.  After the last
    step every diagonal entry equals the last pivot, which is +-det(m), and
    the right-hand column holds that pivot times x.  ``num`` and ``den`` need
    not be coprime.
    """
    n = len(m)
    rows = [[*row, bi] for row, bi in zip(m, b, strict=True)]
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return None
            rows[k], rows[swap] = rows[swap], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for i in range(n):
            if i != k:
                row = rows[i]
                a = row[k]
                # Columns <= k are no longer read: column k is zero off the
                # pivot row, and the diagonal is the pivot throughout.
                row[k + 1 :] = [(pivot * x - a * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    num = tuple(row[n] for row in rows)
    if prev < 0:
        return tuple(-x for x in num), -prev
    return num, prev


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space of m (possibly empty)."""
    if not m:
        return []
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][fc]
        basis.append(tuple(v))
    return basis


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of the given points (0 for a singleton)."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vec_sub(p, base) for p in points[1:]])
