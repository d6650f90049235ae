"""The fraction-free integer elimination to echelon form behind ranks and
affine ranks, and the back-substitution behind kernels and square solves,
checked against Gauss-Jordan over Fractions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from bjlevel import InternalCheckError, linalg
from bjlevel.linalg import (
    _echelon,
    affine_rank,
    integer_kernel,
    integer_point,
    integer_rows,
    kernel_basis,
    matrix_rank,
    solve_square,
)

from ._util import HEXAGON_VERTICES, cube_cross_vertices, fraction_rref, fraction_solve, sphere_ball

F = Fraction


def integer_system(rows, rhs):
    """Each equation scaled by the lcm of its denominators."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        s = math.lcm(*(c.denominator for c in (*row, b)))
        out_rows.append([int(c * s) for c in row])
        out_rhs.append(int(b * s))
    return out_rows, out_rhs


def fraction_det(rows):
    """The determinant of a square matrix by Gaussian elimination over
    Fractions."""
    work = [[F(c) for c in row] for row in rows]
    det = F(1)
    for k in range(len(work)):
        pivot = next((i for i in range(k, len(work)) if work[i][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det *= work[k][k]
        for row in work[k + 1 :]:
            factor = row[k] / work[k][k]
            row[k:] = [a - factor * b for a, b in zip(row[k:], work[k][k:])]
    return det


def solved(rows, rhs):
    """solve_square on the integer form of a rational system, as Fractions;
    the denominator it returns is |det| of the integer matrix."""
    int_rows, int_rhs = integer_system(rows, rhs)
    solution = solve_square(int_rows, int_rhs)
    if solution is None:
        return None
    num, den = solution
    assert den == abs(fraction_det(int_rows))
    return tuple(F(x, den) for x in num)


def rational(rng, bound):
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def seeded_system(kind, n, seed):
    """A square rational system of the given kind with denominators up to 10^12."""
    rng = random.Random(f"{kind}-{n}-{seed}")
    bound = 10**12 if seed % 2 else 9
    rows = [[rational(rng, bound) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        a, b = rational(rng, bound), rational(rng, bound)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[max(n - 2, 0)])]
    elif kind == "rank-deficient":
        column = rng.randrange(n)
        for row in rows:
            row[column] = F(0)
        rows[-1] = list(rows[0])
    elif kind == "row-swaps":
        # Zeros in the first column above the last row force a swap at the
        # first step; row 1's zero leading pair forces another one later.
        for k in range(n - 1):
            rows[k][0] = F(0)
        if n > 2:
            rows[1][:2] = [F(0), F(0)]
    elif kind == "negative-pivots":
        for k in range(n):
            rows[k][k] = -abs(rows[k][k]) - 1
        rows = [[-c for c in row] for row in rows] if seed % 3 == 0 else rows
    rhs = [rational(rng, bound) for _ in range(n)]
    return rows, rhs


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["dense", "singular", "rank-deficient", "row-swaps", "negative-pivots"])
def test_integer_solve_equals_fraction_gauss_jordan(kind, n, seed):
    rows, rhs = seeded_system(kind, n, seed)
    expected = fraction_solve(rows, rhs)
    if kind in ("singular", "rank-deficient") and n > 1:
        assert expected is None
    assert solved(rows, rhs) == expected


@pytest.mark.parametrize(
    "make_points",
    [
        lambda: [tuple(map(F, p)) for p in HEXAGON_VERTICES],
        lambda: cube_cross_vertices(3),
        lambda: sphere_ball(random.Random(4), 4, 6, scale=10**6),
        lambda: sphere_ball(random.Random(5), 5, 5, scale=10**6),
    ],
    ids=["hexagon", "cube-cross-3d", "sphere-4d", "sphere-5d"],
)
def test_facet_scan_solves_equal_fraction_gauss_jordan(make_points):
    # The square systems of the facet scan, f . q_i = s_i over every n-subset
    # of a ball's integer points q_i = s_i p_i, in 2-D to 5-D: a subset with
    # an antipodal pair, or with points on a common plane through 0, is
    # singular.  den is |det| of the subset's integer rows.
    points = make_points()
    n = len(points[0])
    rows, scales = zip(*map(integer_point, points))
    singular = 0
    for subset in itertools.combinations(range(len(points)), n):
        expected = fraction_solve([points[i] for i in subset], [1] * n)
        solution = solve_square([rows[i] for i in subset], [scales[i] for i in subset])
        if expected is None:
            assert solution is None
            singular += 1
        else:
            num, den = solution
            assert den == abs(fraction_det([rows[i] for i in subset]))
            assert tuple(F(x, den) for x in num) == expected
    assert 0 < singular < math.comb(len(points), n)


def test_small_systems_by_hand():
    assert solve_square([[0, 1], [1, 0]], [2, 3]) == ((3, 2), 1)
    assert solve_square([[-2]], [4]) == ((-4,), 2)  # x = -2, with den > 0
    assert solve_square([[2, 4], [1, 2]], [1, 1]) is None
    assert solve_square([[0, 0], [0, 0]], [0, 0]) is None


def oracle_kernel(rows):
    """The null-space basis read from the Fraction RREF: one vector per
    column fc with no pivot, 1 at fc and -R[i][fc] at row i's pivot column."""
    if not rows:
        return ()
    ncols = len(rows[0])
    reduced, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def oracle_affine_rank(points):
    if len(points) <= 1:
        return 0
    return len(fraction_rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])[1])


def seeded_matrix(kind, shape, seed):
    """A rational matrix of the given kind and shape with denominators up to
    10^12 on odd seeds."""
    nrows, ncols = shape
    rng = random.Random(f"{kind}-{nrows}x{ncols}-{seed}")
    bound = 10**12 if seed % 2 else 9
    rows = [[rational(rng, bound) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero":
        rows = [[F(0)] * ncols for _ in range(nrows)]
    elif kind == "rank-deficient":
        rank = rng.randrange(min(nrows, ncols))
        basis = rows[:rank]
        rows = [
            [sum((w * b[k] for w, b in zip(weights, basis)), F(0)) for k in range(ncols)]
            for weights in ([rational(rng, bound) for _ in basis] for _ in range(nrows))
        ]
    elif kind == "zero-columns":
        for column in rng.sample(range(ncols), max(1, ncols // 2)):
            for row in rows:
                row[column] = F(0)
    elif kind == "dependent-columns":
        # A column that is a combination of the ones left of it has no pivot,
        # and later pivot steps must rescale the pivot rows above in it.
        for column in range(1, ncols, 2):
            a, b = rational(rng, bound), rational(rng, bound)
            for row in rows:
                row[column] = a * row[column - 1] + b * row[0]
    elif kind == "row-swaps":
        # A zero leading column above the last row forces a swap at the first
        # step, and a zero leading pair in row 1 another one later.
        for row in rows[:-1]:
            row[0] = F(0)
        if nrows > 2:
            rows[1][:2] = [F(0)] * len(rows[1][:2])
    elif kind == "negative-pivots":
        for k in range(min(nrows, ncols)):
            rows[k][k] = -abs(rows[k][k]) - 1
    elif kind == "corank":
        # Rank one or two below full, as the rank-deficient operators whose
        # kernel the kernel condition reads: a product of two dense factors.
        rank = max(min(nrows, ncols) - 1 - seed // 2, 0)
        left = [[rational(rng, bound) for _ in range(rank)] for _ in range(nrows)]
        right = [[rational(rng, bound) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum((a * b[k] for a, b in zip(weights, right)), F(0)) for k in range(ncols)] for weights in left]
    return tuple(tuple(row) for row in rows)


SHAPES = [(1, 1), (1, 5), (5, 1), (2, 6), (6, 2), (3, 3), (4, 6), (6, 4), (7, 7), (9, 9)]
KINDS = ["dense", "zero", "rank-deficient", "zero-columns", "dependent-columns", "row-swaps", "negative-pivots", "corank"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", KINDS)
def test_integer_rank_kernel_and_affine_rank_equal_fraction_gauss_jordan(kind, shape, seed):
    rows = seeded_matrix(kind, shape, seed)
    rank = len(fraction_rref(rows)[1])
    if kind == "zero":
        assert rank == 0
    assert matrix_rank(rows) == rank
    basis = kernel_basis(rows)
    assert tuple(basis) == oracle_kernel(rows)
    assert affine_rank(rows) == oracle_affine_rank(rows)
    # The integer kernel of the rows over their common denominator: each
    # vector is ``size`` > 0 times the Fraction one, whose entry at its free
    # column is 1.
    int_rows = integer_rows(rows)[1]
    size, kernel = integer_kernel(int_rows)
    assert size > 0 and len(kernel) == len(basis)
    for v, b in zip(kernel, basis):
        assert all(type(c) is int for c in v)
        assert v == tuple(size * c for c in b)
    if 0 < rank == shape[0]:
        # Every row is a pivot row, so the last pivot is the minor on the
        # pivot columns.
        pivots = fraction_rref(rows)[1]
        assert size == abs(fraction_det([[row[c] for c in pivots] for row in int_rows]))


def test_the_battery_reaches_the_kernel_condition_ranks():
    # decide's kernel conditions eliminate 9 x 9 operators of rank 8 and 7.
    ranks = {matrix_rank(seeded_matrix("corank", (9, 9), seed)) for seed in range(4)}
    assert ranks == {8, 7}


def test_the_kernel_battery_reaches_a_negative_last_pivot():
    # A kernel read with d in place of |d| is a negative multiple of the
    # Fraction basis exactly when the last pivot is negative; the battery
    # above must hold such cases.
    negative = 0
    for kind in KINDS:
        for shape in SHAPES:
            for seed in range(4):
                rows = [list(row) for row in integer_rows(seeded_matrix(kind, shape, seed))[1]]
                pivots, d = _echelon(rows, shape[1])
                negative += d < 0 and len(pivots) < shape[1]
    assert negative >= 20


def test_an_inexact_back_substitution_raises(monkeypatch):
    # Every division of the back-substitution is exact only when the value
    # at the free column is a multiple of the last pivot; an echelon form
    # that reports 1 in place of its last pivot 2 leaves a remainder.
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows, ncols: (echelon(rows, ncols)[0], 1))
    with pytest.raises(InternalCheckError):
        integer_kernel([[2, 1]])
    with pytest.raises(InternalCheckError):
        solve_square([[2]], [1])


def test_empty_and_by_hand_ranks_and_kernels():
    assert matrix_rank(()) == 0 and kernel_basis(()) == [] and affine_rank(()) == 0
    assert matrix_rank(((),)) == 0 and kernel_basis(((),)) == []
    assert affine_rank(((F(3), F(-1)),)) == 0
    # Column 0 has no pivot, and column 2's pivot row needs a swap; the
    # kernel entries are -R[i][fc] with R = [[0, 1, 0, -1/2], [0, 0, 1, 3/2]].
    m = ((F(0), F(0), F(2), F(3)), (F(0), F(2), F(0), F(-1)))
    assert matrix_rank(m) == 2
    assert kernel_basis(m) == [(F(1), F(0), F(0), F(0)), (F(0), F(1, 2), F(-3, 2), F(1))]
    # Column 1 has no pivot; the pivot step of column 2 rescales row 0 there.
    assert kernel_basis(((F(1), F(2), F(0)), (F(0), F(0), F(3)))) == [(F(-2), F(1), F(0))]
    # The last pivot is -2, so the integer kernel is scaled by |d| = 2.
    assert integer_kernel([[-2, 1, 0]]) == (2, [(1, 2, 0), (0, 0, 2)])
    assert kernel_basis(((F(-2), F(1), F(0)),)) == [(F(1, 2), F(1), F(0)), (F(0), F(0), F(1))]
    # Ints and floats are read exactly, as Fractions.
    assert matrix_rank([[1, 0.5], [2, 1]]) == 1
    assert affine_rank([(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))]) == 1


def test_integer_rows_and_affine_rank_read_int_and_float_entries_exactly():
    assert integer_point((1, 0.5, F(-1, 3))) == ((6, 3, -2), 6)
    assert integer_rows([(1, 0.5), (F(1, 3), -2)]) == (6, ((6, 3), (2, -12)))
    assert integer_rows([(0.1,)]) == (2**55, ((3602879701896397,),))
    assert affine_rank([(1, 0), (0, 1), (0.5, 0.5)]) == 1
    # The binary 0.1 and 0.9 sum to 1 + 2^-55, so this third point is off the
    # line through the first two, and the rank is 2; as Fractions 1/10 and
    # 9/10 it is on it.
    assert F(0.1) + F(0.9) == 1 + F(1, 2**55)
    assert affine_rank([(1, 0), (0, 1), (0.1, 0.9)]) == 2
    assert affine_rank([(1, 0), (0, 1), (F(1, 10), F(9, 10))]) == 1
