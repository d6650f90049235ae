"""The fraction-free integer solver, checked against Gauss-Jordan over Fractions."""

import math
import random
from fractions import Fraction

import pytest

from bjlevel.linalg import solve_square

from ._util import fraction_solve

F = Fraction


def integer_system(rows, rhs):
    """Each equation scaled by the lcm of its denominators."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        s = math.lcm(*(c.denominator for c in (*row, b)))
        out_rows.append([int(c * s) for c in row])
        out_rhs.append(int(b * s))
    return out_rows, out_rhs


def solved(rows, rhs):
    """solve_square on the integer form of a rational system, as Fractions."""
    solution = solve_square(*integer_system(rows, rhs))
    if solution is None:
        return None
    num, den = solution
    assert den > 0
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


def test_small_systems_by_hand():
    assert solve_square([[0, 1], [1, 0]], [2, 3]) == ((3, 2), 1)
    assert solve_square([[-2]], [4]) == ((-4,), 2)  # x = -2, with den > 0
    assert solve_square([[2, 4], [1, 2]], [1, 1]) is None
    assert solve_square([[0, 0], [0, 0]], [0, 0]) is None
