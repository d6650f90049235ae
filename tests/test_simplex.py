"""The exact LP solver, cross-checked against brute-force vertex enumeration."""

import itertools
from fractions import Fraction

import pytest

from bjlevel import RationalStream
from bjlevel.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, feasible_point, solve_standard_lp

from ._util import fraction_solve

F = Fraction


def test_simple_feasible_system():
    # x1 + x2 = 1 with x >= 0
    point = feasible_point([[F(1), F(1)]], [F(1)])
    assert point is not None
    assert sum(point) == 1 and all(c >= 0 for c in point)


def test_infeasible_system():
    # x1 + x2 = -1 impossible with x >= 0 ... normalized to x1 + x2 = 1, -x1 - x2 = 1
    assert feasible_point([[F(1), F(1)], [F(-1), F(-1)]], [F(1), F(1)]) is None


def test_redundant_rows_are_tolerated():
    rows = [[F(1), F(2)], [F(2), F(4)], [F(1), F(0)]]
    rhs = [F(3), F(6), F(1)]
    point = feasible_point(rows, rhs)
    assert point == (F(1), F(1))


def test_optimization_minimum():
    # min x1 + 2 x2 s.t. x1 + x2 = 3
    res = solve_standard_lp([[F(1), F(1)]], [F(3)], cost=[F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.value == 3 and res.x == (F(3), F(0))


def test_unbounded_detected():
    # min -x1 s.t. x1 - x2 = 0 (x1 = x2 can grow without bound)
    res = solve_standard_lp([[F(1), F(-1)]], [F(0)], cost=[F(-1), F(0)])
    assert res.status == UNBOUNDED


def test_degenerate_cycling_guard():
    # Classic degenerate tableau; Bland's rule must terminate.
    rows = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    rhs = [F(0), F(0), F(1)]
    cost = [F(-3, 4), F(20), F(-1, 2), F(6), F(0), F(0), F(0)]
    res = solve_standard_lp(rows, rhs, cost=cost)
    assert res.status == OPTIMAL
    assert res.value == F(-5, 4)


def _brute_force_best(rows, rhs, cost):
    """Enumerate basic solutions directly; None when infeasible."""
    m, n = len(rows), len(rows[0])
    best = None
    for cols in itertools.combinations(range(n), m):
        square = tuple(tuple(row[c] for c in cols) for row in rows)
        sol = fraction_solve(square, rhs)
        if sol is None or any(c < 0 for c in sol):
            continue
        value = sum(cost[c] * s for c, s in zip(cols, sol))
        if best is None or value < best:
            best = value
    return best


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_match_basic_solution_enumeration(seed):
    stream = RationalStream(seed)
    m, n = 3, 6
    rows = [[stream.next_fraction() for _ in range(n)] for _ in range(m)]
    rhs = [abs(stream.next_fraction()) for _ in range(m)]
    cost = [abs(stream.next_fraction()) for _ in range(n)]
    res = solve_standard_lp(rows, rhs, cost=cost)
    expected = _brute_force_best(rows, rhs, cost)
    if expected is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.value == expected
