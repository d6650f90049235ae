"""The exact LP solver, cross-checked against brute-force vertex enumeration."""

import itertools
from fractions import Fraction

import pytest

from bjlevel import RationalStream, simplex
from bjlevel.linalg import dot
from bjlevel.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _is_farkas,
    convex_weights,
    convex_weights_or_farkas,
    solve_standard_lp,
)

from ._util import feasible_point, fraction_solve

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


def test_convex_weights_are_nonnegative_and_sum_to_one_per_block():
    # conv{(0,0), (2,0), (0,2)} - conv{(1,1), (3,3)} contains 0 at (1,1).
    blocks = [[(F(0), F(0)), (F(-2), F(0)), (F(0), F(-2))], [(F(1), F(1)), (F(3), F(3))]]
    weights = convex_weights(blocks, (F(0), F(0)))
    assert [len(w) for w in weights] == [3, 2]
    for w in weights:
        assert sum(w) == 1 and all(c >= 0 for c in w)
    total = [sum(c * col[k] for w, block in zip(weights, blocks) for c, col in zip(w, block)) for k in range(2)]
    assert total == [0, 0]


def test_convex_weights_infeasible_is_none():
    # The segment from (1,0) to (2,0) never reaches the origin.
    assert convex_weights([[(F(1), F(0)), (F(2), F(0))]], (F(0), F(0))) is None


@pytest.mark.parametrize("seed", range(12))
def test_convex_weights_match_hand_built_two_block_rows(seed):
    """The rows a two-block level LP used to build by hand, solved through
    feasible_point, give the same weights as convex_weights."""
    stream = RationalStream(seed)
    verdicts = []
    for _ in range(8):
        dim, np_, nq = 3, 1 + stream.next_int(4), 1 + stream.next_int(4)
        scale = stream.next_positive_fraction()
        p_verts = [stream.next_nonzero_vector(dim) for _ in range(np_)]
        adj = [stream.next_nonzero_vector(dim) for _ in range(nq)]
        if stream.next_int(2):
            adj[-1] = tuple(scale * c for c in p_verts[0])  # plant a solution
        rows = [[-scale * p[k] for p in p_verts] + [a[k] for a in adj] for k in range(dim)]
        rows.append([F(1)] * np_ + [F(0)] * nq)
        rows.append([F(0)] * np_ + [F(1)] * nq)
        point = feasible_point(rows, [F(0)] * dim + [F(1), F(1)])
        weights = convex_weights([[tuple(-scale * c for c in p) for p in p_verts], adj], (F(0),) * dim)
        if point is None:
            assert weights is None
        else:
            assert weights == [point[:np_], point[np_:]]
        verdicts.append(point is not None)
    assert set(verdicts) == {True, False}


def _separates(rows, rhs, y):
    """y.A_j <= 0 for every column A_j and y.b > 0, computed here."""
    columns_ok = all(sum(yi * row[j] for yi, row in zip(y, rows)) <= 0 for j in range(len(rows[0])))
    return columns_ok and sum(yi * bi for yi, bi in zip(y, rhs)) > 0


def test_random_infeasible_systems_carry_a_farkas_vector():
    """Seeded systems with signed right-hand sides, each with one redundant
    row (the sum of its first two), some with a cost: every infeasible one
    returns a vector that separates, checked here, and feasible ones none.
    The verdict is checked against basic-solution enumeration."""
    stream = RationalStream(97)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, "flipped row used": 0}
    for trial in range(200):
        m, n = 2 + stream.next_int(2), 3 + stream.next_int(3)
        rows = [[stream.next_fraction() for _ in range(n)] for _ in range(m)]
        rhs = [stream.next_fraction() for _ in range(m)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        rhs.append(rhs[0] + rhs[1])
        cost = [abs(stream.next_fraction()) for _ in range(n)] if trial % 2 else None
        res = solve_standard_lp(rows, rhs, cost=cost)
        feasible = _brute_force_best(rows[:-1], rhs[:-1], [F(0)] * n) is not None
        assert (res.status == OPTIMAL) == feasible
        seen[res.status] += 1
        if feasible:
            assert res.farkas is None
        else:
            assert len(res.farkas) == m + 1 and _separates(rows, rhs, res.farkas)
            seen["flipped row used"] += any(yi != 0 and bi < 0 for yi, bi in zip(res.farkas, rhs))
    assert all(count >= 10 for count in seen.values()), seen


def test_farkas_check_needs_a_strictly_positive_value_on_the_rhs():
    # x1 + x2 = 1 and -x1 - x2 = 1: y = (1, 1) gives y.A = 0 and y.b = 2.
    rows, rhs = [[F(1), F(1)], [F(-1), F(-1)]], [F(1), F(1)]
    assert _is_farkas(rows, rhs, (F(1), F(1)))
    assert solve_standard_lp(rows, rhs).farkas is not None
    assert not _is_farkas(rows, rhs, (F(0), F(0)))  # y.b = 0
    assert not _is_farkas(rows, [F(1), F(-1)], (F(1), F(1)))  # y.b = 0
    assert not _is_farkas(rows, rhs, (F(-1), F(-1)))  # y.b < 0
    assert not _is_farkas([[F(1), F(0)]], [F(1)], (F(1),))  # y.A_1 > 0


def test_the_farkas_vector_is_read_and_checked_only_when_asked_for(monkeypatch):
    checks = []
    check = simplex._is_farkas
    monkeypatch.setattr(simplex, "_is_farkas", lambda *args: checks.append(args) or check(*args))
    # (2, 2) lies outside the segment from e1 to e2.
    block, target = [(F(1), F(0)), (F(0), F(1))], (F(2), F(2))
    assert convex_weights([block], target) is None
    assert checks == []
    weights, y = convex_weights_or_farkas([block], target)
    assert weights is None and len(checks) == 1
    z = y[:2]
    assert all(dot(z, c) < dot(z, target) for c in block)
    result = solve_standard_lp([[F(1), F(1)], [F(-1), F(-1)]], [F(1), F(1)])
    assert result.farkas == result.farkas and len(checks) == 2
    assert solve_standard_lp([[F(1), F(1)]], [F(1)]).farkas is None
