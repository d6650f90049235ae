"""Exact-rational simplex for small dense problems.

Solves  min c.x  s.t.  A x = b, x >= 0  entirely over Fractions using the
two-phase method with Bland's anti-cycling rule.  Rows stay at desk scale
(the dimension plus one per convex block, about a dozen), but columns need
not: the level LP at a vertex of l1^12 takes one per vertex of J(x) and of
J(Tx), 2^11 + 2^11 = 4,096.  The tableau is dense, with reduced costs
recomputed per iteration, which keeps the implementation easy to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from .errors import InternalCheckError
from .linalg import ONE, ZERO, dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class LPResult:
    status: str
    x: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]
    _read_farkas: Optional[Callable[[], tuple[Fraction, ...]]] = field(default=None, repr=False, compare=False)

    @property
    def farkas(self) -> Optional[tuple[Fraction, ...]]:
        """Infeasible only: a Farkas vector of the problem (see _is_farkas),
        read from the final phase-1 tableau and checked on first use, so a
        caller that only needs the status pays for neither."""
        return None if self._read_farkas is None else self._read_farkas()


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pv = tableau[row][col]
    tableau[row] = [v / pv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[row])]
    basis[row] = col


def _reduced_costs(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    ncols = len(cost)
    reduced = list(cost)
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb != 0:
            row = tableau[i]
            for j in range(ncols):
                if row[j] != 0:
                    reduced[j] -= cb * row[j]
    return reduced


def _iterate(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    allowed: int,
) -> str:
    """Run Bland-rule pivots on columns < allowed until optimal/unbounded."""
    while True:
        reduced = _reduced_costs(tableau, basis, cost)
        entering = next((j for j in range(allowed) if reduced[j] < 0), None)
        if entering is None:
            return OPTIMAL
        pivot_row = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row is None:
            return UNBOUNDED
        _pivot(tableau, basis, pivot_row, entering)


def solve_standard_lp(
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
    cost: Optional[Sequence[Fraction]] = None,
) -> LPResult:
    """Solve min cost.x s.t. a_eq x = b_eq, x >= 0 (cost None = pure feasibility)."""
    nrows = len(a_eq)
    ncols = len(a_eq[0]) if nrows else (len(cost) if cost else 0)
    if nrows == 0:
        x = (ZERO,) * ncols
        val = sum((c * xi for c, xi in zip(cost, x)), ZERO) if cost else ZERO
        return LPResult(OPTIMAL, x, val)

    tableau: list[list[Fraction]] = []
    for row, rhs in zip(a_eq, b_eq, strict=True):
        row = list(row) + [rhs]
        if rhs < 0:
            row = [-v for v in row]
        tableau.append(row)

    # Phase 1: artificial variable per row, minimize their sum.
    for i, row in enumerate(tableau):
        row[ncols:ncols] = [ONE if j == i else ZERO for j in range(nrows)]
    basis = list(range(ncols, ncols + nrows))
    phase1_cost = [ZERO] * ncols + [ONE] * nrows
    status = _iterate(tableau, basis, phase1_cost, ncols + nrows)
    assert status == OPTIMAL  # phase-1 objective is bounded below by zero
    infeasibility = sum((tableau[i][-1] for i in range(len(tableau)) if basis[i] >= ncols), ZERO)
    if infeasibility != 0:

        def read_farkas() -> tuple[Fraction, ...]:
            # The artificial column of row i has reduced cost 1 - pi_i, pi
            # being the phase-1 multipliers of the rows flipped to b_i >= 0:
            # optimality gives pi.(flipped A_j) <= 0, and pi.(flipped b) is
            # the optimum, > 0.
            reduced = _reduced_costs(tableau, basis, phase1_cost)
            y = tuple(r - ONE if rhs < 0 else ONE - r for rhs, r in zip(b_eq, reduced[ncols:]))
            if not _is_farkas(a_eq, b_eq, y):
                raise InternalCheckError("the phase-1 Farkas vector fails its defining inequalities")
            return y

        return LPResult(INFEASIBLE, None, None, cache(read_farkas))

    # Drive leftover (zero-valued) artificials out of the basis, then drop them.
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if col is None:
                tableau.pop(i)
                basis.pop(i)
            else:
                _pivot(tableau, basis, i, col)
    tableau = [row[:ncols] + [row[-1]] for row in tableau]

    if cost is None:
        cost = [ZERO] * ncols
    else:
        cost = list(cost)
        status = _iterate(tableau, basis, cost, ncols)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None)

    x = [ZERO] * ncols
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    value = sum((c * xi for c, xi in zip(cost, x)), ZERO)
    return LPResult(OPTIMAL, tuple(x), value)


def _is_farkas(a_eq, b_eq, y) -> bool:
    """The Farkas certificate of infeasibility: y.A_j <= 0 for every column
    A_j of a_eq, and y.b_eq > 0."""
    return dot(y, b_eq) > 0 and all(dot(y, column) <= 0 for column in zip(*a_eq))


def convex_weights(
    blocks: Sequence[Sequence[Sequence[Fraction]]], target: Sequence[Fraction]
) -> Optional[list[tuple[Fraction, ...]]]:
    """Convex weights w_b on each block's columns with sum_b sum_i w_b[i] c_b[i]
    = target, one tuple per block, or None when there are none."""
    return _convex_weights_lp(blocks, target)[0]


def convex_weights_or_farkas(
    blocks: Sequence[Sequence[Sequence[Fraction]]], target: Sequence[Fraction]
) -> tuple[Optional[list[tuple[Fraction, ...]]], Optional[tuple[Fraction, ...]]]:
    """(weights, None) as `convex_weights` gives them, or (None, y) with y the
    Farkas vector of the same solve when there are none.

    Posed as A x = b, x >= 0 with one row per coordinate of ``target``, then
    one row per block fixing its weights' sum to 1; the columns follow the
    blocks in order.  So y = (z, t_1, ..., t_B) with z.c + t_b <= 0 for every
    column c of block b and z.target + sum_b t_b > 0; for one block, z
    strictly separates ``target`` from the block's convex hull.
    """
    weights, res = _convex_weights_lp(blocks, target)
    return weights, res.farkas


def _convex_weights_lp(
    blocks: Sequence[Sequence[Sequence[Fraction]]], target: Sequence[Fraction]
) -> tuple[Optional[list[tuple[Fraction, ...]]], LPResult]:
    """The weights of `convex_weights`, or None, with the LP result they came from."""
    rows = [[c[k] for block in blocks for c in block] for k in range(len(target))]
    for i in range(len(blocks)):
        rows.append([ONE if j == i else ZERO for j, block in enumerate(blocks) for _ in block])
    res = solve_standard_lp(rows, [*target, *(ONE for _ in blocks)])
    if res.status != OPTIMAL:
        return None, res
    out, start = [], 0
    for block in blocks:
        out.append(res.x[start : start + len(block)])
        start += len(block)
    return out, res
