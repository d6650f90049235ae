"""Supporting-functional sets J(x) and smoothness.

J(x) is the set of norm-one functionals attaining the norm at x.  On exact
spaces it is a face of the dual unit ball, which the space's ball object
names (`spaces.exact_ball`): `support_set` lists the face's exact,
irredundant vertices, and the other readers here decide from its name and
integer rows without listing it.  On lp spaces with 1 < p < infinity J(x) is
the singleton gradient functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DimensionMismatch, InputError
from .linalg import Vec, dot, integer_point, is_zero_vec, vec
from .spaces import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    SpaceSpec,
    dual_norm,
    exact_ball,
    float_path,
    is_exact,
    norm,
    require_dim,
)

Functional = tuple  # Fractions in exact mode, floats in float mode


@dataclass(frozen=True, slots=True)
class SupportSet:
    """The polytope J(x) of supporting functionals at a base point.

    ``vertices`` is the V-representation: every functional in J(x) is a
    convex combination of them.  ``mode`` records whether entries are exact
    rationals or floats; ``warning`` flags near-degenerate float decisions.
    """

    base_point: Vec
    vertices: tuple[Functional, ...]
    mode: str
    warning: str | None = None


def _require_base_point(space: SpaceSpec, x: Vec) -> None:
    require_dim(space, x)
    if is_zero_vec(x):
        raise InputError("zero_vector", "J(x) is undefined at x = 0")


def support_set(space: SpaceSpec, x: Vec) -> SupportSet:
    _require_base_point(space, x)
    ball = exact_ball(space)
    if ball is None:
        return SupportSet(x, (_lp_gradient(space, x),), FLOAT)
    return SupportSet(x, tuple(ball.face_vertices(space, ball.face(space, x))), EXACT)


@float_path
def _lp_gradient(space: SpaceSpec, x: Vec) -> tuple[float, ...]:
    if space.p == 2:
        nrm = norm(space, x)
        return tuple(float(c) / nrm for c in x)
    pf = float(space.p)
    nrm = norm(space, x)
    scale = nrm ** (pf - 1.0)
    return tuple(
        math.copysign(abs(float(c)) ** (pf - 1.0), float(c)) / scale if c != 0 else 0.0
        for c in x
    )


def is_smooth(space: SpaceSpec, x: Vec) -> bool:
    """True when J(x) is a singleton (the norm is Gateaux differentiable at x),
    read without listing J(x): on l1 no entry of x is 0, on l-inf one entry
    has the largest size, on a polyhedral ball one facet attains the norm,
    and an lp norm with 1 < p < infinity is smooth everywhere."""
    _require_base_point(space, x)
    ball = exact_ball(space)
    return ball is None or ball.single(space, ball.face(space, x)) is not None


def eval_range(
    support: SupportSet, y: Vec
) -> tuple[Union[Fraction, float], Union[Fraction, float]]:
    """(min, max) of f(y) over J(x); extrema over the polytope = over vertices.
    On an exact support set y converts exactly (`linalg.vec`), so float
    input is decided in rationals."""
    if len(y) != len(support.base_point):
        raise DimensionMismatch("vector dimension does not match the support set")
    if support.mode == EXACT:
        y = vec(y)
        values = [dot(f, y) for f in support.vertices]
    else:
        values = [sum(fc * float(yc) for fc, yc in zip(f, y)) for f in support.vertices]
    return min(values), max(values)


def _vertex_extremes(vertices: tuple[Vec, ...], y: Vec) -> tuple[tuple[Fraction, Vec], tuple[Fraction, Vec]]:
    """((min f(y), f_lo), (max f(y), f_hi)) over a vertex list.  A tie in
    f(y) goes to the least vertex for the min and the greatest for the max,
    as tuples compare."""
    values = [(dot(f, y), f) for f in vertices]
    return min(values), max(values)


def support_extremes(space: SpaceSpec, x: Vec, y: Vec) -> tuple[tuple[Fraction, Vec], tuple[Fraction, Vec]]:
    """((lo, f_lo), (hi, f_hi)): the min and max of f(y) over J(x) on an
    exact space, each with a vertex of J(x) that attains it, ties broken as
    in `_vertex_extremes` over the sorted vertex list of `support_set`.

    y = v / c is read into integers once and the extremes from the face of
    J(x) and v (the ball's `extremes`); Fractions are built only for what is
    returned.  x and y convert exactly (`linalg.vec`), so float input is
    decided in rationals.
    """
    x, y = vec(x), vec(y)
    _require_base_point(space, x)
    require_dim(space, y)
    ball = exact_ball(space)
    if ball is None:
        raise InputError("not_polyhedral", f"{space!r} is not a polyhedral space")
    v, c = integer_point(y)
    d, low, high = ball.extremes(space, ball.face(space, x), v)
    return tuple((Fraction(value, d * c), ball.row_vertex(space, d, row)) for value, row in (low, high))


def support_range(space: SpaceSpec, x: Vec, y: Vec) -> tuple[Fraction, Fraction]:
    """(min, max) of f(y) over J(x) on an exact space: the values of
    `support_extremes`.  The extrema over the polytope J(x) are taken at its
    vertices, so this equals `eval_range` on `support_set(space, x)`."""
    (lo, _), (hi, _) = support_extremes(space, x, y)
    return lo, hi


def functional_in_support(space: SpaceSpec, x: Vec, f: Vec) -> bool:
    """Membership test f in J(x) (checks f(x) = ||x|| and ||f||* = 1), exact
    on an exact space, where x and f convert exactly (`linalg.vec`), so float
    input is decided in rationals."""
    require_dim(space, x)
    require_dim(space, f)
    if not is_exact(space):
        fx = sum(float(fc) * float(xc) for fc, xc in zip(f, x))
        return abs(fx - float(norm(space, x))) <= FLOAT_TOL and abs(dual_norm(space, f) - 1.0) <= FLOAT_TOL
    x, f = vec(x), vec(f)
    return dot(f, x) == norm(space, x) and dual_norm(space, f) == 1
