"""Supporting-functional sets J(x) and smoothness.

J(x) is the set of norm-one functionals attaining the norm at x.  On
polyhedral-like spaces it is a face of the dual unit ball and is returned by
its (exact, irredundant) vertex list; on lp spaces with 1 < p < infinity it
is the singleton gradient functional.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import DimensionMismatch, InputError
from .linalg import MINUS_ONE, ONE, ZERO, Vec, dot, integer_point, is_zero_vec, vec
from .spaces import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    MAX_CUBE_DIM,
    SpaceSpec,
    _cross_polytope_vertices,
    _integer_norm_and_face,
    _norm_and_face,
    _polar_rows,
    dual_norm,
    float_path,
    is_exact,
    norm,
    require_dim,
    sgn,
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
    if is_exact(space):
        return SupportSet(x, _exact_vertices(space, x), EXACT)
    return SupportSet(x, (_lp_gradient(space, x),), FLOAT)


def _exact_vertices(space: SpaceSpec, x: Vec) -> tuple[Vec, ...]:
    """The vertex list of J(x) on an exact space.  On l1 and l-inf it reads
    only signs and sizes, so x may hold ints as well as Fractions."""
    if space.kind == "polyhedral":
        return _norm_and_face(space, x)[1]
    if space.p == 1:
        return tuple(map(_signs, _box_vertices(x)))
    value, cross = max(map(abs, x)), _cross_polytope_vertices(space.dim)
    return tuple(sorted(cross[2 * i + (c < 0)] for i, c in enumerate(x) if abs(c) == value))


def _box_vertices(x) -> Iterator[tuple[int, ...]]:
    """The vertices of J(x) on l1 as integer sign rows, in sorted order, made
    one at a time: the dual cube's sign vectors with the signs pinned to
    sgn(x_i) on the support of x and free elsewhere.  They differ only on
    the zeros of x, where `itertools.product` runs through -1 < 1 in
    lexicographic order, so no sort is needed.  The guard on the number of
    zeros is checked at the call, before any vertex is made."""
    zeros = [i for i, c in enumerate(x) if c == 0]
    if len(zeros) > MAX_CUBE_DIM:
        raise InputError("dim_too_large", "2^(#zeros) support vertices exceed the guard")
    base = list(map(sgn, x))

    def filled(signs):
        f = list(base)
        for pos, s in zip(zeros, signs):
            f[pos] = s
        return tuple(f)

    return map(filled, itertools.product((-1, 1), repeat=len(zeros)))


_SIGNS = (ZERO, ONE, MINUS_ONE)


def _signs(row: tuple[int, ...]) -> Vec:
    """A row of entries 0, 1 and -1 as the shared Fractions 0, 1 and -1."""
    return tuple([_SIGNS[c] for c in row])


def _integer_key(space: SpaceSpec, q: tuple[int, ...], s: int) -> tuple[tuple[int, ...], int, int]:
    """(face, n, d) for x = q / s on an exact space, q a nonzero integer
    vector and s > 0 an integer, all in ints: ||x|| = n / d in lowest terms,
    and ``face`` names J(x) as a face of the dual ball.

    J does not change under positive scaling, so the face is read from q
    itself: on l1 it is the sign pattern of q (J(x) is the box pinned to it),
    on l-inf the indices 2i + (q_i < 0) of the entries of largest size
    (J(x) is the hull of the signed units sgn(q_i) e_i there), and on a
    polyhedral ball the indices of the polar facets that attain the norm
    (`spaces._integer_norm_and_face`).  Each face names one J(x) and the
    reduced pair names one ||x||, so equal keys are equal (||x||, J(x)).
    """
    if space.kind == "polyhedral":
        top, d, face = _integer_norm_and_face(space, q)
        s *= d
    elif space.p == 1:
        top, face = sum(map(abs, q)), tuple(map(sgn, q))
    else:
        top = max(map(abs, q))
        face = tuple(2 * i + (c < 0) for i, c in enumerate(q) if abs(c) == top)
    g = math.gcd(top, s)
    return face, top // g, s // g


def _face_vertices(space: SpaceSpec, face: tuple[int, ...]) -> Iterator[Vec]:
    """The vertices of J(x), in sorted order, from its face as `_integer_key`
    names it: the polar facets it indexes on a polyhedral ball (in polar
    order, which is sorted), the signed units on l-inf, and on l1 the box
    pinned to the sign pattern, made one at a time (`_box_vertices`), so a
    caller that stops early never lists the other 2^(#zeros) - 1."""
    if space.kind == "polyhedral":
        facets = _polar_rows(space)[0]
        return (facets[i] for i in face)
    if space.p == 1:
        return map(_signs, _box_vertices(face))
    cross = _cross_polytope_vertices(space.dim)
    return iter(sorted(cross[i] for i in face))


def _face_rows(space: SpaceSpec, face: tuple[int, ...]) -> tuple[int, Iterator[tuple[int, ...]]]:
    """(D, rows): the vertices g of J(x) named by its face (`_integer_key`),
    in the order of `_face_vertices`, as integer rows D g: polar facet rows
    (`_polar_rows`), or with D = 1 the signed units on l-inf and the sign
    box on l1, made one at a time (`_box_vertices`)."""
    if space.kind == "polyhedral":
        _, d, rows = _polar_rows(space)
        return d, (rows[i] for i in face)
    if space.p == 1:
        return 1, _box_vertices(face)
    return 1, iter(sorted(_signed_unit(space.dim, i) for i in face))


def _signed_unit(n: int, i: int) -> tuple[int, ...]:
    """The integer row of e_k (i = 2k) or -e_k (i = 2k + 1)."""
    return tuple([(-1 if i % 2 else 1) if k == i // 2 else 0 for k in range(n)])


def _row_vertex(space: SpaceSpec, d: int, row: tuple[int, ...]) -> Vec:
    """The vertex row / d of J(x) for an integer row of `_face_rows`: on l1
    and l-inf a vector of the shared Fractions 0, 1 and -1."""
    if space.kind == "polyhedral":
        return tuple([Fraction(c, d) if c else ZERO for c in row])
    return _signs(row)


def _single_functional(space: SpaceSpec, face: tuple[int, ...]) -> Optional[Vec]:
    """The one functional q of J(x) when the face of `_integer_key` names a
    singleton J(x) = {q} (x is a smooth point), else None; q is the shared
    vertex `_face_vertices` lists.  On l1 the face is the sign pattern
    of x, one functional when it has no zero; on l-inf and on a polyhedral
    ball the face has one index, a signed unit or a polar facet."""
    if space.p == 1:
        return _signs(face) if all(face) else None
    if len(face) != 1:
        return None
    if space.kind == "polyhedral":
        return _polar_rows(space)[0][face[0]]
    return _cross_polytope_vertices(space.dim)[face[0]]


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
    if not is_exact(space):
        return True
    return _single_functional(space, _integer_key(space, integer_point(vec(x))[0], 1)[0]) is not None


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

    x = q / s and y = v / c are read into integers once and the extremes
    from the face of J(q) = J(x) and v (`_face_extremes`); Fractions are
    built only for what is returned.  x and y convert exactly (`linalg.vec`),
    so float input is decided in rationals.
    """
    x, y = vec(x), vec(y)
    _require_base_point(space, x)
    require_dim(space, y)
    if not is_exact(space):
        raise InputError("not_polyhedral", f"{space!r} is not a polyhedral space")
    v, c = integer_point(y)
    d, low, high = _face_extremes(space, _integer_key(space, integer_point(x)[0], 1)[0], v)
    return tuple((Fraction(value, d * c), _row_vertex(space, d, row)) for value, row in (low, high))


def _l1_box(x, y) -> tuple:
    """(pinned, free) for J(x) on l1, the box of sign vectors pinned to
    sgn(x_i) where x_i != 0 and free elsewhere: f(y) ranges over
    [pinned - free, pinned + free], with pinned = sum sgn(x_i) y_i over the
    support of x and free = sum |y_i| over its zeros.  It reads signs and
    sizes only, so x and y may be Fractions or ints, and x is nonzero."""
    pinned = sum(yc if c > 0 else -yc for c, yc in zip(x, y) if c)
    free = sum(abs(yc) for c, yc in zip(x, y) if not c)
    return pinned, free


def _face_extremes(space: SpaceSpec, face: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, tuple, tuple]:
    """(D, (lo, r_lo), (hi, r_hi)): D times the min and max of f(v) over J(x),
    named by its face (`_integer_key`), for an integer vector v, each with
    the row D f of a vertex attaining it (`_face_rows`), all in ints.  Ties
    go to the least row for the min and the greatest for the max, as in
    `_vertex_extremes`: the rows D f order as the vertices f do.

    On l1 the face is the sign pattern of x, and the range is that of
    `_l1_box`; on the zeros of x, r_lo takes -sgn(v_i) and r_hi takes
    sgn(v_i), with -1 and 1 where v_i = 0 too.  On l-inf the face holds the
    indices 2i + (x_i < 0) of the signed units sgn(x_i) e_i, each giving
    sgn(x_i) v_i; on a polyhedral ball the indices of the polar facets f
    that attain the norm, each giving (D f).v (`_polar_rows`).
    """
    if space.kind == "polyhedral":
        _, d, rows = _polar_rows(space)
        values = [(sum(map(mul, rows[i], v)), rows[i]) for i in face]
    elif space.p == 1:
        pinned, free = _l1_box(face, v)
        r_lo = tuple([c or (1 if vc < 0 else -1) for c, vc in zip(face, v)])
        r_hi = tuple([c or (-1 if vc < 0 else 1) for c, vc in zip(face, v)])
        return 1, (pinned - free, r_lo), (pinned + free, r_hi)
    else:
        d = 1
        values = [(-v[i // 2] if i % 2 else v[i // 2], _signed_unit(space.dim, i)) for i in face]
    return d, min(values), max(values)


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
