"""Supporting-functional sets J(x) and smoothness.

J(x) is the set of norm-one functionals attaining the norm at x.  On
polyhedral-like spaces it is a face of the dual unit ball and is returned by
its (exact, irredundant) vertex list; on lp spaces with 1 < p < infinity it
is the singleton gradient functional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import DimensionMismatch, InputError
from .linalg import MINUS_ONE, ONE, ZERO, Vec, dot, int_mat_vec, is_zero_vec, vec
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
        return tuple(_box_vertices(x))
    return tuple(sorted(f for _, f in _linf_face(space, x)))


def _box_vertices(x) -> Iterator[Vec]:
    """The vertices of J(x) on l1, in sorted order, made one at a time: the
    dual cube's sign vectors with the signs pinned on the support of x and
    free elsewhere, every entry one of the shared Fractions 1 and -1.  They
    differ only on the zeros of x, where `itertools.product` runs through
    -1 < 1 in lexicographic order, so no sort is needed.  The guard on the
    number of zeros is checked at the call, before any vertex is made."""
    zeros = [i for i, c in enumerate(x) if c == 0]
    if len(zeros) > MAX_CUBE_DIM:
        raise InputError("dim_too_large", "2^(#zeros) support vertices exceed the guard")
    base = _pinned_signs(x)

    def filled(signs):
        f = list(base)
        for pos, s in zip(zeros, signs):
            f[pos] = s
        return tuple(f)

    return map(filled, itertools.product((MINUS_ONE, ONE), repeat=len(zeros)))


def _pinned_signs(x: Vec) -> list[Fraction]:
    """sgn(x_i) as the shared Fractions 0, 1 and -1: the entries every
    functional of J(x) on l1 takes on the support of x."""
    return [(ZERO, ONE, MINUS_ONE)[sgn(c)] for c in x]


def _linf_face(space: SpaceSpec, x: Vec) -> list[tuple[int, Vec]]:
    """J(x) on l-inf, a face of the dual cross-polytope: (i, sgn(x_i) e_i)
    over the entries of largest size, each vertex taken from the shared
    vertex list (e_i at 2i, -e_i at 2i + 1), not built anew."""
    value = max(map(abs, x))
    cross = _cross_polytope_vertices(space.dim)
    return [(i, cross[2 * i + (c < 0)]) for i, c in enumerate(x) if abs(c) == value]


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


def _key_norm_and_vertices(space: SpaceSpec, key: tuple[tuple[int, ...], int, int]) -> tuple[Fraction, tuple[Vec, ...]]:
    """||x|| and the sorted vertex list of J(x) from the key of `_integer_key`."""
    face, n, d = key
    return Fraction(n, d), tuple(_face_vertices(space, face))


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
        return _box_vertices(face)
    cross = _cross_polytope_vertices(space.dim)
    return iter(sorted(cross[i] for i in face))


def _single_functional(space: SpaceSpec, face: tuple[int, ...]) -> Optional[Vec]:
    """The one functional q of J(x) when the face of `_integer_key` names a
    singleton J(x) = {q} (x is a smooth point), else None; q is the shared
    vertex `_key_norm_and_vertices` lists.  On l1 the face is the sign pattern
    of x, one functional when it has no zero; on l-inf and on a polyhedral
    ball the face has one index, a signed unit or a polar facet."""
    if space.p == 1:
        return tuple(_pinned_signs(face)) if all(face) else None
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
    if space.kind == "polyhedral":
        return len(_norm_and_face(space, x)[1]) == 1
    if space.p == 1:
        return all(x)
    value = max(map(abs, x))
    return sum(abs(c) == value for c in x) == 1


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

    On l1, J(x) is the box of sign vectors pinned to sgn(x_i) where x_i != 0,
    so the range is sum sgn(x_i) y_i -+ sum |y_i|, the first sum over the
    support of x and the second over its zeros.  It is read from x itself:
    on the zeros of x, f_lo takes -sgn(y_i) and f_hi takes sgn(y_i), with -1
    and 1 where y_i = 0 too.  On l-inf, J(x) is the hull of sgn(x_i) e_i over
    the entries of largest |x_i|, and f(y) = sgn(x_i) y_i there.  On a
    polyhedral ball the extremes are taken over the J(x) vertices of the
    cached polar scan.  x and y convert exactly (`linalg.vec`), so float
    input is decided in rationals.
    """
    x, y = vec(x), vec(y)
    _require_base_point(space, x)
    require_dim(space, y)
    if not is_exact(space):
        raise InputError("not_polyhedral", f"{space!r} is not a polyhedral space")
    if space.kind == "polyhedral":
        return _vertex_extremes(_norm_and_face(space, x)[1], y)
    if space.p == 1:
        pinned, free = _l1_box(x, y)
        signs = _pinned_signs(x)
        f_lo = tuple(s if s else (ONE if yc < 0 else MINUS_ONE) for s, yc in zip(signs, y))
        f_hi = tuple(s if s else (MINUS_ONE if yc < 0 else ONE) for s, yc in zip(signs, y))
        return (pinned - free, f_lo), (pinned + free, f_hi)
    values = [(f[i] * y[i], f) for i, f in _linf_face(space, x)]
    return min(values), max(values)


def _l1_box(x, y) -> tuple:
    """(pinned, free) for J(x) on l1, the box of sign vectors pinned to
    sgn(x_i) where x_i != 0 and free elsewhere: f(y) ranges over
    [pinned - free, pinned + free], with pinned = sum sgn(x_i) y_i over the
    support of x and free = sum |y_i| over its zeros.  It reads signs and
    sizes only, so x and y may be Fractions or ints, and x is nonzero."""
    pinned = sum(yc if c > 0 else -yc for c, yc in zip(x, y) if c)
    free = sum(abs(yc) for c, yc in zip(x, y) if not c)
    return pinned, free


def _integer_range(space: SpaceSpec, q: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int]:
    """(lo, hi), a positive multiple of the min and max of f(b) over J(x) on an
    exact space, for x = q / s and b = v / c (s, c > 0), q a nonzero integer
    vector and v an integer one; all in ints.  J(x) = J(q), since J does not
    change under positive scaling, and f(b) = f(v) / c: the range is that of
    `_face_range` on the face of q (`_integer_key`)."""
    return _face_range(space, _integer_key(space, q, 1)[0], v)


def _face_range(space: SpaceSpec, face: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int]:
    """(lo, hi), a positive multiple of the min and max of f(v) over J(x) on an
    exact space, for J(x) named by its face as `_integer_key` names it and an
    integer vector v; all in ints, with no vertex list and no scan.

    On l1 the face is the sign pattern of x, and the range is that of
    `_l1_box`; on l-inf it holds the indices 2i + (x_i < 0) of the signed
    units sgn(x_i) e_i, each giving sgn(x_i) v_i; on a polyhedral ball the
    indices of the polar facets f that attain the norm, each giving (D f).v,
    D times f(v) (`_polar_rows`).
    """
    if space.kind == "polyhedral":
        rows = _polar_rows(space)[2]
        values = int_mat_vec([rows[i] for i in face], v)
    elif space.p == 1:
        pinned, free = _l1_box(face, v)
        return pinned - free, pinned + free
    else:
        values = [-v[i // 2] if i % 2 else v[i // 2] for i in face]
    return min(values), max(values)


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
