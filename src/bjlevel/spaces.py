"""Finite-dimensional real normed spaces, operators and duality.

Two families of spaces are supported:

* ``lp`` spaces with a rational exponent ``p >= 1`` or ``p = inf``;
* ``polyhedral`` spaces given by the vertices of their unit ball
  (the V-representation of a symmetric full-dimensional polytope).

Arithmetic split: the exact spaces -- l1, l-infinity and the polyhedral
spaces -- run exactly, over `fractions.Fraction` and in integers; lp spaces
with 1 < p < infinity run in floats (for p = 2 the squared norm and pairings
stay exact on rational inputs, since only the norm itself involves a square
root).  Each exact space has one ball object (`exact_ball`), which owns
everything that differs between them: the cross-polytope of l1 and the cube
of l-infinity in closed form, and the vertex ball of a polyhedral space,
read through its polar facets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from operator import is_, itemgetter, mul
from typing import Iterable, Iterator, Optional, Union

from .errors import DimensionMismatch, InputError
from .linalg import (
    MINUS_ONE,
    ONE,
    ZERO,
    Mat,
    Vec,
    int_mat_vec,
    integer_point,
    integer_rows,
    is_zero_vec,
    mat,
    mat_vec,
    matrix_rank,
    solve_square,
    transpose,
    unit,
    vec,
    vec_neg,
)

INF = "inf"

EXACT = "exact"
FLOAT = "float"
# Relative tolerance used on every float-path decision.
FLOAT_TOL = 1e-9

# Hypercube vertex sets grow as 2^n; reject anything past this.
MAX_CUBE_DIM = 12
# General polar enumeration scans the n-subsets of a list of V points, solves
# an n x n system for each by elimination (about n^3 steps) and tests the
# solution on up to V/2 points.  So C(V, n) is capped, and so is C(V, n) n^3,
# which binds from n = 6 on (see _max_polar_subsets).
_MAX_POLAR_SUBSETS = 225_000
_MAX_POLAR_COST = 30_000_000
# Entries kept by each per-ball cache (facet incidence, polars, face lattices).
CACHE_SIZE = 16
# Digits allowed in the numerator and in the denominator of a parsed rational,
# with an exponent counted as that many digits: "1e999" passes, "1e1000" does not.
MAX_RATIONAL_DIGITS = 1000
# The integers -16..16 as Fractions kept for the life of the process (0 and
# +-1 are linalg's shared constants).  They seed the pools of
# `polyhedral_space` and `operator`, so small entries of every kept ball and
# matrix are one object.
_SMALL_INTEGERS = {Fraction(i): Fraction(i) for i in range(-16, 17)} | {c: c for c in (ZERO, ONE, MINUS_ONE)}


def float_path(fn):
    """Report a float-path computation whose values overflow, or underflow to
    zero and are divided by, as an input error rather than a crash."""

    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise InputError("float_range", "a value on the float path does not fit in a float") from exc

    return guarded


def parse_rational(text: Union[str, int, Fraction]) -> Fraction:
    try:
        if _written_digits(text) <= MAX_RATIONAL_DIGITS:
            return Fraction(text)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError("bad_rational", f"not a rational number: {text!r}") from exc
    raise InputError("bad_rational", f"more than {MAX_RATIONAL_DIGITS} digits in a numerator or denominator: {text!r}")


def _written_digits(text: Union[str, int, Fraction]) -> int:
    """An upper bound on the digits of the numerator and of the denominator of
    Fraction(text); for a string, found without building either integer."""
    if isinstance(text, str):
        mantissa, _, exponent = text.lower().partition("e")
        shift = abs(int(exponent)) if exponent else 0
        return max(sum(c.isdigit() for c in part) for part in mantissa.split("/")) + shift
    value = Fraction(text)
    return len(str(max(abs(value.numerator), value.denominator)))


def parse_vector(text: str) -> Vec:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise InputError("bad_vector", f"not a comma-separated rational vector: {text!r}")
    return tuple(parse_rational(p) for p in parts)


def sgn(value: Fraction) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True, slots=True)
class SpaceSpec:
    """A finite-dimensional real normed space.

    ``kind`` is ``"lp"`` (with ``p`` a Fraction or the string ``"inf"``) or
    ``"polyhedral"`` (with ``ball_vertices`` the unit-ball vertex list).
    Instances are immutable and hashable; all derived data (polars, face
    lattices) is cached per space.  ``known_polar`` is the polar vertex list
    of a polyhedral ball when it is known exactly without a facet scan; it
    takes no part in equality or hashing.  Two balls are equal when they
    list the same vertices in any order, as a ball and its bidual do (the
    bidual lists them sorted), so a ball is one key of every cache.  The hash
    is computed once, when the space is made: every cache lookup keyed on a
    space hashes it, and a ball's hash reads each of its vertex Fractions.
    """

    kind: str
    dim: int
    p: Optional[Union[Fraction, str]] = None
    ball_vertices: Optional[tuple[Vec, ...]] = None
    known_polar: Optional[tuple[Vec, ...]] = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = None if self.ball_vertices is None else frozenset(self.ball_vertices)
        object.__setattr__(self, "_hash", hash((self.kind, self.dim, self.p, verts)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SpaceSpec):
            return NotImplemented
        if (self._hash, self.kind, self.dim, self.p) != (other._hash, other.kind, other.dim, other.p):
            return False
        a, b = self.ball_vertices, other.ball_vertices
        return a == b or (a is not None and b is not None and len(a) == len(b) and sorted(a) == sorted(b))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through __init__, so that a copy in another process hashes
        # there (string hashes differ between processes).
        return SpaceSpec, (self.kind, self.dim, self.p, self.ball_vertices, self.known_polar)

    def __repr__(self) -> str:  # compact, e.g. lp(1)^3
        if self.kind == "lp":
            return f"lp({self.p})^{self.dim}"
        return f"polyhedral^{self.dim}[{len(self.ball_vertices or ())} vertices]"


def lp_space(p: Union[int, str, Fraction], dim: int) -> SpaceSpec:
    if dim < 1:
        raise InputError("bad_dim", f"dimension must be >= 1, got {dim}")
    if p == INF or p == math.inf:
        if dim > MAX_CUBE_DIM:
            raise InputError(
                "dim_too_large",
                f"l-infinity unit ball has 2^{dim} vertices; dimensions above "
                f"{MAX_CUBE_DIM} are rejected",
            )
        return SpaceSpec("lp", dim, INF, None)
    pf = parse_rational(p)
    if pf < 1:
        raise InputError("bad_exponent", f"lp exponent must satisfy p >= 1, got {pf}")
    try:
        float(pf)  # the norm of lp with 1 < p < inf is computed in floats
    except OverflowError as exc:
        raise InputError("bad_exponent", f"lp exponent {p!r} does not fit in a float") from exc
    if pf == 1 and dim > MAX_CUBE_DIM:
        raise InputError(
            "dim_too_large",
            f"the dual ball of l1^{dim} has 2^{dim} vertices; dimensions above "
            f"{MAX_CUBE_DIM} are rejected",
        )
    return SpaceSpec("lp", dim, pf, None)


def l1(dim: int) -> SpaceSpec:
    return lp_space(1, dim)


def l2(dim: int) -> SpaceSpec:
    return lp_space(2, dim)


def linf(dim: int) -> SpaceSpec:
    return lp_space(INF, dim)


def polyhedral_space(vertices: Iterable[Iterable], validate: bool = True) -> SpaceSpec:
    shared = dict(_SMALL_INTEGERS)
    verts = tuple(_shared(vec(v), shared) for v in vertices)
    if not verts:
        raise InputError("bad_ball", "polyhedral space needs at least one ball vertex")
    dim = len(verts[0])
    if not validate:
        return SpaceSpec("polyhedral", dim, None, verts)
    incidence = _validate_ball_vertices(verts, dim)
    return SpaceSpec("polyhedral", dim, None, verts, tuple(f for f, _ in incidence))


def _shared(values: Vec, pool: dict[Fraction, Fraction]) -> Vec:
    """The vector with each entry replaced by the equal Fraction already in
    ``pool`` (or added to it): vertex and facet lists and matrices repeat
    entries, and spaces, facet tables and operators are kept, so equal
    entries share one object.  When every entry already is the pooled object
    the vector itself is returned."""
    out = tuple(pool.setdefault(c, c) for c in values)
    return values if all(map(is_, out, values)) else out


def _validate_ball_vertices(verts: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, frozenset[int]], ...]:
    """The facet incidence of a valid unit-ball vertex list, else InputError."""
    if any(len(v) != dim for v in verts):
        raise DimensionMismatch("ball vertices have inconsistent dimensions")
    if len(set(verts)) != len(verts):
        raise InputError("bad_ball", "duplicate ball vertices")
    vert_set = set(verts)
    for v in verts:
        if is_zero_vec(v):
            raise InputError("bad_ball", "zero vector listed as a ball vertex")
        if vec_neg(v) not in vert_set:
            raise InputError("bad_ball", f"ball vertices are not symmetric: missing -{v}")
    if matrix_rank(verts) != dim:
        raise InputError("bad_ball", "ball vertices do not span the space")
    incidence = _facet_incidence(verts)
    extreme = {j for j, _ in _extreme_incidence(incidence, len(verts))}
    for i, v in enumerate(verts):
        if i not in extreme:
            raise InputError("bad_ball", f"listed vertex {v} is not an extreme point")
    return incidence


def _extreme_incidence(incidence, count: int) -> list[tuple[int, frozenset[int]]]:
    """The facet incidence of ``count`` scanned points transposed: (j, the
    facets through point j) for each extreme point j, in increasing order.
    A point is extreme iff it lies on some facet, and no other point lies
    on every facet through it."""
    through: list[list[int]] = [[] for _ in range(count)]
    for i, (_, tight) in enumerate(incidence):
        for j in tight:
            through[j].append(i)
    everyone = frozenset(range(count))
    return [
        (j, frozenset(facets))
        for j, facets in enumerate(through)
        if facets and everyone.intersection(*(incidence[i][1] for i in facets)) == {j}
    ]


def is_exact(space: SpaceSpec) -> bool:
    return exact_ball(space) is not None


def arithmetic_mode(space: SpaceSpec) -> str:
    return EXACT if is_exact(space) else FLOAT


def require_dim(space: SpaceSpec, x: Vec) -> None:
    if len(x) != space.dim:
        raise DimensionMismatch(
            f"vector has dimension {len(x)}, space has dimension {space.dim}"
        )


def norm(space: SpaceSpec, x: Vec) -> Union[Fraction, float]:
    """The norm of x: a Fraction on exact paths, a float on lp float paths."""
    require_dim(space, x)
    ball = exact_ball(space)
    if ball is not None:
        return ball.norm(space, x)
    try:
        if space.p == 2:
            value = math.sqrt(float(norm_squared(space, x)))
        else:
            pf = float(space.p)
            value = sum(abs(float(c)) ** pf for c in x) ** (1.0 / pf)
    except OverflowError as exc:
        raise InputError("float_range", "the norm of a vector overflows a float") from exc
    if value == 0 and not is_zero_vec(x):
        raise InputError("float_range", "the norm of a nonzero vector underflows a float")
    return value


def norm_squared(space: SpaceSpec, x: Vec) -> Union[Fraction, float]:
    """Exact squared norm where available (polyhedral, l1, l-inf, l2)."""
    if space.kind == "lp" and space.p == 2:
        require_dim(space, x)
        return sum((c * c for c in x), Fraction(0))
    value = norm(space, x)
    return value * value


def conjugate_exponent(p: Union[Fraction, str]) -> Union[Fraction, str]:
    if p == INF:
        return Fraction(1)
    if p == 1:
        return INF
    return p / (p - 1)


def dual_space(space: SpaceSpec) -> SpaceSpec:
    """The dual space: lp(q) with 1/p + 1/q = 1, or the polar polytope.

    When every listed vertex of the ball is known to be extreme (its polar is
    known), those vertices are exactly the facets of the polar, so the dual's
    own polar is known too and needs no facet scan.
    """
    if space.kind == "lp":
        return lp_space(conjugate_exponent(space.p), space.dim)
    bidual = None if space.known_polar is None else tuple(sorted(space.ball_vertices))
    return SpaceSpec("polyhedral", space.dim, None, polar_vertices(space), bidual)


def dual_norm(space: SpaceSpec, f: Vec) -> Union[Fraction, float]:
    """||f||_*, the largest value of f on the unit ball.

    On exact spaces f is scaled to the integer vector q = s f and read by
    the ball's integer dual norm, without building the dual space; f
    converts exactly (`linalg.vec`), so float input is decided in rationals.
    """
    require_dim(space, f)
    ball = exact_ball(space)
    if ball is None:
        return norm(dual_space(space), f)
    q, s = integer_point(vec(f))
    top, d = ball.dual_norm(space, q)
    return Fraction(top, d * s)


def ball_vertices(space: SpaceSpec) -> tuple[Vec, ...]:
    """Vertices of the unit ball (polyhedral-like spaces only)."""
    return _polyhedral_ball(space, "unit ball").vertices(space)


def dual_ball_vertices(space: SpaceSpec) -> tuple[Vec, ...]:
    """Vertices of the dual unit ball (= facet functionals of the primal ball)."""
    return _polyhedral_ball(space, "dual ball").dual_vertices(space)


# The two vertex lists below are kept for the life of the process, so every
# entry is one of the shared Fractions 0, 1 and -1.
@lru_cache(maxsize=None)
def _cross_polytope_vertices(dim: int) -> tuple[Vec, ...]:
    return tuple(
        tuple(s if j == i else ZERO for j in range(dim)) for i in range(dim) for s in (ONE, MINUS_ONE)
    )


@lru_cache(maxsize=None)
def _hypercube_vertices(dim: int) -> tuple[Vec, ...]:
    if dim > MAX_CUBE_DIM:
        raise InputError("dim_too_large", f"2^{dim} hypercube vertices exceed the desk-scale guard")
    return tuple(itertools.product((ONE, MINUS_ONE), repeat=dim))


@lru_cache(maxsize=CACHE_SIZE)
def _facet_incidence(points: tuple[Vec, ...]) -> tuple[tuple[Vec, frozenset[int]], ...]:
    """Facet functionals f of conv(points), sorted, each with {i : f(points[i]) = 1}.

    Enumerates n-subsets of the points, solves f(p_i) = 1 and keeps the
    solutions that are valid on every point (f(p) <= 1).  When conv(points)
    is full-dimensional with 0 in its interior these are exactly its facets:
    each facet holds n linearly independent vertices.

    The points must be symmetric (-p listed as often as p), so facets come in
    pairs f, -f.  A subset S is solved only when its mirror -S is not
    lexicographically smaller, and each facet found also gives -f, tight on
    the antipodes of f's tight points.

    Each point p is scaled once to the integer vector q = s p, with s > 0
    the lcm of its denominators, so f(p_i) = 1 reads f . q_i = s_i, and each
    subset is solved in integers (`linalg.solve_square`: fraction-free
    elimination to echelon form, then back-substitution) into f = num / den
    with den > 0.  Validity and incidence are decided in integers too, on one
    point of each antipodal pair: with t = num . q, f is valid iff
    |t| <= den s there, tight on q iff t = den s and on -q iff t = -den s.
    Only a valid solution is reduced to coprime (num, den), the key on which
    repeats of a facet reached from other subsets are dropped, and Fractions
    are built only for the facets kept, with equal coefficients sharing one
    Fraction.
    """
    n = len(points[0])
    subsets, limit = math.comb(len(points), n), _max_polar_subsets(n)
    if subsets > limit:
        raise InputError(
            "too_many_vertices",
            f"polar enumeration over C({len(points)},{n}) = {subsets:,} subsets exceeds the "
            f"desk-scale guard of {limit:,} subsets in {n}-D (about 10 s of CPU time)",
        )
    antipode = _antipodes(points)
    rows, scales = zip(*map(integer_point, points))
    half = [(i, rows[i], scales[i]) for i in range(len(points)) if i <= antipode[i]]
    found: dict[tuple[tuple[int, ...], int], tuple[Vec, frozenset[int]]] = {}
    shared: dict[Fraction, Fraction] = {}
    for subset in itertools.combinations(range(len(points)), n):
        if tuple(sorted(antipode[i] for i in subset)) < subset:
            continue  # the mirror subset is solved instead
        solution = solve_square([rows[i] for i in subset], [scales[i] for i in subset])
        if solution is None:
            continue
        num, den = solution
        tight = []
        for i, q, s in half:
            t = sum(map(mul, num, q))
            bound = den * s
            if t > bound or t < -bound:
                break
            if t == bound:
                tight.append(i)
            elif t == -bound:
                tight.append(antipode[i])
        else:
            g = math.gcd(den, *num)
            num, den = tuple(x // g for x in num), den // g
            if (num, den) in found:
                continue
            f = _shared(tuple(Fraction(x, den) for x in num), shared)
            neg = _shared(vec_neg(f), shared)
            found[num, den] = (f, frozenset(tight))
            found[tuple(-x for x in num), den] = (neg, frozenset(antipode[i] for i in tight))
    return tuple(sorted(found.values(), key=itemgetter(0)))


def _max_polar_subsets(n: int) -> int:
    """The most n-subsets the facet scan takes on, so that a list finishes in
    about 10 s of CPU time or less.

    Timed on a 2.0 GHz Xeon core on sphere lists with 26- to 31-digit
    denominators, a subset takes about 0.27-0.41 n^3 us for n = 4..9 (17-18
    us for n = 3).  The largest lists accepted, in 2-D to 8-D, take 3.7 to 9.3 s
    (2.4 to 5.3 s with denominators up to 10^3).
    """
    return min(_MAX_POLAR_SUBSETS, _MAX_POLAR_COST // n**3)


def _antipodes(points: tuple[Vec, ...]) -> list[int]:
    """An involution i -> j of the indices with points[j] = -points[i]."""
    positions: dict[Vec, list[int]] = {}
    for i, p in enumerate(points):
        positions.setdefault(p, []).append(i)
    antipode = list(range(len(points)))
    for p, indices in positions.items():
        mirrors = positions.get(vec_neg(p), [])
        if len(mirrors) != len(indices):
            raise InputError("bad_ball", f"ball vertices are not symmetric: missing -{p}")
        for i, j in zip(indices, mirrors):
            antipode[i] = j
    return antipode


@lru_cache(maxsize=CACHE_SIZE)
def polar_vertices(space: SpaceSpec) -> tuple[Vec, ...]:
    """Vertices of the polar polytope, i.e. the facet functionals of the ball,
    sorted; on l1 and l-inf they are the closed-form dual vertices."""
    return _polyhedral_ball(space, "unit ball").polar(space)


@lru_cache(maxsize=CACHE_SIZE)
def _polar_rows(space: SpaceSpec) -> tuple[tuple[Vec, ...], int, tuple[tuple[int, ...], ...]]:
    """The polar facets f of a polyhedral space, the lcm D of all their
    denominators, and each facet's integer row D f."""
    facets = polar_vertices(space)
    return (facets, *integer_rows(facets))


@lru_cache(maxsize=CACHE_SIZE)
def _ball_rows(space: SpaceSpec) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm D of the ball vertices' denominators of a polyhedral space,
    and each vertex's integer row D v."""
    return integer_rows(space.ball_vertices)


# ---------------------------------------------------------------------------
# The exact unit balls: the cross-polytope of l1, the cube of l-inf and the
# vertex ball of a polyhedral space.  Under duality the cross-polytope pairs
# with the cube, and a vertex ball with its polar.  J(x) is a face of the
# dual ball, and each ball names it its own way (``face``, from `scan`): by
# the sign pattern of x on l1, by the indices 2i + (x_i < 0) of the entries
# of largest size on l-inf, and by the indices of the polar facets that
# attain the norm on a vertex ball.


class _ExactBall:
    """An exact unit ball; `exact_ball` picks the subclass, which holds no
    state, so every method takes the space.  Integer rows are vectors scaled
    by one common D > 0 to integers; q, v, a0 and a1 are integer vectors.

    - norm(x): ||x||.  scan(q) = (top, D, face): ||q / s|| = top / (D s) for
      every integer s > 0, and ``face`` names J(q / s).  dual_norm(q) =
      (top, D) with ||q / s||_* = top / (D s).
    - vertices() and dual_vertices(): the vertex lists of the ball and of
      the dual ball.  polar_rows() = (D, the polar vertices as rows).
    - face_rows(face) = (D, the rows of the vertices of J(x), sorted), and
      face_vertices(face), the vertices, both made one at a time.
      single(face): the one functional of J(x) when it has one, else None.
    - extremes(face, v) = (D, (lo, r_lo), (hi, r_hi)): D times the min and
      max of f(v) over J(x), each with the row of a vertex attaining it,
      ties going to the least row for the min and the greatest for the max.
    - edge_rows(a0, a1) = (D, v0, v1) with v_j[i] = r_i . a_j for rows r_i
      such that ||w||_* = max_i r_i . w / D at every w on [a0, a1].
    """

    __slots__ = ()

    def key(self, space: SpaceSpec, q: tuple[int, ...], s: int) -> tuple[tuple[int, ...], int, int]:
        """(face, n, d) for x = q / s, q nonzero and s > 0 an integer, all in
        ints: ||x|| = n / d in lowest terms, and ``face`` names J(x), read
        from q since J does not change under positive scaling.  Equal keys
        are equal (||x||, J(x))."""
        top, d, face = self.scan(space, q)
        s *= d
        g = math.gcd(top, s)
        return face, top // g, s // g

    def face(self, space: SpaceSpec, x) -> tuple[int, ...]:
        """The face naming J(x), x nonzero and converted exactly (`linalg.vec`)."""
        return self.scan(space, integer_point(vec(x))[0])[2]

    def polar(self, space: SpaceSpec) -> tuple[Vec, ...]:
        """The polar vertices, sorted (`polar_vertices`)."""
        return tuple(sorted(self.dual_vertices(space)))

    def row_vertex(self, space: SpaceSpec, d: int, row: tuple[int, ...]) -> Vec:
        """The vertex row / d of J(x): on l1 and l-inf of the shared
        Fractions 0, 1 and -1."""
        return _signs(row)


class _CrossPolytope(_ExactBall):
    """l1^n.  J(x) is the box of sign vectors pinned to sgn(x_i) on the
    support of x and free on its zeros."""

    __slots__ = ()

    def norm(self, space: SpaceSpec, x: Vec) -> Fraction:
        return sum((abs(c) for c in x), Fraction(0))

    def scan(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        return sum(map(abs, q)), 1, tuple(map(sgn, q))

    def dual_norm(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int]:
        return max(map(abs, q)), 1

    def vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return _cross_polytope_vertices(space.dim)

    def dual_vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return _hypercube_vertices(space.dim)

    def polar_rows(self, space: SpaceSpec) -> tuple[int, Iterable[tuple[int, ...]]]:
        return 1, itertools.product((1, -1), repeat=space.dim)

    def face_rows(self, space: SpaceSpec, face: tuple[int, ...]) -> tuple[int, Iterator[tuple[int, ...]]]:
        """The box's sign vectors differ only on the zeros of the pattern,
        where `itertools.product` runs through -1 < 1 in lexicographic
        order, so no sort is needed.  The guard on the number of zeros is
        checked at the call, before any vertex is made."""
        zeros = [i for i, c in enumerate(face) if c == 0]
        if len(zeros) > MAX_CUBE_DIM:
            raise InputError("dim_too_large", "2^(#zeros) support vertices exceed the guard")

        def filled(signs):
            f = list(face)
            for pos, s in zip(zeros, signs):
                f[pos] = s
            return tuple(f)

        return 1, map(filled, itertools.product((-1, 1), repeat=len(zeros)))

    def face_vertices(self, space: SpaceSpec, face: tuple[int, ...]) -> Iterator[Vec]:
        return map(_signs, self.face_rows(space, face)[1])

    def single(self, space: SpaceSpec, face: tuple[int, ...]) -> Optional[Vec]:
        return _signs(face) if all(face) else None

    def extremes(self, space: SpaceSpec, face: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        """f(v) ranges over [pinned - free, pinned + free]: pinned is the sum
        of sgn(x_i) v_i over the support of x and free that of |v_i| over
        its zeros, where r_lo takes -sgn(v_i) and r_hi takes sgn(v_i), with
        -1 and 1 where v_i = 0 too."""
        pinned = sum(vc if c > 0 else -vc for c, vc in zip(face, v) if c)
        free = sum(abs(vc) for c, vc in zip(face, v) if not c)
        r_lo = tuple([c or (1 if vc < 0 else -1) for c, vc in zip(face, v)])
        r_hi = tuple([c or (-1 if vc < 0 else 1) for c, vc in zip(face, v)])
        return 1, (pinned - free, r_lo), (pinned + free, r_hi)

    def edge_rows(self, space: SpaceSpec, a0: tuple[int, ...], a1: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        """The rows +e_k and -e_k."""
        return 1, (*a0, *(-c for c in a0)), (*a1, *(-c for c in a1))


class _Cube(_ExactBall):
    """l-inf^n.  J(x) is the hull of the signed units sgn(x_i) e_i at the
    entries of x of largest size, at indices 2i + (x_i < 0) of the
    cross-polytope's vertex list."""

    __slots__ = ()

    def norm(self, space: SpaceSpec, x: Vec) -> Fraction:
        return max(abs(c) for c in x)

    def scan(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        top = max(map(abs, q))
        return top, 1, tuple(2 * i + (c < 0) for i, c in enumerate(q) if abs(c) == top)

    def dual_norm(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int]:
        return sum(map(abs, q)), 1

    def vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return _hypercube_vertices(space.dim)

    def dual_vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return _cross_polytope_vertices(space.dim)

    def polar_rows(self, space: SpaceSpec) -> tuple[int, Iterable[tuple[int, ...]]]:
        return 1, (_signed_unit(space.dim, i) for i in range(2 * space.dim))

    def face_rows(self, space: SpaceSpec, face: tuple[int, ...]) -> tuple[int, Iterator[tuple[int, ...]]]:
        return 1, iter(sorted(_signed_unit(space.dim, i) for i in face))

    def face_vertices(self, space: SpaceSpec, face: tuple[int, ...]) -> Iterator[Vec]:
        cross = _cross_polytope_vertices(space.dim)
        return iter(sorted(cross[i] for i in face))

    def single(self, space: SpaceSpec, face: tuple[int, ...]) -> Optional[Vec]:
        return _cross_polytope_vertices(space.dim)[face[0]] if len(face) == 1 else None

    def extremes(self, space: SpaceSpec, face: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        values = [(-v[i // 2] if i % 2 else v[i // 2], _signed_unit(space.dim, i)) for i in face]
        return 1, min(values), max(values)

    def edge_rows(self, space: SpaceSpec, a0: tuple[int, ...], a1: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        """||w||_* = sum |w_k|, and the rows are the sign vectors of w_t on
        the pieces of [0, 1] between the points t_k = a0_k / (a0_k - a1_k)
        where a coordinate changes sign: coordinate k has the sign of a0_k
        before t_k and that of a1_k after it, and a coordinate that keeps
        one sign on [0, 1] has the sign of whichever of a0_k, a1_k is not 0.
        Every w_t then has its own sign vector among the rows, and no sign
        vector exceeds sum |w_k|."""
        base = [sgn(c0) or sgn(c1) for c0, c1 in zip(a0, a1)]
        # (k, n, m) with t_k = n / m and m > 0, for each coordinate that changes sign.
        crossings = [(k, abs(c0), abs(c0 - c1)) for k, (c0, c1) in enumerate(zip(a0, a1)) if c0 * c1 < 0]
        rows = [base]
        for _, n, m in crossings:
            row = list(base)
            for k, nk, mk in crossings:
                if nk * m <= n * mk:  # t_k <= n / m: coordinate k has changed sign
                    row[k] = -base[k]
            rows.append(row)
        return 1, int_mat_vec(rows, a0), int_mat_vec(rows, a1)


class _VertexBall(_ExactBall):
    """A polyhedral space, the hull of its vertex list.  Its polar facets f
    are read as integer rows D f (`_polar_rows`), so f(x) = t_f / (D s) with
    t_f = (D f) . q at x = q / s: the norm is the largest t_f, and J(x) the
    facets that attain it, in polar order, which is sorted."""

    __slots__ = ()

    def norm(self, space: SpaceSpec, x: Vec) -> Fraction:
        q, s = integer_point(vec(x))
        top, d, _ = self.scan(space, q)
        return Fraction(top, d * s)

    def scan(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        _, d, rows = _polar_rows(space)
        values = int_mat_vec(rows, q)
        top = max(values)
        return top, d, tuple(i for i, t in enumerate(values) if t == top)

    def dual_norm(self, space: SpaceSpec, q: tuple[int, ...]) -> tuple[int, int]:
        """The largest (D v) . q over the rows D v of the ball's vertices
        (`_ball_rows`), since f . v = (D v) . q / (D s) for f = q / s."""
        d, rows = _ball_rows(space)
        return max(int_mat_vec(rows, q)), d

    def vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return space.ball_vertices

    def dual_vertices(self, space: SpaceSpec) -> tuple[Vec, ...]:
        return polar_vertices(space)

    def polar(self, space: SpaceSpec) -> tuple[Vec, ...]:
        if space.known_polar is not None:
            return space.known_polar
        return tuple(f for f, _ in _facet_incidence(space.ball_vertices))

    def polar_rows(self, space: SpaceSpec) -> tuple[int, Iterable[tuple[int, ...]]]:
        return _polar_rows(space)[1:]

    def face_rows(self, space: SpaceSpec, face: tuple[int, ...]) -> tuple[int, Iterator[tuple[int, ...]]]:
        _, d, rows = _polar_rows(space)
        return d, (rows[i] for i in face)

    def face_vertices(self, space: SpaceSpec, face: tuple[int, ...]) -> Iterator[Vec]:
        facets = _polar_rows(space)[0]
        return (facets[i] for i in face)

    def row_vertex(self, space: SpaceSpec, d: int, row: tuple[int, ...]) -> Vec:
        return tuple([Fraction(c, d) if c else ZERO for c in row])

    def single(self, space: SpaceSpec, face: tuple[int, ...]) -> Optional[Vec]:
        return _polar_rows(space)[0][face[0]] if len(face) == 1 else None

    def extremes(self, space: SpaceSpec, face: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        _, d, rows = _polar_rows(space)
        values = [(sum(map(mul, rows[i], v)), rows[i]) for i in face]
        return d, min(values), max(values)

    def edge_rows(self, space: SpaceSpec, a0: tuple[int, ...], a1: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        """The rows D v of the ball's vertices (`_ball_rows`)."""
        d, rows = _ball_rows(space)
        return d, int_mat_vec(rows, a0), int_mat_vec(rows, a1)


_CROSS_POLYTOPE, _CUBE, _VERTEX_BALL = _CrossPolytope(), _Cube(), _VertexBall()


def exact_ball(space: SpaceSpec) -> Optional[_ExactBall]:
    """The ball object of an exact space, or None on lp with 1 < p < inf."""
    if space.kind == "polyhedral":
        return _VERTEX_BALL
    return _CROSS_POLYTOPE if space.p == 1 else _CUBE if space.p == INF else None


def _polyhedral_ball(space: SpaceSpec, what: str) -> _ExactBall:
    """`exact_ball`, or InputError naming the ``what`` a float space lacks."""
    ball = exact_ball(space)
    if ball is None:
        raise InputError("not_polyhedral", f"{space!r} has no polyhedral {what}")
    return ball


_SIGNS = (ZERO, ONE, MINUS_ONE)


def _signs(row: tuple[int, ...]) -> Vec:
    """A row of entries 0, 1 and -1 as the shared Fractions 0, 1 and -1."""
    return tuple([_SIGNS[c] for c in row])


def _signed_unit(n: int, i: int) -> tuple[int, ...]:
    """The integer row of e_k (i = 2k) or -e_k (i = 2k + 1)."""
    return tuple([(-1 if i % 2 else 1) if k == i // 2 else 0 for k in range(n)])


def on_unit_sphere(space: SpaceSpec, x: Vec) -> bool:
    value = norm(space, x)
    if is_exact(space):
        return value == 1
    return abs(value - 1.0) <= 10 * FLOAT_TOL


@dataclass(frozen=True, slots=True)
class Operator:
    """A linear map between two spaces, stored as a dense rational matrix.

    The matrix has ``codomain.dim`` rows and ``domain.dim`` columns and acts
    by the usual matrix-vector product.
    """

    matrix: Mat
    domain: SpaceSpec
    codomain: SpaceSpec

    def __post_init__(self) -> None:
        if len(self.matrix) != self.codomain.dim:
            raise DimensionMismatch(
                f"matrix has {len(self.matrix)} rows, codomain dimension is {self.codomain.dim}"
            )
        if any(len(row) != self.domain.dim for row in self.matrix):
            raise DimensionMismatch(
                f"matrix rows must have length {self.domain.dim} (domain dimension)"
            )

    def __call__(self, x: Vec) -> Vec:
        require_dim(self.domain, x)
        return mat_vec(self.matrix, x)


def operator(rows: Iterable[Iterable], domain: SpaceSpec, codomain: Optional[SpaceSpec] = None) -> Operator:
    shared = dict(_SMALL_INTEGERS)
    matrix = tuple(_shared(row, shared) for row in mat(rows))
    if matrix and any(len(row) != domain.dim for row in matrix):
        raise DimensionMismatch(f"matrix rows must have length {domain.dim} (domain dimension)")
    if codomain is None:
        if len(matrix) != domain.dim:
            raise InputError(
                "missing_codomain",
                "non-square operator matrix needs an explicit codomain space",
            )
        codomain = domain
    return Operator(matrix, domain, codomain)


def identity_operator(space: SpaceSpec) -> Operator:
    n = space.dim
    return operator((unit(n, i) for i in range(n)), space, space)


def diagonal_operator(space: SpaceSpec, entries: Iterable) -> Operator:
    diag = vec(entries)
    if len(diag) != space.dim:
        raise DimensionMismatch("diagonal length must equal the space dimension")
    n = space.dim
    return operator(((diag[i] if i == j else ZERO for j in range(n)) for i in range(n)), space, space)


def zero_operator(domain: SpaceSpec, codomain: Optional[SpaceSpec] = None) -> Operator:
    codomain = codomain or domain
    return operator(((ZERO,) * domain.dim for _ in range(codomain.dim)), domain, codomain)


def adjoint(op: Operator) -> Operator:
    """The adjoint map between dual spaces; (adjoint g)(x) = g(op x)."""
    return Operator(transpose(op.matrix), dual_space(op.codomain), dual_space(op.domain))


def is_zero_operator(op: Operator) -> bool:
    return all(all(entry == 0 for entry in row) for row in op.matrix)


# ---------------------------------------------------------------------------
# JSON-dict forms (rationals serialized as "p/q" strings)


def vector_to_strings(x: Vec) -> list[str]:
    return [str(c) for c in x]


def space_to_dict(space: SpaceSpec) -> dict:
    if space.kind == "lp":
        return {"kind": "lp", "p": str(space.p) if space.p != INF else INF, "dim": space.dim}
    return {
        "kind": "polyhedral",
        "dim": space.dim,
        "ball_vertices": [vector_to_strings(v) for v in space.ball_vertices],
    }


def _parse_dim(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("bad_dim", f"dimension must be an integer, got {value!r}") from exc


def parse_rows(value, code: str, field: str) -> list[Vec]:
    """A JSON list of lists of rationals, else InputError(code)."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InputError(code, f"'{field}' must be a list of lists of rationals")
    return [tuple(parse_rational(c) for c in row) for row in value]


def space_from_dict(data: dict) -> SpaceSpec:
    try:
        kind = data["kind"]
    except (TypeError, KeyError) as exc:
        raise InputError("bad_space_file", "space object needs a 'kind' field") from exc
    if kind == "lp":
        try:
            return lp_space(data["p"], _parse_dim(data["dim"]))
        except KeyError as exc:
            raise InputError("bad_space_file", f"lp space needs field {exc}") from exc
    if kind == "polyhedral":
        try:
            verts = data["ball_vertices"]
            dim = _parse_dim(data["dim"])
        except KeyError as exc:
            raise InputError("bad_space_file", f"polyhedral space needs field {exc}") from exc
        space = polyhedral_space(parse_rows(verts, "bad_space_file", "ball_vertices"))
        if space.dim != dim:
            raise DimensionMismatch("declared dim does not match ball vertices")
        return space
    raise InputError("bad_space_file", f"unknown space kind {kind!r}")


def operator_to_dict(op: Operator) -> dict:
    return {"matrix": [vector_to_strings(row) for row in op.matrix]}


def operator_from_dict(data: dict, domain: SpaceSpec, codomain: Optional[SpaceSpec] = None) -> Operator:
    try:
        rows = data["matrix"]
    except (TypeError, KeyError) as exc:
        raise InputError("bad_operator_file", "operator object needs a 'matrix' field") from exc
    matrix = parse_rows(rows, "bad_operator_file", "matrix")
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise InputError("ragged_matrix", "operator matrix rows have different lengths")
    return operator(matrix, domain, codomain)
