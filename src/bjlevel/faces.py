"""Face lattice of a polyhedral unit ball.

On a general ball the proper faces are recovered from facet-vertex incidence
alone, as vertex index sets: the facets' tight sets closed under
intersection, each face's dimension one more than the largest dimension of
its meets with the facets.  The census counts those dimensions without
building a lattice; the lattice adds each face's vertices and supporting
functionals.  The hypercube and cross-polytope balls of l-inf and l1 use
direct combinatorial generation instead (sign patterns), and their
per-dimension counts are available in closed form up to dimension 12 without
materializing the lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError
from .linalg import Vec, affine_rank, dot
from .spaces import (
    CACHE_SIZE,
    INF,
    SpaceSpec,
    _facet_incidence,
    ball_vertices,
    is_exact,
    norm,
    require_dim,
)
from .support import support_set

_MAX_LATTICE_DIM_GENERAL = 6
_MAX_LATTICE_DIM_CLOSED_FORM = 8


@dataclass(frozen=True, slots=True)
class Face:
    """A proper face of the unit ball.

    ``vertices`` is exactly the set of ball vertices on the face (sorted
    canonically); ``supporting`` lists the dual-ball vertices attaining value
    one on every vertex of the face.
    """

    vertices: tuple[Vec, ...]
    dim: int
    supporting: tuple[Vec, ...]

    def centroid(self) -> Vec:
        return convex_combination(self.vertices, [1] * len(self.vertices))

    def negated(self) -> "Face":
        return Face(
            tuple(sorted(tuple(-c for c in v) for v in self.vertices)),
            self.dim,
            tuple(sorted(tuple(-c for c in f) for f in self.supporting)),
        )


def convex_combination(vertices: tuple[Vec, ...], weights) -> Vec:
    """sum(w_i v_i) / sum(w_i) for positive weights.

    A coordinate on which every vertex agrees is that value exactly, so the
    vertex's own Fraction is returned there rather than a new equal one.
    """
    total = sum(weights)
    first = vertices[0]
    return tuple(
        first[k]
        if all(v[k] == first[k] for v in vertices)
        else sum(w * v[k] for w, v in zip(weights, vertices)) / total
        for k in range(len(first))
    )


@dataclass(frozen=True, slots=True)
class FaceCensus:
    counts: tuple[int, ...]  # |F_k| for k = 0 .. n-1
    total: int


def _require_polyhedral(space: SpaceSpec) -> None:
    if not is_exact(space):
        raise InputError("not_polyhedral", f"{space!r} is not a polyhedral space")


@lru_cache(maxsize=CACHE_SIZE)
def face_lattice(space: SpaceSpec) -> tuple[Face, ...]:
    """All proper faces, each exactly once, sorted by (dim, vertex list).

    On a general ball each face is built from its vertex index set and
    dimension (`_face_index_sets`), with the sorted vertex list and the facet
    functionals tight on the whole face; no affine rank is computed.
    """
    _require_polyhedral(space)
    if space.kind == "lp":
        if space.dim > _MAX_LATTICE_DIM_CLOSED_FORM:
            raise InputError(
                "dim_too_large",
                f"materializing 3^{space.dim} faces exceeds the desk-scale guard; "
                "use face_census for counts",
            )
        faces = _cube_faces(space.dim) if space.p == INF else _cross_faces(space.dim)
    else:
        faces = _faces_by_intersection(space)
    return tuple(sorted(faces, key=lambda f: (f.dim, f.vertices)))


# The coordinates of hypercube and cross-polytope vertices.  Every lattice
# vector is built from these three objects, so equal entries compare by
# identity when faces are sorted and compared.
_SIGN_FRACTIONS = {s: Fraction(s) for s in (-1, 0, 1)}


def _sign_pattern_faces(n: int) -> list[tuple[list, int, list]]:
    """Every proper face of the cube [-1, 1]^n as (vertices, dim, supporting).

    A face is a sign pattern in {-1, 0, 1}^n other than 0: its vertices agree
    with the pattern off its zeros, and its supporting functionals are the
    signed unit vectors on its nonzeros.  Both lists hold integer vectors,
    sorted.
    """
    faces = []
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        free = [i for i, s in enumerate(pattern) if s == 0]
        if len(free) == n:
            continue  # the whole ball, not a proper face
        verts = []
        for signs in itertools.product((1, -1), repeat=len(free)):
            v = list(pattern)
            for pos, s in zip(free, signs):
                v[pos] = s
            verts.append(tuple(v))
        supporting = [tuple(s if j == i else 0 for j in range(n)) for i, s in enumerate(pattern) if s]
        faces.append((sorted(verts), len(free), sorted(supporting)))
    return faces


def _cube_faces(n: int) -> list[Face]:
    return _exact_faces(_sign_pattern_faces(n))


def _cross_faces(n: int) -> list[Face]:
    """The cross-polytope is the polar of the cube: a k-face of the cube with
    vertex set V and supporting set S gives the (n-1-k)-face with vertex set S
    and supporting set V."""
    return _exact_faces([(supporting, n - 1 - dim, verts) for verts, dim, supporting in _sign_pattern_faces(n)])


def _exact_faces(records) -> list[Face]:
    """Faces from integer (vertices, dim, supporting) records, sorted by (dim,
    vertices) on the integers, with one Fraction vector per integer vector."""
    exact: dict[tuple[int, ...], Vec] = {}

    def vectors(integer_vectors) -> tuple[Vec, ...]:
        for v in integer_vectors:
            if v not in exact:
                exact[v] = tuple(_SIGN_FRACTIONS[c] for c in v)
        return tuple(exact[v] for v in integer_vectors)

    records = sorted(records, key=lambda r: (r[1], r[0]))
    return [Face(vectors(verts), dim, vectors(supporting)) for verts, dim, supporting in records]


@lru_cache(maxsize=CACHE_SIZE)
def _face_index_sets(verts: tuple[Vec, ...]) -> tuple[tuple[frozenset[int], int], ...]:
    """Every proper face of the general ball with vertex list ``verts`` as
    (index set into ``verts``, dim), from the facet incidence alone, in ints
    and frozensets.

    Every face is an intersection of facets, so the facets' tight sets are
    closed under intersection with the facets.  Every facet of a face F is
    F & G for a facet G of the ball, so dim F = 1 + max dim(F & G) over the
    facets G with F & G nonempty and not F itself, and 0 when there is none
    (a vertex); each such F & G has fewer vertices than F, so the dimensions
    are read in order of size.  Kept per vertex list, not per space: equal
    spaces may list their vertices in different orders, and the index sets
    name positions.  The census and the lattice both read it.
    """
    if len(verts[0]) > _MAX_LATTICE_DIM_GENERAL:
        raise InputError("dim_too_large", "general face lattices are limited to dimension 6")
    facets = [tight for _, tight in _facet_incidence(verts)]
    meets: dict[frozenset[int], set[frozenset[int]]] = {}
    frontier = set(facets)
    while frontier:
        for s in frontier:
            meets[s] = {m for g in facets if (m := s & g) and m != s}
        frontier = set().union(*(meets[s] for s in frontier)).difference(meets)
    dims: dict[frozenset[int], int] = {}
    for s in sorted(meets, key=len):
        dims[s] = 1 + max(map(dims.__getitem__, meets[s]), default=-1)
    return tuple(dims.items())


def _faces_by_intersection(space: SpaceSpec) -> list[Face]:
    verts = ball_vertices(space)
    index_sets = _face_index_sets(verts)
    incidence = _facet_incidence(verts)
    faces = []
    for index_set, dim in index_sets:
        vs = tuple(sorted(verts[i] for i in index_set))
        supporting = tuple(f for f, tight in incidence if index_set <= tight)
        faces.append(Face(vs, dim, supporting))
    return faces


def face_census(space: SpaceSpec) -> FaceCensus:
    """Per-dimension face counts |F_k|, k = 0 .. n-1.

    Closed forms on l1 and l-inf; on a general ball, counted from the cached
    index sets and dimensions of `_face_index_sets`, with no lattice built.
    """
    _require_polyhedral(space)
    n = space.dim
    if space.kind == "lp":
        if space.p == INF:
            counts = tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n))
        else:
            counts = tuple(math.comb(n, k + 1) * 2 ** (k + 1) for k in range(n))
    else:
        counts_list = [0] * n
        for _, dim in _face_index_sets(ball_vertices(space)):
            counts_list[dim] += 1
        counts = tuple(counts_list)
    return FaceCensus(counts, sum(counts))


@lru_cache(maxsize=CACHE_SIZE)
def extreme_points(space: SpaceSpec) -> tuple[Vec, ...]:
    """The extreme points of the unit ball (its vertices), sorted; kept per
    space, since certification visits them in this order on every call."""
    _require_polyhedral(space)
    return tuple(sorted(ball_vertices(space)))


def minimal_face(space: SpaceSpec, x: Vec) -> Face:
    """The unique face containing x in its relative interior.

    Its vertex set consists of the ball vertices on which every supporting
    functional of x attains value one; its supporting set equals J(x).
    """
    _require_polyhedral(space)
    require_dim(space, x)
    if norm(space, x) != 1:
        raise InputError("not_unit", "x must lie on the unit sphere")
    sup = support_set(space, x).vertices
    vs = tuple(sorted(v for v in ball_vertices(space) if all(dot(f, v) == 1 for f in sup)))
    return Face(vs, affine_rank(vs), tuple(sorted(sup)))


def is_relative_interior(space: SpaceSpec, x: Vec, face: Face) -> bool:
    return minimal_face(space, x).vertices == face.vertices


def antipodal_representatives(space: SpaceSpec) -> tuple[Face, ...]:
    """One face per antipodal pair {F, -F}, in canonical order."""
    chosen = []
    for face in face_lattice(space):
        if face.vertices <= face.negated().vertices:
            chosen.append(face)
    return tuple(chosen)
