"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction

from bjlevel import Operator, RationalStream, SpaceSpec, ball_vertices, norm, operator, polar_vertices
from bjlevel.linalg import dot, matrix_rank
from bjlevel.simplex import solve_standard_lp

HEXAGON_VERTICES = [
    ("1", "0"),
    ("-1", "0"),
    ("0", "1"),
    ("0", "-1"),
    ("1", "1"),
    ("-1", "-1"),
]


def fr(text) -> Fraction:
    return Fraction(text)


def v(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part) for part in text.split(","))


def fraction_solve(rows, rhs):
    """Solve rows x = rhs by Gauss-Jordan elimination over Fractions; None
    when the square matrix is singular.  The reference for the library's
    integer solver."""
    n = len(rows)
    work = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        work[k] = [c / work[k][k] for c in work[k]]
        for i in range(n):
            if i != k and work[i][k] != 0:
                factor = work[i][k]
                work[i] = [c - factor * d for c, d in zip(work[i], work[k])]
    return tuple(row[n] for row in work)


def fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions:
    (rows, pivot column indices).  The reference for the library's integer
    rank, kernel and affine rank."""
    work = [[Fraction(c) for c in row] for row in rows]
    if not work:
        return [], []
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def isometry_group(space: SpaceSpec) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Every linear isometry of a polyhedral space, as its matrix.

    A linear map is an isometry iff it maps the ball's vertex set onto
    itself.  A backtracking search maps the first basis b_1..b_n of vertices
    (in list order) to vertices w_1..w_n, one at a time, keeping w_k only
    where ||w_k -+ w_i|| = ||b_k -+ b_i|| for every i < k.  Each full map is
    solved for T with T b_i = w_i (`fraction_solve`), and T is kept only if
    it is a bijection of the vertex set.  No support set, LP or
    certification code is used."""
    verts = list(ball_vertices(space))
    basis: list[tuple[Fraction, ...]] = []
    for p in verts:
        if len(basis) < space.dim and matrix_rank(basis + [p]) > len(basis):
            basis.append(p)

    def gaps(p, q):
        return norm(space, tuple(a - b for a, b in zip(p, q))), norm(space, tuple(a + b for a, b in zip(p, q)))

    basis_gaps = [[gaps(p, q) for q in basis] for p in basis]
    vertex_set = set(verts)
    group = []

    def extend(images: list[tuple[Fraction, ...]]) -> None:
        k = len(images)
        if k == len(basis):
            # Row r of T solves b_i . t = w_i[r] for every i.
            matrix = tuple(fraction_solve(basis, [w[r] for w in images]) for r in range(k))
            if {tuple(dot(row, p) for row in matrix) for p in verts} == vertex_set:
                group.append(matrix)
            return
        for w in verts:
            if all(gaps(w, images[i]) == basis_gaps[k][i] for i in range(k)):
                extend(images + [w])

    extend([])
    return group


def feasible_point(a_eq, b_eq):
    """A point with a_eq x = b_eq, x >= 0, or None when the system is
    infeasible: the bare feasibility LP, for tests that pose their own."""
    return solve_standard_lp(a_eq, b_eq).x


def cube_cross_vertices(dim: int = 3) -> list[tuple[Fraction, ...]]:
    """The vertices of the cube [-1, 1]^dim and of twice the cross-polytope
    (14 for dim = 3, 24 for dim = 4)."""
    cube = [tuple(Fraction(s) for s in signs) for signs in itertools.product((1, -1), repeat=dim)]
    cross = [tuple(Fraction(2 * s) if j == i else Fraction(0) for j in range(dim)) for i in range(dim) for s in (1, -1)]
    return cube + cross


def sphere_ball(rng, dim, pairs, scale=1):
    """+-p for rational points p on the Euclidean unit sphere; all extreme.

    The points are inverse stereographic images of points t whose coordinates
    have numerators in [-6 scale, 6 scale] and denominators in [1, 2 scale]."""
    while True:
        chosen = set()
        while len(chosen) < pairs:
            t = [Fraction(rng.randint(-6 * scale, 6 * scale), rng.randint(1, 2 * scale)) for _ in range(dim - 1)]
            s = sum((c * c for c in t), Fraction(0))
            p = tuple(2 * c / (s + 1) for c in t) + ((s - 1) / (s + 1),)
            if tuple(-c for c in p) not in chosen:
                chosen.add(p)
        points = sorted(chosen)
        if matrix_rank(points) == dim:
            return points + [tuple(-c for c in p) for p in points]


def probe_points(space: SpaceSpec, rng, digits: int = 40):
    """Three lists of points of a polyhedral space, each point scaled by a
    rational with a ``digits``-digit denominator: the ball's vertices, the
    centroid of each facet's vertices (a point inside that facet), and as
    many generic points as there are vertices."""

    def big(low: int) -> Fraction:
        return Fraction(rng.randint(low, 10**digits), rng.randint(10 ** (digits - 1), 10**digits))

    def scaled(p):
        r = big(1)
        return tuple(r * c for c in p)

    verts = ball_vertices(space)
    centroids = []
    for f in polar_vertices(space):
        tight = [p for p in verts if dot(f, p) == 1]
        centroids.append(tuple(sum(c) / len(tight) for c in zip(*tight)))
    vertex_points = [scaled(p) for p in verts]
    interior_points = [scaled(p) for p in centroids]
    generic = [tuple(big(-(10**digits)) for _ in range(space.dim)) for _ in verts]
    return vertex_points, interior_points, generic


def random_operator(space: SpaceSpec, stream: RationalStream) -> Operator:
    n = space.dim
    while True:
        rows = [[stream.next_fraction() for _ in range(n)] for _ in range(n)]
        if any(any(c != 0 for c in row) for row in rows):
            return operator(rows, space)


def random_operator_battery(space: SpaceSpec, count: int, seed: int) -> list[Operator]:
    stream = RationalStream(seed)
    return [random_operator(space, stream) for _ in range(count)]


def seeded_operator_kinds(space: SpaceSpec, seed: int) -> list[Operator]:
    """A scaled signed permutation, a diagonal and a dense operator on ``space``.

    Diagonal entries are drawn from {-2, -1, 1, 2}, so none of the three is
    the zero operator.
    """
    stream = RationalStream(seed)
    n = space.dim
    order = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates shuffle on the library stream
        j = stream.next_int(i + 1)
        order[i], order[j] = order[j], order[i]
    scale = Fraction(stream.next_int(3) + 1, 2)
    signs = [(-1, 1)[stream.next_int(2)] for _ in range(n)]
    perm = [[scale * signs[r] if c == order[r] else 0 for c in range(n)] for r in range(n)]
    diag = [(-2, -1, 1, 2)[stream.next_int(4)] for _ in range(n)]
    diagonal = [[diag[r] if c == r else 0 for c in range(n)] for r in range(n)]
    return [operator(perm, space), operator(diagonal, space), random_operator(space, stream)]
