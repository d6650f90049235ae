"""Level vectors of an operator, decided by exact dual certificates.

A nonzero x is a level vector of T exactly when T maps some kernel
hyperplane of a supporting functional at x into the orthogonality set of Tx.
Through the supporting-functional characterization of subspace orthogonality
this reduces to a linear feasibility question:

    exists f in J(x), g in J(Tx)  with  (adjoint T) g = (||Tx||/||x||) f,

where the scale is pinned by evaluating both sides at x.  Local preservation
of Birkhoff-James orthogonality at x is the same condition quantified over
every f in J(x), i.e. the polytope containment (||Tx||/||x||) J(x) inside
(adjoint T)(J(Tx)).  Both are decided by small exact LPs over the vertex
coefficients of the two support polytopes; when J(Tx) is one functional the
level test is a dual-norm evaluation instead (see `_solve_level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Union

from .errors import InputError, InternalCheckError
from .faces import antipodal_representatives, face_census
from .linalg import (
    ZERO,
    Vec,
    combination,
    dot,
    is_zero_vec,
    kernel_basis,
    mat_vec,
    transpose,
    unit,
    vec,
    vec_scale,
    vec_sub,
)
from .oracle import RationalStream, sample_sphere
from .orthogonality import bj_orthogonal, subspace_orthogonal
from .simplex import convex_weights, convex_weights_or_farkas
from .spaces import (
    CACHE_SIZE,
    EXACT,
    FLOAT,
    FLOAT_TOL,
    Operator,
    SpaceSpec,
    _facet_incidence,
    _integer_rows,
    _shared,
    dual_ball_vertices,
    dual_norm,
    float_path,
    is_exact,
    norm,
    norm_squared,
    polyhedral_space,
    require_dim,
)
from .support import _integer_norm_and_vertices, functional_in_support, support_set

Scalar = Union[Fraction, float]


@dataclass(frozen=True, slots=True)
class LevelCertificate:
    """Witness that x is a level vector of T.

    ``f`` in J(x) and ``g`` in J(Tx) satisfy (adjoint T) g = (||Tx||/||x||) f;
    the level number is ||Tx||^2/||x||^2.  When Tx = 0 the certificate is the
    degenerate record with level number 0 and no functional pair.
    """

    x: Vec
    f: Optional[tuple]
    g: Optional[tuple]
    level_number: Scalar
    mode: str


@dataclass(frozen=True, slots=True)
class DirectionalPreservation:
    holds: bool
    witness: Optional[tuple]


@dataclass(frozen=True, slots=True)
class PreservationReport:
    """Whether T preserves Birkhoff-James orthogonality at a point.

    On failure, ``failing_functional`` is the first vertex f of J(x) outside
    the containment and ``counterexample`` is a verified pair (y, margin) with
    f(y) = 0 while Tx is not orthogonal to Ty; on the exact path the margin,
    the least g(Ty) over the vertices g of J(Tx), is 1.
    """

    holds: bool
    failing_functional: Optional[tuple]
    counterexample: Optional[tuple[Vec, Scalar]]
    mode: str


def _mode_pair(op: Operator) -> str:
    dom_exact = is_exact(op.domain)
    cod_exact = is_exact(op.codomain)
    if dom_exact and cod_exact:
        return EXACT
    if dom_exact != cod_exact:
        raise InputError(
            "mixed_arithmetic",
            "operators between exact (polyhedral/l1/l-inf) and float (lp) spaces "
            "are not supported",
        )
    return FLOAT


def _adjoint_images(tmat, functionals) -> list[Vec]:
    """T^T q for each functional q (``tmat`` is T^T)."""
    return [mat_vec(tmat, q) for q in functionals]


def _nonzero_point(op: Operator, x: Vec) -> Vec:
    """x as an exact vector of T's domain (floats convert exactly, keeping the
    pipeline rational); a wrong dimension or x = 0 is an input error."""
    x = vec(x)
    require_dim(op.domain, x)
    if is_zero_vec(x):
        raise InputError("zero_vector", "x must be nonzero")
    return x


def is_level_vector(op: Operator, x: Vec) -> Optional[LevelCertificate]:
    """A level certificate for x, or None when x is not a level vector."""
    x = _nonzero_point(op, x)
    mode = _mode_pair(op)
    tx = op(x)
    if is_zero_vec(tx):
        return LevelCertificate(x, None, None, Fraction(0), mode)
    if mode == FLOAT:
        return _level_vector_float(op, x, tx)[0]

    found = _exact_level(op, x, tx)
    return None if found is None else LevelCertificate(x, *found, EXACT)


def _exact_level(op: Operator, x: Vec, tx: Vec) -> Optional[tuple]:
    """(f, g, level number) certifying x as a level vector of T, or None.

    Exact mode, Tx nonzero.  The certificate is checked against its defining
    equation before it is returned.
    """
    scale = norm(op.codomain, tx) / norm(op.domain, x)
    p_verts = support_set(op.domain, x).vertices
    q_verts = support_set(op.codomain, tx).vertices
    tmat = transpose(op.matrix)
    return _checked(_solve_level(op, tmat, p_verts, q_verts, scale), tmat, scale)


def _checked(found: Optional[tuple], tmat, scale: Fraction) -> Optional[tuple]:
    """``found`` from `_solve_level`, once T^T g = scale f is verified for it
    (``tmat`` is T^T)."""
    if found is not None and mat_vec(tmat, found[1]) != vec_scale(scale, found[0]):
        raise InternalCheckError("level certificate fails its defining equation")
    return found


def _solve_level(op: Operator, tmat, p_verts, q_verts, scale: Fraction) -> Optional[tuple]:
    """(f, g, k) with f in conv(p_verts) = J(x), g in conv(q_verts) = J(Tx)
    and T^T g = scale f, or None; the level number is k = scale^2.  ``tmat``
    is T^T, built once by the caller.

    When J(Tx) is one functional q (Tx is a smooth point), no LP is needed.
    Then g = q, and T^T g = scale f fixes f = T^T q / scale.  This f already
    attains the norm at x: f(x) = q(Tx) / scale = ||Tx|| / scale = ||x||.
    A functional with f(x) = ||x|| lies in J(x) exactly when ||f||_* = 1, so
    x is a level vector iff ||T^T q||_* = scale, and (f, q, k) is then the
    only certificate, the one the LP would return.
    """
    k = scale * scale
    adj = _adjoint_images(tmat, q_verts)
    if len(q_verts) == 1:
        f = tuple(c / scale for c in adj[0])
        return (f, q_verts[0], k) if dual_norm(op.domain, f) == 1 else None
    negated = [vec_scale(-scale, p) for p in p_verts]
    weights = convex_weights([negated, adj], (ZERO,) * op.domain.dim)
    if weights is None:
        return None
    lam, mu = weights
    return combination(lam, p_verts), combination(mu, q_verts), k


def _float_pullback(op: Operator, g) -> list[float]:
    """T^T g in floats."""
    return [
        sum(float(op.matrix[r][k]) * g[r] for r in range(op.codomain.dim))
        for k in range(op.domain.dim)
    ]


@float_path
def _level_vector_float(op: Operator, x: Vec, tx: Vec) -> tuple[Optional[LevelCertificate], Optional[tuple]]:
    """The float level test at x: (certificate, None) on success, else
    (None, (f, T^T g)) for J(x) = {f} and J(Tx) = {g} when the test read
    them, or (None, None) when the l2 test failed without them."""
    if op.domain.p == 2 and op.codomain.p == 2:
        # Right-singular-vector test, exact on rational input: M^T M x = k x.
        # Inputs that arrived as floats (e.g. functionals produced by a
        # normalization) carry dyadic rounding, absorbed by the tolerance.
        k = norm_squared(op.codomain, tx) / norm_squared(op.domain, x)
        residual = vec_sub(mat_vec(transpose(op.matrix), tx), vec_scale(k, x))
        if any(abs(r) > FLOAT_TOL * max(1, abs(k)) for r in residual):
            return None, None
        f = support_set(op.domain, x).vertices[0]
        g = support_set(op.codomain, tx).vertices[0]
        return LevelCertificate(x, f, g, k, FLOAT), None
    scale = float(norm(op.codomain, tx)) / float(norm(op.domain, x))
    f = support_set(op.domain, x).vertices[0]
    g = support_set(op.codomain, tx).vertices[0]
    image = _float_pullback(op, g)
    if all(abs(i - scale * fc) <= FLOAT_TOL * max(1.0, scale) for i, fc in zip(image, f)):
        k = float(norm_squared(op.codomain, tx)) / float(norm_squared(op.domain, x))
        return LevelCertificate(x, f, g, k, FLOAT), None
    return None, (f, image)


def level_number(op: Operator, x: Vec) -> Scalar:
    """The level number ||Tx||^2/||x||^2 of a level vector x."""
    cert = is_level_vector(op, x)
    if cert is None:
        raise InputError("not_level_vector", f"{x} is not a level vector of the operator")
    return cert.level_number


def preserves_bj_directional(op: Operator, x: Vec, f: Vec) -> DirectionalPreservation:
    """Does T preserve orthogonality at x with respect to ker f, f in J(x)?

    Holds exactly when some g in J(Tx) pulls back to (||Tx||/||x||) f under
    the adjoint; the witness g is returned.
    """
    x = _nonzero_point(op, x)
    if not functional_in_support(op.domain, x, f):
        raise InputError("not_supporting", "f is not a supporting functional of x")
    mode = _mode_pair(op)
    tx = op(x)
    if is_zero_vec(tx):
        return DirectionalPreservation(True, None)
    if mode == FLOAT:
        cert, _ = _level_vector_float(op, x, tx)
        return DirectionalPreservation(cert is not None, cert.g if cert else None)
    scale = norm(op.codomain, tx) / norm(op.domain, x)
    q_verts = support_set(op.codomain, tx).vertices
    g, _ = _membership(q_verts, _adjoint_images(transpose(op.matrix), q_verts), vec_scale(scale, tuple(f)))
    return DirectionalPreservation(g is not None, g)


def _membership(q_verts, adj, target: Vec) -> tuple[Optional[tuple], Optional[Vec]]:
    """(g, None) with g in J(Tx) = conv(q_verts) and (adjoint T) g = target,
    or (None, z) with a.z < target.z for every adjoint image a.

    ``adj`` holds the adjoint images of ``q_verts``, in the same order.  With
    one image a, z = target - a, and target.z - a.z = |z|^2 > 0.  Otherwise z
    is the coordinate part of the membership LP's Farkas vector.
    """
    if len(q_verts) == 1:
        return (q_verts[0], None) if adj[0] == target else (None, vec_sub(target, adj[0]))
    weights, farkas = convex_weights_or_farkas([adj], target)
    if weights is None:
        return None, farkas[: len(target)]
    return combination(weights[0], q_verts), None


def preserves_bj_at(op: Operator, x: Vec) -> PreservationReport:
    """Decide local preservation of Birkhoff-James orthogonality at x.

    Checks every vertex f of J(x) for membership of scale f, scale =
    ||Tx||/||x||, in the adjoint image of J(Tx): one LP per vertex, none when
    J(Tx) is one functional.  The first failure yields z with a.z < scale f(z)
    for every adjoint image a = T^T g of a vertex g of J(Tx).  Then
    y = (f(z)/f(x)) x - z has f(y) = 0 and g(Ty) = scale f(z) - a.z > 0, as
    f(x) = ||x|| and a.x = ||Tx||; scaled so that the least g(Ty) is 1, and
    re-verified through `bj_orthogonal`, it is the counterexample.
    """
    x = _nonzero_point(op, x)
    mode = _mode_pair(op)
    tx = op(x)
    if is_zero_vec(tx):
        return PreservationReport(True, None, None, mode)
    if mode == FLOAT:
        return _preserves_float(op, x, tx)
    scale = norm(op.codomain, tx) / norm(op.domain, x)
    p_verts = support_set(op.domain, x).vertices
    q_verts = support_set(op.codomain, tx).vertices
    adj = _adjoint_images(transpose(op.matrix), q_verts)
    for f in p_verts:
        _, z = _membership(q_verts, adj, vec_scale(scale, f))
        if z is not None:
            y = vec_sub(vec_scale(dot(f, z) / dot(f, x), x), z)
            y = vec_scale(1 / min(dot(a, y) for a in adj), y)
            if not bj_orthogonal(op.domain, x, y).orthogonal:
                raise InternalCheckError("counterexample is not orthogonal to x")
            if bj_orthogonal(op.codomain, tx, op(y)).orthogonal:
                raise InternalCheckError("counterexample images remained orthogonal")
            return PreservationReport(False, f, (y, min(dot(a, y) for a in adj)), mode)
    return PreservationReport(True, None, None, mode)


@float_path
def _preserves_float(op: Operator, x: Vec, tx: Vec) -> PreservationReport:
    cert, read = _level_vector_float(op, x, tx)
    if cert is not None:
        return PreservationReport(True, None, None, FLOAT)
    # Smooth float spaces: J(x) = {f}; failure yields a kernel direction of f
    # on which the image functional d = T^T g does not vanish.
    f, d = read or (
        support_set(op.domain, x).vertices[0],
        _float_pullback(op, support_set(op.codomain, tx).vertices[0]),
    )
    best_y, best_val = None, 0.0
    for j in range(op.domain.dim):
        if op.domain.p == 2:
            # ker f = ker <., x>: the projection is exactly rational.
            ratio = x[j] / sum((c * c for c in x), Fraction(0))
            y = vec_sub(unit(op.domain.dim, j), vec_scale(ratio, x))
        else:
            fx = sum(fc * float(xc) for fc, xc in zip(f, x))
            y = vec_sub(
                unit(op.domain.dim, j),
                vec_scale(Fraction(f[j] / fx).limit_denominator(10**12), x),
            )
        val = abs(sum(dc * float(yc) for dc, yc in zip(d, y)))
        if val > best_val:
            best_y, best_val = y, val
    if best_y is None or best_val <= FLOAT_TOL:
        return PreservationReport(False, f, None, FLOAT)
    return PreservationReport(False, f, (best_y, best_val), FLOAT)


def kernel_condition(op: Operator, x: Vec) -> bool:
    """Necessary condition for level vectors: Tx = 0 or ker T inside x-orthogonal set."""
    x = _nonzero_point(op, x)
    if is_zero_vec(op(x)):
        return True
    basis = kernel_basis(op.matrix)
    if not basis:
        return True
    return subspace_orthogonal(op.domain, x, basis).orthogonal


@dataclass(frozen=True, slots=True)
class FaceProbe:
    """Level-vector findings on one antipodal face pair."""

    face_vertices: tuple[Vec, ...]
    face_dim: int
    points: tuple[Vec, ...]
    level_numbers: tuple[Optional[Scalar], ...]

    @property
    def all_level(self) -> bool:
        return all(k is not None for k in self.level_numbers)

    @property
    def found(self) -> tuple[Scalar, ...]:
        return tuple(k for k in self.level_numbers if k is not None)


@dataclass(frozen=True, slots=True)
class LevelNumberReport:
    """An under-approximation of the level-number set L(T) by face sampling.

    Faces are probed at their centroid plus seeded strictly-positive convex
    combinations of their vertices; the true L(T) may contain further values,
    hence ``under_approximation`` is always True.  For a fixed seed the
    report is deterministic.
    """

    values: tuple[Scalar, ...]
    per_face: tuple[FaceProbe, ...]
    bound: Optional[Fraction]
    under_approximation: bool
    seed: int
    samples_per_face: int


def enumerate_level_numbers(op: Operator, samples_per_face: int, seed: int) -> LevelNumberReport:
    """Probe every antipodal face pair of the domain ball for level vectors.

    Each point gets the verdict of `is_level_vector`, found face by face from
    the domain's probe table (`_probe_table`).  Every probe point x lies in
    the relative interior of its face F, so J(x) is the face's J_F, and on a
    proper face ||x|| = 1; only Tx, ||Tx|| and J(Tx) are computed per point,
    and in integers.  With D_F v the integer rows of F's vertices, a point of
    positive integer weights w is x = q / (D_F sum w) with q = sum w_i D_F v_i
    integral; with M = D_T T the integer matrix of T, Tx = Mq / (D_T D_F sum w).
    So Tx = 0 exactly when Mq = 0, J(Tx) = J(Mq), since J does not change
    under positive scaling, and ||Tx|| is one Fraction.  The reported point
    keeps the vertices' own entry where they all agree and is q_k / (D_F sum w)
    elsewhere.  Points with the same J_F, J(Tx) and ||Tx|| pose the same
    problem, so within one call each distinct subproblem is solved once, and
    its certificate checked once, when it is solved: the check reads only f,
    g, the scale and T, which that key fixes.
    """
    if not is_exact(op.domain):
        raise InputError("not_polyhedral", "enumeration needs a polyhedral domain")
    if samples_per_face < 0:
        raise InputError("bad_count", "samples_per_face must be >= 0")
    table = _probe_table(op.domain)
    _mode_pair(op)  # a float codomain is rejected as by is_level_vector
    stream = RationalStream(seed)
    tmat = transpose(op.matrix)
    d_t, m_rows = _integer_rows(op.matrix)
    # Equal coordinates and level numbers of the report share one Fraction,
    # and equal tuples of level numbers one tuple.
    pool = {ZERO: ZERO}
    number_rows: dict = {}
    probes = []
    values: set[Fraction] = set()
    for face, first, p_verts, d_f, columns, fixed in table:
        points = [first]
        sums = [(tuple(map(sum, columns)), d_f * len(face.vertices))]  # the first point's weights are all 1
        if face.dim > 0:
            for _ in range(samples_per_face):
                # The draws of next_positive_fraction, without the common
                # denominator 1000, which a convex combination divides out.
                weights = [stream.next_int(1000) + 1 for _ in face.vertices]
                q = tuple(sum(map(mul, weights, column)) for column in columns)
                den = d_f * sum(weights)
                points.append(_shared(tuple(Fraction(c, den) if v is None else v for v, c in zip(fixed, q)), pool))
                sums.append((q, den))
        # Faces have distinct J_F, so one memo per face is keyed on J_F too.
        memo: dict = {}
        numbers = tuple(
            _face_level_number(op, tmat, m_rows, p_verts, q, d_t * den, memo, pool) for q, den in sums
        )
        numbers = number_rows.setdefault(numbers, numbers)
        values.update(k for k in numbers if k is not None)
        probes.append(FaceProbe(face.vertices, face.dim, tuple(points), numbers))
    bound = None
    if op.domain == op.codomain:
        bound = level_count_bound(op.domain, op)
    return LevelNumberReport(
        tuple(sorted(values)), tuple(probes), bound, True, seed, samples_per_face
    )


@lru_cache(maxsize=CACHE_SIZE)
def _probe_table(space: SpaceSpec) -> tuple[tuple, ...]:
    """One row (F, first probe point, J_F, D_F, columns, fixed) per face F of
    `antipodal_representatives`, in that order.

    The first probe point of a 0-face is its vertex, and of a larger face its
    centroid, with equal entries sharing one Fraction.  Both lie in the
    relative interior of F, where J(x) is the same polytope J_F, read here as
    `support_set` there.  D_F is the lcm of the denominators of F's vertices,
    ``columns[k]`` holds coordinate k of each integer vertex row D_F v, and
    ``fixed[k]`` is the first vertex's own entry when every vertex of F has
    that value at k, else None.
    """
    pool = {ZERO: ZERO}
    table = []
    for face in antipodal_representatives(space):
        point = face.vertices[0] if face.dim == 0 else _shared(face.centroid(), pool)
        d_f, rows = _integer_rows(face.vertices)
        fixed = tuple(c if all(v[k] == c for v in face.vertices) else None for k, c in enumerate(face.vertices[0]))
        table.append((face, point, support_set(space, point).vertices, d_f, tuple(zip(*rows)), fixed))
    return tuple(table)


def _face_level_number(op: Operator, tmat, m_rows, p_verts, q, s: int, memo: dict, pool: dict) -> Optional[Fraction]:
    """The level number of a point x of a proper face with J(x) = conv(p_verts),
    or None when x is not a level vector.  ``m_rows`` is the integer matrix
    M = D_T T and Tx = Mq / s; ``memo`` maps (J(Tx), ||Tx||) to the checked
    `_solve_level` answer, and ``tmat`` is T^T."""
    mq = tuple(sum(map(mul, row, q)) for row in m_rows)
    if not any(mq):
        return ZERO
    scale, q_verts = _integer_norm_and_vertices(op.codomain, mq, s)  # ||Tx|| / ||x||, which is 1
    key = (q_verts, scale)
    if key not in memo:
        memo[key] = _checked(_solve_level(op, tmat, p_verts, q_verts, scale), tmat, scale)
    found = memo[key]
    return None if found is None else pool.setdefault(found[2], found[2])


def level_count_bound(space: SpaceSpec, op: Operator) -> Fraction:
    """Face-count bound on |L(T)| for T acting on a polyhedral space.

    Half the number of proper faces when T is injective; with an m-dimensional
    kernel, the faces of the kernel section of the ball are excluded and the
    single level number 0 is added back.
    """
    if not is_exact(space):
        raise InputError("not_polyhedral", "the bound is for polyhedral spaces")
    if op.domain != space or op.codomain != space:
        raise InputError("bad_operator", "the bound applies to operators from the space to itself")
    basis = kernel_basis(op.matrix)
    if len(basis) == space.dim:
        return Fraction(1)  # T = 0: the kernel section is the whole ball, and L(T) = {0}
    total = face_census(space).total
    if not basis:
        return Fraction(total, 2)
    section = kernel_section_space(space, basis)
    g_total = face_census(section).total
    return Fraction(total - g_total, 2) + 1


def kernel_section_space(space: SpaceSpec, basis: list[Vec]) -> SpaceSpec:
    """The unit ball of a subspace (here: ker T) as an m-dimensional polytope.

    In the coordinates z of the given basis the section ball is cut out by
    the facet functionals of the ambient ball; its vertices are the facet
    functionals of the polytope spanned by those constraint rows.
    """
    rows = sorted({tuple(dot(phi, b) for b in basis) for phi in dual_ball_vertices(space)})
    rows = tuple(r for r in rows if any(c != 0 for c in r))
    return polyhedral_space(f for f, _ in _facet_incidence(rows))


def search_non_level_vector(op: Operator, samples: int, seed: int) -> Optional[Vec]:
    """First sampled unit vector that is not a level vector, if any.

    Sampling is incomplete: returning None reports an inconclusive search,
    not a proof that every unit vector is a level vector.
    """
    for x in sample_sphere(op.domain, samples, seed):
        if is_level_vector(op, x) is None:
            return x
    return None
