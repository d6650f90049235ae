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
level test is a dual-norm evaluation instead, and when it is an edge, one
interval in a single variable (see `_solve_level`).

The necessary kernel condition, ker T inside the orthogonality set of x, is
decided in integers: the kernel is read as integer vectors from the integer
matrix of T, Tx = 0 is tested on it, and when ker T is a line in an exact
domain the Birkhoff-James interval is read on integer vectors (the ball's
`extremes`, `spaces.exact_ball`); only larger kernels, and float domains,
pose the subspace LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional, Union

from .errors import InputError, InternalCheckError
from .faces import FaceCensus, _facet_census, antipodal_representatives, face_census
from .linalg import (
    ZERO,
    Vec,
    combination,
    fraction_kernel,
    int_mat_vec,
    integer_kernel,
    integer_point,
    integer_rows,
    is_zero_vec,
    mat_vec,
    transpose,
    unit,
    vec,
    vec_scale,
    vec_sub,
)
from .oracle import RationalStream, require_sample_budget, sample_sphere
from .orthogonality import subspace_orthogonal
from .simplex import convex_weights, convex_weights_or_farkas
from .spaces import (
    CACHE_SIZE,
    EXACT,
    FLOAT,
    FLOAT_TOL,
    Operator,
    SpaceSpec,
    _extreme_incidence,
    _facet_incidence,
    _polyhedral_ball,
    _shared,
    exact_ball,
    float_path,
    is_exact,
    norm,
    norm_squared,
    polyhedral_space,
    require_dim,
)
from .support import functional_in_support, support_set

Scalar = Union[Fraction, float]

# Enumeration's desk-scale guard on faces x samples per face, the probe
# points of a call.  Timed on a 2.0 GHz Xeon core on seeded dense operators
# of l-inf^n, once the probe table is built, a point takes about 0.4-0.9
# n^2 us (3.8 us in 2-D, 8.8 us in 4-D, 24 us in 8-D), and the report keeps
# about 0.5 KB a point: so at most 20,000,000 / n^2 points, and 500,000 in
# any dimension (about 270 MB).  The largest calls accepted on l-inf^2 to
# l-inf^8 take 2 to 9 s.  A point whose J(Tx) has three or more vertices
# and misses the memo poses an LP, whose cost this count does not bound.
_MAX_ENUMERATION_POINTS = 500_000
_MAX_ENUMERATION_COST = 20_000_000


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


def _nonzero_point(op: Operator, x: Vec) -> Vec:
    """x as an exact vector of T's domain (floats convert exactly, keeping the
    pipeline rational); a wrong dimension or x = 0 is an input error."""
    x = vec(x)
    require_dim(op.domain, x)
    if is_zero_vec(x):
        raise InputError("zero_vector", "x must be nonzero")
    return x


def _image_key(codomain: SpaceSpec, m_rows, q, s: int) -> Optional[tuple]:
    """The ball's `key` of Tx = Mq / s, M the integer matrix ``m_rows``:
    (face, n, d) with ||Tx|| = n / d and the face naming J(Tx), all ints; None
    when Tx = 0, that is Mq = 0.  J(Tx) = J(Mq), since J does not change under
    positive scaling.  `_Point` reads J(Tx) from it as integer rows."""
    mq = int_mat_vec(m_rows, q)
    if not any(mq):
        return None
    return exact_ball(codomain).key(codomain, mq, s)


@dataclass
class _Point:
    """One exact evaluation of T at x with Tx != 0, in integers.

    x = q / s with q integral, and T = M / D_T with M integral (``m_rows``).
    ||x|| = n / d (``norm_x`` = (n, d)) with J(x), and ||Tx|| with J(Tx)
    (``key``, the `_image_key` of Tx = Mq / (D_T s)), each come from one
    scan; the scale ||Tx|| / ||x|| is the reduced pair (sn, sd).  J(x) is
    kept as its face (``p_face``), its integer rows made one at a time where
    needed (the ball's `face_rows`).  J(Tx) is read once as the integer rows
    D_Q g of its vertices (``q_rows``) with their adjoint images M^T (D_Q g)
    (``images``): g(Ty) = (D_Q g).(My) / den and T^T g = image / den, with
    den = D_T D_Q, the exact path's one source of T^T g.  No Fraction vertex
    of J(Tx) is listed: the LPs take the images as Fractions (``adj``), and
    a functional they return is made from the rows (`functional`), a
    smooth image's one functional is the ball's `single`.
    """

    q: tuple[int, ...]
    s: int
    d_t: int
    m_rows: tuple
    norm_x: tuple[int, int]
    p_face: tuple[int, ...]
    codomain: SpaceSpec
    key: tuple
    scale: tuple[int, int] = field(init=False)
    d_q: int = field(init=False)
    q_rows: tuple = field(init=False)
    images: tuple = field(init=False)
    den: int = field(init=False)

    def __post_init__(self):
        face, tn, td = self.key
        xn, xd = self.norm_x
        sn, sd = tn * xd, td * xn
        g = math.gcd(sn, sd)
        self.scale = (sn // g, sd // g)
        d_q, rows = exact_ball(self.codomain).face_rows(self.codomain, face)
        self.d_q, self.q_rows = d_q, tuple(rows)
        columns = tuple(zip(*self.m_rows))
        self.images = tuple(int_mat_vec(columns, g) for g in self.q_rows)
        self.den = self.d_t * d_q

    @cached_property
    def adj(self) -> list[Vec]:
        """The adjoint images T^T g = image / den as Fraction vectors, built
        once per point, for the LPs."""
        return [tuple(Fraction(c, self.den) for c in image) for image in self.images]

    def functional(self, weights) -> Vec:
        """The functional of J(Tx) with the convex weights on its vertices,
        sum w_i g_i = sum w_i (D_Q g_i) / D_Q, from the integer rows."""
        g = combination(weights, self.q_rows)
        return g if self.d_q == 1 else tuple(c / self.d_q for c in g)


def _evaluate(op: Operator, x: Vec) -> Optional[_Point]:
    """The evaluation of T at x on the exact path, or None when Tx = 0."""
    q, s = integer_point(x)
    d_t, m_rows = integer_rows(op.matrix)
    key = _image_key(op.codomain, m_rows, q, d_t * s)
    if key is None:
        return None
    p_face, n, d = exact_ball(op.domain).key(op.domain, q, s)
    return _Point(q, s, d_t, m_rows, (n, d), p_face, op.codomain, key)


def is_level_vector(op: Operator, x: Vec) -> Optional[LevelCertificate]:
    """A level certificate for x, or None when x is not a level vector.

    On the exact path T is evaluated at x once (`_evaluate`) and the level
    problem is decided by `_solve_level`: by one dual norm when J(Tx) is one
    functional, by one interval in t when it is an edge, and by the level LP
    otherwise.  Every certificate is checked against T^T g = scale f
    (`_checked`)."""
    x = _nonzero_point(op, x)
    if _mode_pair(op) == FLOAT:
        return _level_vector_float(op, x, op(x))[0]
    point = _evaluate(op, x)
    if point is None:
        return LevelCertificate(x, None, None, Fraction(0), EXACT)
    found = _checked(point.d_t, point.m_rows, point.scale, _solve_level(op, point))
    return None if found is None else LevelCertificate(x, *found, EXACT)


def _checked(d_t: int, m_rows, scale: tuple[int, int], found: Optional[tuple]) -> Optional[tuple]:
    """``found``, a level certificate (f, g, k) at scale ||Tx||/||x|| = sn / sd
    (``scale`` = (sn, sd)) or None, once T^T g = scale f is verified for it.

    In integers, from M = D_T T (``m_rows``) and the certificate's own g, not
    from any cached adjoint image: with g = gq / gs and f = fq / fs,
    T^T g = M^T gq / (D_T gs), so the equation reads
    (M^T gq) sd fs = sn D_T gs fq.
    """
    if found is None:
        return None
    (fq, fs), (gq, gs) = integer_point(found[0]), integer_point(found[1])
    sn, sd = scale
    left, right = sd * fs, sn * d_t * gs
    if any(sum(map(mul, column, gq)) * left != right * c for column, c in zip(zip(*m_rows), fq)):
        raise InternalCheckError("level certificate fails its defining equation")
    return found


def _solve_level(op: Operator, point: _Point) -> Optional[tuple]:
    """(f, g, k) with f in J(x), g in J(Tx) and T^T g = scale f, or None;
    the level number is k = scale^2.  J(Tx) is read as the integer rows of
    ``point``, and T^T g from its adjoint images.

    For any g in J(Tx), T^T g = scale f fixes f = T^T g / scale, and this f
    already attains the norm at x: f(x) = g(Tx) / scale = ||Tx|| / scale =
    ||x||.  A functional with f(x) = ||x|| lies in J(x) exactly when
    ||f||_* = 1 (it is never less), so x is a level vector iff some g in
    J(Tx) has ||T^T g||_* = scale, and J(x) is not needed to decide it:
    - When J(Tx) is one functional q (Tx is a smooth point), g = q is
      forced: x is a level vector iff ||T^T q||_* = scale
      (`_adjoint_dual_norm`, in integers on the point's image M^T (D_Q q)),
      and (f, q, k) is then the only certificate, the one the LP would
      return (`_smooth_certificate`); f is built only then.
    - When J(Tx) is an edge [q0, q1], g = (1 - t) q0 + t q1 for one t in
      [0, 1], and the t with ||T^T g||_* <= scale form an interval, read in
      integers from linear bounds (`_edge_certificate`); the certificate is
      taken at its least t.
    Only when J(Tx) has three or more vertices is an LP solved, over the
    vertices of J(x) and J(Tx), and only then is J(x) listed from its face.
    """
    rows = point.q_rows
    if len(rows) == 1:
        image, den = point.images[0], point.den
        if _adjoint_dual_norm(op.domain, image, den) != point.scale:
            return None
        return _smooth_certificate(image, den, point.scale, exact_ball(op.codomain).single(op.codomain, point.key[0]))
    if len(rows) == 2:
        return _edge_certificate(op.domain, point)
    p_verts = tuple(exact_ball(op.domain).face_vertices(op.domain, point.p_face))
    scale = Fraction(*point.scale)
    negated = [vec_scale(-scale, p) for p in p_verts]
    weights = convex_weights([negated, point.adj], (ZERO,) * op.domain.dim)
    if weights is None:
        return None
    lam, mu = weights
    return combination(lam, p_verts), point.functional(mu), scale * scale


def _adjoint_dual_norm(domain: SpaceSpec, image: tuple[int, ...], den: int) -> tuple[int, int]:
    """||image / den||_* as (n, d) in lowest terms, for an integer image and
    den > 0, in integers: the ball's `dual_norm` gives top / (D den).
    With image / den = T^T q for a smooth J(Tx) = {q}, x is a level vector
    exactly when this is ||Tx||/||x||."""
    top, d = exact_ball(domain).dual_norm(domain, image)
    d *= den
    g = math.gcd(top, d)
    return top // g, d // g


def _smooth_certificate(image: tuple[int, ...], den: int, scale: tuple[int, int], q: Vec) -> tuple:
    """The level certificate (f, q, scale^2) for the functional q of a smooth
    image J(Tx) = {q}, or a point q of an edge image (`_edge_certificate`),
    with T^T q = image / den and ||T^T q||_* = scale = sn / sd (``scale`` =
    (sn, sd) in lowest terms): f = T^T q / scale."""
    sn, sd = scale
    return tuple(Fraction(c * sd, den * sn) for c in image), q, Fraction(sn * sn, sd * sd)


def _edge_certificate(domain: SpaceSpec, point: _Point) -> Optional[tuple]:
    """The level certificate on an edge image J(Tx) = [q0, q1], q0 < q1, at
    the least t in [0, 1] with ||T^T g_t||_* <= scale for g_t = (1 - t) q0
    + t q1, or None when there is no such t.

    With a_j = M^T (D_Q q_j) the point's integer images, T^T g_t = w_t / den
    for w_t = (1 - t) a0 + t a1, and ||w||_* = max_r r.w / D over the integer
    rows r of the ball's `edge_rows`.  For scale = sn / sd each row bounds t by
    (1 - t) P + t R <= 0, with P and R the integers sd r.a_j - sn den D:
    nothing when P, R <= 0, no t when P, R > 0, t >= P / (P - R) when only P
    is positive and t <= -P / (R - P) when only R is.  So the feasible t are
    one interval [lo, hi] of integer fractions (num, den), den > 0.  Since
    ||T^T g||_* >= scale on all of J(Tx), its t are those with equality.
    At t = u / v, g_t = ((v - u) Q0 + u Q1) / (v D_Q) on the integer rows
    Q_j = D_Q q_j, and f = T^T g_t / scale is checked to have ||f||_* = 1.
    """
    (q0, q1), (a0, a1) = point.q_rows, point.images
    d, v0, v1 = exact_ball(domain).edge_rows(domain, a0, a1)
    sn, sd = point.scale
    bound = sn * point.den * d
    lo, hi = (0, 1), (1, 1)
    for r0, r1 in zip(v0, v1):
        p, r = sd * r0 - bound, sd * r1 - bound
        if p > 0:
            if r > 0:
                return None
            if p * lo[1] > lo[0] * (p - r):
                lo = (p, p - r)
        elif r > 0 and -p * hi[1] < hi[0] * (r - p):
            hi = (-p, r - p)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    u, v = lo
    w = tuple((v - u) * c0 + u * c1 for c0, c1 in zip(a0, a1))
    if _adjoint_dual_norm(domain, w, v * point.den) != point.scale:
        raise InternalCheckError("edge level certificate does not have dual norm 1")
    g = tuple(Fraction((v - u) * c0 + u * c1, v * point.d_q) for c0, c1 in zip(q0, q1))
    return _smooth_certificate(w, v * point.den, point.scale, g)


def _float_pullback(op: Operator, g) -> list[float]:
    """T^T g in floats."""
    return [
        sum(float(op.matrix[r][k]) * g[r] for r in range(op.codomain.dim))
        for k in range(op.domain.dim)
    ]


@float_path
def _level_vector_float(op: Operator, x: Vec, tx: Vec) -> tuple[Optional[LevelCertificate], Optional[tuple]]:
    """The float level test at x: (certificate, None) on success (the
    degenerate one when Tx = 0), else (None, (f, T^T g)) for J(x) = {f} and
    J(Tx) = {g} when the test read them, or (None, None) when the l2 test
    failed without them."""
    if is_zero_vec(tx):
        return LevelCertificate(x, None, None, Fraction(0), FLOAT), None
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
    the adjoint; the witness g is returned.  On the exact path f = p / d is
    tested in integers against the evaluation's ||x||, so x is scanned
    once.  f converts exactly (`linalg.vec`), so float input is decided in
    rationals.
    """
    x, f = _nonzero_point(op, x), vec(f)
    require_dim(op.domain, f)
    point = _evaluate(op, x) if is_exact(op.domain) and is_exact(op.codomain) else None
    if point is None:
        supporting = functional_in_support(op.domain, x, f)  # also when Tx = 0
    else:
        p, d = integer_point(f)
        (xn, xd), (top, dd) = point.norm_x, exact_ball(op.domain).dual_norm(op.domain, p)
        supporting = sum(map(mul, p, point.q)) * xd == xn * d * point.s and top == dd * d
    if not supporting:
        raise InputError("not_supporting", "f is not a supporting functional of x")
    if _mode_pair(op) == FLOAT:
        cert, _ = _level_vector_float(op, x, op(x))
        return DirectionalPreservation(cert is not None, cert.g if cert else None)
    if point is None:
        return DirectionalPreservation(True, None)
    g, _ = _membership(point, p, d)
    return DirectionalPreservation(g is not None, g)


def _membership(point: _Point, p: tuple[int, ...], d: int) -> tuple[Optional[tuple], Optional[tuple[tuple[int, ...], int]]]:
    """For f = p / d, p integral and d > 0: (g, None) with g in J(Tx) and
    (adjoint T) g = scale f, or (None, (Z, zs)) with z = Z / zs, Z integral,
    and a.z < scale f(z) for every adjoint image a.

    With one image a, z = scale f - a, and scale f(z) - a.z = |z|^2 > 0; in
    integers, with scale = sn / sd and a = image / den, Z is
    sn den p - sd d image over zs = sd d den, and no LP is solved.
    Otherwise z is the coordinate part of the membership LP's Farkas vector,
    for the target scale f = sn p / (sd d).
    """
    sn, sd = point.scale
    if len(point.q_rows) == 1:
        z = tuple(sn * point.den * c - sd * d * a for c, a in zip(p, point.images[0]))
        return (None, (z, sd * d * point.den)) if any(z) else (exact_ball(point.codomain).single(point.codomain, point.key[0]), None)
    target = tuple(Fraction(sn * c, sd * d) for c in p)
    weights, farkas = convex_weights_or_farkas([point.adj], target)
    if weights is None:
        return None, integer_point(farkas[: len(target)])
    return point.functional(weights[0]), None


def preserves_bj_at(op: Operator, x: Vec) -> PreservationReport:
    """Decide local preservation of Birkhoff-James orthogonality at x.

    Checks every vertex f of J(x), in sorted order, for membership of
    scale f, scale = ||Tx||/||x||, in the adjoint image of J(Tx): one LP per
    vertex, none when J(Tx) is one functional.  The first failure yields z
    with a.z < scale f(z) for every adjoint image a = T^T g of a vertex g of
    J(Tx), and with it the counterexample (`_counterexample`), re-verified by
    `_verified_margin`.  The vertices of J(x) are made one at a time from its
    face as integer rows (the ball's `face_rows`), and the loop stops at the
    first failure; only the failing vertex is built as a Fraction vector.
    When J(Tx) = {g} the only member is scale f = T^T g, so J(x) is
    preserved iff it is {T^T g / scale}: the first vertex or the second
    fails, or J(x) has one vertex, and the other 2^(#zeros) - 2 vertices of
    an l1 box are never made.  All of it reads one evaluation of T at x
    (`_evaluate`) and runs in integers, but for the membership LPs when J(Tx)
    has several vertices.
    """
    x = _nonzero_point(op, x)
    if _mode_pair(op) == FLOAT:
        return _preserves_float(op, x, op(x))
    point = _evaluate(op, x)
    if point is None:
        return PreservationReport(True, None, None, EXACT)
    ball = exact_ball(op.domain)
    d, rows = ball.face_rows(op.domain, point.p_face)
    for p in rows:
        _, z = _membership(point, p, d)
        if z is not None:
            y = _counterexample(point, p, d, *z)
            f = ball.row_vertex(op.domain, d, p)
            return PreservationReport(False, f, (y, _verified_margin(op.domain, point, y)), EXACT)
    return PreservationReport(True, None, None, EXACT)


def _counterexample(point: _Point, p: tuple[int, ...], d: int, z: tuple[int, ...], zs: int) -> Vec:
    """y = (f(z)/f(x)) x - z for the separator z = Z / zs of the vertex
    f = p / d of J(x), scaled so that its least g(Ty) is 1.

    f(y) = 0, and g(Ty) = a.y = scale f(z) - a.z > 0 for the adjoint image
    a = T^T g of every vertex g of J(Tx), since f(x) = ||x|| and a.x =
    g(Tx) = ||Tx||.  With ||x|| = n / m, y before scaling is Y / (d n s zs)
    for Y = (p.Z) m q - d n s Z, and a.Y = image.Y / den, so the scaled y
    is Y den / min image.Y, one Fraction per entry.
    """
    n, m = point.norm_x
    pz = sum(map(mul, p, z))
    y = tuple(pz * m * a - d * n * point.s * b for a, b in zip(point.q, z))
    least = min(int_mat_vec(point.images, y))
    if least <= 0:
        raise InternalCheckError("the separating direction does not separate")
    return tuple(Fraction(c * point.den, least) for c in y)


def _verified_margin(domain: SpaceSpec, point: _Point, y: Vec) -> Fraction:
    """The least g(Ty) over the vertices g of J(Tx), once y is verified as a
    counterexample: x is orthogonal to y (the range of f(y) over J(x)
    contains 0, James 1947) and Tx is not orthogonal to Ty (every
    g(Ty) > 0).  In integers, with y = yq / ys: the range is read, up to one
    positive factor, from the point's face of J(x) and yq (the ball's
    `extremes`: closed form on l1, the face's signed units on l-inf, its
    facet rows on a polyhedral ball), with no vertex list and no second
    scan, and den ys g(Ty) = (D_Q g).(M yq) on J(Tx)'s integer rows."""
    yq, ys = integer_point(y)
    _, (lo, _), (hi, _) = exact_ball(domain).extremes(domain, point.p_face, yq)
    if not lo <= 0 <= hi:
        raise InternalCheckError("counterexample is not orthogonal to x")
    least = min(int_mat_vec(point.q_rows, int_mat_vec(point.m_rows, yq)))
    if not least > 0:
        raise InternalCheckError("counterexample images remained orthogonal")
    return Fraction(least, point.den * ys)


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
    """Necessary condition for level vectors: Tx = 0 or ker T inside x-orthogonal set.

    Decided in integers, from T = M / D_T with M integral (`integer_rows`) and
    x = q / s with q integral.  The kernel is back-substituted in integers
    from the echelon form of M (`linalg.integer_kernel`), so an injective T
    passes without forming Tx, and Tx = 0 iff Mq = 0.  On an exact domain a kernel span(b) is one
    Birkhoff-James question, x orthogonal to b, which holds iff
    min f(b) <= 0 <= max f(b) over J(x) (James 1947).  Its integer kernel
    vector v is a positive multiple of b and J(x) = J(q), so the two ends are
    read, up to one positive factor, from q and v (the ball's `extremes`),
    with no Fraction, no vertex list and no LP.  Kernels of dimension >= 2,
    and float domains, go to the subspace LP, on the Fraction basis of the
    same elimination.
    """
    x = _nonzero_point(op, x)
    m_rows = integer_rows(op.matrix)[1]
    size, kernel = integer_kernel(m_rows)
    if not kernel:
        return True
    q = integer_point(x)[0]
    if not any(int_mat_vec(m_rows, q)):
        return True
    ball = exact_ball(op.domain)
    if len(kernel) == 1 and ball is not None:
        _, (lo, _), (hi, _) = ball.extremes(op.domain, ball.scan(op.domain, q)[2], kernel[0])
        return lo <= 0 <= hi
    return subspace_orthogonal(op.domain, x, fraction_kernel(size, kernel)).orthogonal


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
    So Tx = 0 exactly when Mq = 0, and J(Tx) = J(Mq), since J does not change
    under positive scaling.  The reported point keeps the vertices' own entry
    where they all agree and is q_k / (D_F sum w) elsewhere, each such entry
    the one Fraction of the call kept for its lowest terms (num, den).

    A point is decided from the ints-only key (face, n, d) of Tx
    (`_face_level_number`).  When J(Tx) is one functional q, x is a level
    vector iff ||Tx|| = c_q = ||T^T q||_*, which depends on T and q alone:
    the call keeps one table of c_q per smooth J(Tx) met, keyed on its face,
    and each such point costs one comparison, with no LP.  Otherwise the
    point's problem is fixed by J_F, J(Tx) and ||Tx||, so within one face
    each distinct one is solved once (an LP).  Every certificate is checked
    once, when it is first built: the check reads only f, g, the scale and
    T, which the key fixes.  The table and the memos live for one call.
    """
    if not is_exact(op.domain):
        raise InputError("not_polyhedral", "enumeration needs a polyhedral domain")
    if samples_per_face < 0:
        raise InputError("bad_count", "samples_per_face must be >= 0")
    table = _probe_table(op.domain)
    _mode_pair(op)  # a float codomain is rejected as by is_level_vector
    dim = op.domain.dim
    require_sample_budget(
        len(table) * samples_per_face,
        min(_MAX_ENUMERATION_POINTS, _MAX_ENUMERATION_COST // dim**2),
        f"{len(table):,} faces x {samples_per_face:,} samples = "
        f"{len(table) * samples_per_face:,} probe points in {dim}-D",
    )
    # The bound is an extra field: a kernel section past a desk-scale guard
    # leaves it None, as T: X -> Y with X != Y does, and the faces are
    # probed all the same.
    bound = None
    if op.domain == op.codomain:
        try:
            bound = level_count_bound(op.domain, op)
        except InputError as exc:
            if exc.code not in ("too_many_vertices", "dim_too_large"):
                raise
    stream = RationalStream(seed)
    d_t, m_rows = integer_rows(op.matrix)
    # Equal coordinates and level numbers of the report share one Fraction,
    # keyed on its lowest terms, and equal tuples of level numbers one tuple.
    pool = {(0, 1): ZERO}
    smooth: dict = {}
    number_rows: dict = {}
    probes = []
    values: set[Fraction] = set()
    for face, first, p_face, d_f, columns, fixed in table:
        points = [first]
        sums = [(tuple(map(sum, columns)), d_f * len(face.vertices))]  # the first point's weights are all 1
        if face.dim > 0:
            for _ in range(samples_per_face):
                # The draws of next_positive_fraction, without the common
                # denominator 1000, which a convex combination divides out.
                weights = [stream.next_int(1000) + 1 for _ in face.vertices]
                q = int_mat_vec(columns, weights)
                den = d_f * sum(weights)
                points.append(tuple(_pooled(c, den, pool) if v is None else v for v, c in zip(fixed, q)))
                sums.append((q, den))
        # Faces have distinct J_F, so one memo per face is keyed on J_F too.
        memo: dict = {}
        numbers = tuple(
            _face_level_number(op, d_t, m_rows, p_face, q, den, memo, smooth, pool) for q, den in sums
        )
        # Level numbers are pooled, so equal rows are equal object for object.
        numbers = number_rows.setdefault(tuple(map(id, numbers)), numbers)
        values.update(k for k in numbers if k is not None)
        probes.append(FaceProbe(face.vertices, face.dim, tuple(points), numbers))
    return LevelNumberReport(
        tuple(sorted(values)), tuple(probes), bound, True, seed, samples_per_face
    )


def _pooled(num: int, den: int, pool: dict) -> Fraction:
    """num / den (den > 0) as the Fraction ``pool`` keeps for its lowest terms,
    made on first use."""
    g = math.gcd(num, den)
    key = (num // g, den // g)
    value = pool.get(key)
    if value is None:
        value = pool[key] = Fraction(*key)
    return value


@lru_cache(maxsize=CACHE_SIZE)
def _probe_table(space: SpaceSpec) -> tuple[tuple, ...]:
    """One row (F, first probe point, J_F, D_F, columns, fixed) per face F of
    `antipodal_representatives`, in that order.

    The first probe point of a 0-face is its vertex, and of a larger face its
    centroid, with equal entries sharing one Fraction.  Both lie in the
    relative interior of F, where J(x) is the same polytope J_F, named here
    by its face of the dual ball as the ball's `key` reads it there (listed
    only by a level LP).  D_F is the lcm of the denominators of F's
    vertices, ``columns[k]`` holds coordinate k of each integer vertex row
    D_F v, and ``fixed[k]`` is the first vertex's own entry when every vertex
    of F has that value at k, else None.
    """
    pool = {ZERO: ZERO}
    table = []
    for face in antipodal_representatives(space):
        point = face.vertices[0] if face.dim == 0 else _shared(face.centroid(), pool)
        d_f, rows = integer_rows(face.vertices)
        fixed = tuple(c if all(v[k] == c for v in face.vertices) else None for k, c in enumerate(face.vertices[0]))
        j_face = exact_ball(space).face(space, point)
        table.append((face, point, j_face, d_f, tuple(zip(*rows)), fixed))
    return tuple(table)


@dataclass(slots=True)
class _SmoothImage:
    """A smooth J(Tx) = {q} met by an enumeration: T^T q = image / den, its
    dual norm c_q = n / d in lowest terms (``norm`` = (n, d)), and the
    pooled level number c_q^2 once a point has needed its checked
    certificate."""

    norm: tuple[int, int]
    image: tuple[int, ...]
    den: int
    q: Vec
    number: Optional[Fraction] = None


def _smooth_image(op: Operator, d_t: int, m_rows, face: tuple[int, ...]) -> Optional[_SmoothImage]:
    """The table entry for the face of J(Tx) (the ball's `key`), or None when
    it names more than one functional: with q = gq / D_Q, the adjoint image
    M^T gq over den = D_T D_Q, and its dual norm (`_adjoint_dual_norm`)."""
    q = exact_ball(op.codomain).single(op.codomain, face)
    if q is None:
        return None
    gq, d_q = integer_point(q)
    image = int_mat_vec(tuple(zip(*m_rows)), gq)
    den = d_t * d_q
    return _SmoothImage(_adjoint_dual_norm(op.domain, image, den), image, den, q)


def _face_level_number(
    op: Operator, d_t: int, m_rows, p_face, q, s: int, memo: dict, smooth: dict, pool: dict
) -> Optional[Fraction]:
    """The level number of the point x = q / s of a proper face, with J(x)
    named by ``p_face`` (the ball's `key`) and ||x|| = 1, or None when x is not
    a level vector.

    ``m_rows`` is the integer matrix M = D_T T, so Tx = Mq / (D_T s), read as
    its ints-only `_image_key` (face, n, d): J(Tx) named by the face and
    ||Tx|| = n / d in lowest terms.  Tx = 0 gives 0.  ``smooth`` maps each
    face of J(Tx) met in the call to its `_SmoothImage`, or None when J(Tx)
    has several vertices.  On a smooth image x is a level vector iff
    (n, d) = c_q, and the number is c_q^2; its certificate
    (T^T q / c_q, q, c_q^2) is built and checked (`_checked`) once per
    entry, at the first point it certifies.  Otherwise ``memo`` maps the key
    to the level number of the checked `_solve_level` answer on the `_Point`
    of x, built from the key on a miss.  Numbers are pooled in ``pool``.
    """
    key = _image_key(op.codomain, m_rows, q, d_t * s)
    if key is None:
        return ZERO
    face, n, d = key
    try:
        entry = smooth[face]
    except KeyError:
        entry = smooth[face] = _smooth_image(op, d_t, m_rows, face)
    if entry is not None:
        if (n, d) != entry.norm:
            return None
        if entry.number is None:
            _checked(d_t, m_rows, (n, d), _smooth_certificate(entry.image, entry.den, (n, d), entry.q))
            entry.number = _pooled(n * n, d * d, pool)
        return entry.number
    try:
        return memo[key]
    except KeyError:
        pass
    point = _Point(q, s, d_t, m_rows, (1, 1), p_face, op.codomain, key)
    found = _checked(d_t, m_rows, point.scale, _solve_level(op, point))
    number = memo[key] = None if found is None else _pooled(found[2].numerator, found[2].denominator, pool)
    return number


def level_count_bound(space: SpaceSpec, op: Operator) -> Fraction:
    """Face-count bound on |L(T)| for T acting on a polyhedral space.

    Half the number of proper faces when T is injective; with an m-dimensional
    kernel, the faces of the kernel section of the ball are excluded and the
    single level number 0 is added back.  The kernel is read as integer
    vectors (`linalg.integer_kernel`), and the section's faces are counted
    from the tight sets of its one facet scan (`_section_scan`): no section
    space is built or validated.
    """
    if not is_exact(space):
        raise InputError("not_polyhedral", "the bound is for polyhedral spaces")
    if op.domain != space or op.codomain != space:
        raise InputError("bad_operator", "the bound applies to operators from the space to itself")
    kernel = integer_kernel(integer_rows(op.matrix)[1])[1]
    if len(kernel) == space.dim:
        return Fraction(1)  # T = 0: the kernel section is the whole ball, and L(T) = {0}
    total = face_census(space).total
    if not kernel:
        return Fraction(total, 2)
    return Fraction(total - _section_census(space, kernel).total, 2) + 1


def _section_census(space: SpaceSpec, kernel: list[tuple[int, ...]]) -> FaceCensus:
    """The face census of the section of the ball by the span of the
    integer vectors ``kernel``, from the tight sets of `_section_scan`."""
    facets = _section_scan(space, kernel)[3]
    return _facet_census(len(kernel), [tight for _, tight in facets])


def kernel_section_space(space: SpaceSpec, basis: list[Vec]) -> SpaceSpec:
    """The unit ball of a subspace (here: ker T) as an m-dimensional polytope.

    In the coordinates w of the given basis B the section ball is cut out by
    the facet functionals f of the ambient ball, as (B^T f) . w <= 1: its
    vertices are the facet functionals of the polytope spanned by the rows
    B^T f, and its polar vertices (``known_polar``) are the extreme rows.
    Both come from the one facet scan of `_section_scan` on the integer rows
    D s B^T f, with s B the basis scaled to integers (`linalg.integer_rows`):
    the vertices are D s times the facets found and the polar vertices the
    extreme rows over D s, so the section is not validated again.
    """
    for b in basis:
        require_dim(space, b)
    s, kernel = integer_rows(basis)
    d, rows, incidence, facets = _section_scan(space, kernel)
    scale = d * s
    verts = [tuple(scale * c for c in f) for f, _ in incidence]
    polar = tuple(tuple(Fraction(c, scale) for c in rows[j]) for j, _ in facets)
    return replace(polyhedral_space(verts, validate=False), known_polar=polar)


def _section_scan(space: SpaceSpec, kernel: list[tuple[int, ...]]) -> tuple:
    """(D, rows, incidence, facets) for the section of the ball by the span
    of the integer vectors k_1 .. k_m of ``kernel``, in one facet scan.

    The ball is cut out by f . x <= 1 over its polar facets f, read as the
    integer rows D f (the ball's `polar_rows`), so at x = sum z_i k_i the
    section is cut out by r . z <= D over the rows r = (D f . k_i)_i.
    ``rows`` are the distinct nonzero ones, sorted; ``incidence`` is their
    `_facet_incidence`, whose facets g, times D, are the section's vertices
    in z.  Row j is tight at vertex i iff j is in i's tight set, so the
    section's facets are the incidence transposed: ``facets`` lists
    (j, the vertices tight on row j) for each extreme row j
    (`spaces._extreme_incidence`).
    """
    d, polar = _polyhedral_ball(space, "dual ball").polar_rows(space)
    rows = {int_mat_vec(kernel, f) for f in polar}
    rows.discard((0,) * len(kernel))
    rows = tuple(sorted(rows))
    incidence = _facet_incidence(rows)
    return d, rows, incidence, _extreme_incidence(incidence, len(rows))


def search_non_level_vector(op: Operator, samples: int, seed: int) -> Optional[Vec]:
    """First sampled unit vector that is not a level vector, if any.

    Sampling is incomplete: returning None reports an inconclusive search,
    not a proof that every unit vector is a level vector.
    """
    for x in sample_sphere(op.domain, samples, seed):
        if is_level_vector(op, x) is None:
            return x
    return None
