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

The necessary kernel condition, ker T inside the orthogonality set of x, is
decided in integers: the kernel is read as integer vectors from the integer
matrix of T, Tx = 0 is tested on it, and when ker T is a line in an exact
domain the Birkhoff-James interval is read on integer vectors
(`support._integer_range`); only larger kernels, and float domains, pose
the subspace LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional, Union

from .errors import InputError, InternalCheckError
from .faces import antipodal_representatives, face_census
from .linalg import (
    ONE,
    ZERO,
    Vec,
    combination,
    dot,
    fraction_kernel,
    int_mat_vec,
    integer_kernel,
    integer_point,
    integer_rows,
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
from .orthogonality import subspace_orthogonal
from .simplex import convex_weights, convex_weights_or_farkas
from .spaces import (
    CACHE_SIZE,
    EXACT,
    FLOAT,
    FLOAT_TOL,
    Operator,
    SpaceSpec,
    _facet_incidence,
    _integer_dual_norm,
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
from .support import (
    _integer_key,
    _integer_norm_and_vertices,
    _integer_range,
    _key_norm_and_vertices,
    _single_functional,
    functional_in_support,
    support_set,
)

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


def _nonzero_point(op: Operator, x: Vec) -> Vec:
    """x as an exact vector of T's domain (floats convert exactly, keeping the
    pipeline rational); a wrong dimension or x = 0 is an input error."""
    x = vec(x)
    require_dim(op.domain, x)
    if is_zero_vec(x):
        raise InputError("zero_vector", "x must be nonzero")
    return x


def _image_key(codomain: SpaceSpec, m_rows, q, s: int) -> Optional[tuple]:
    """The `_integer_key` of Tx = Mq / s, M the integer matrix ``m_rows``:
    (face, n, d) with ||Tx|| = n / d and the face naming J(Tx), all ints; None
    when Tx = 0, that is Mq = 0.  J(Tx) = J(Mq), since J does not change under
    positive scaling.  `_key_norm_and_vertices` turns it into (||Tx||, J(Tx))."""
    mq = int_mat_vec(m_rows, q)
    if not any(mq):
        return None
    return _integer_key(codomain, mq, s)


@dataclass
class _Point:
    """One exact evaluation of T at x with Tx != 0, in integers.

    x = q / s with q integral, and T = M / D_T with M integral (``m_rows``).
    ||x|| with J(x), and ||Tx|| with J(Tx), each come from one scan: Tx is
    Mq / (D_T s) (`_image_key`).  The vertices g of J(Tx) are kept as the integer
    rows D_Q g (``q_rows``, D_Q the lcm of their denominators) and their
    adjoint images M^T (D_Q g) (``images``), so g(Ty) = (D_Q g).(My) / den
    and T^T g = image / den, with den = D_T D_Q.  This is the exact path's
    one source of T^T g.
    """

    q: tuple[int, ...]
    s: int
    d_t: int
    m_rows: tuple
    norm_x: Fraction
    p_verts: tuple[Vec, ...]
    norm_tx: Fraction
    q_verts: tuple[Vec, ...]
    scale: Fraction = field(init=False)  # ||Tx|| / ||x||
    q_rows: tuple = field(init=False)
    images: tuple = field(init=False)
    den: int = field(init=False)

    def __post_init__(self):
        self.scale = self.norm_tx / self.norm_x
        d_q, self.q_rows = integer_rows(self.q_verts)
        columns = tuple(zip(*self.m_rows))
        self.images = tuple(int_mat_vec(columns, g) for g in self.q_rows)
        self.den = self.d_t * d_q

    @cached_property
    def adj(self) -> list[Vec]:
        """The adjoint images T^T g = image / den as Fraction vectors, built
        once per point, for the LPs."""
        return [tuple(Fraction(c, self.den) for c in image) for image in self.images]


def _evaluate(op: Operator, x: Vec) -> Optional[_Point]:
    """The evaluation of T at x on the exact path, or None when Tx = 0."""
    q, s = integer_point(x)
    d_t, m_rows = integer_rows(op.matrix)
    key = _image_key(op.codomain, m_rows, q, d_t * s)
    if key is None:
        return None
    return _Point(
        q, s, d_t, m_rows, *_integer_norm_and_vertices(op.domain, q, s), *_key_norm_and_vertices(op.codomain, key)
    )


def is_level_vector(op: Operator, x: Vec) -> Optional[LevelCertificate]:
    """A level certificate for x, or None when x is not a level vector."""
    x = _nonzero_point(op, x)
    if _mode_pair(op) == FLOAT:
        return _level_vector_float(op, x, op(x))[0]
    point = _evaluate(op, x)
    if point is None:
        return LevelCertificate(x, None, None, Fraction(0), EXACT)
    found = _checked(point.d_t, point.m_rows, point.scale, _solve_level(op, point))
    return None if found is None else LevelCertificate(x, *found, EXACT)


def _checked(d_t: int, m_rows, scale: Fraction, found: Optional[tuple]) -> Optional[tuple]:
    """``found``, a level certificate (f, g, k) at scale ||Tx||/||x|| or None,
    once T^T g = scale f is verified for it.

    In integers, from M = D_T T (``m_rows``) and the certificate's own g, not
    from any cached adjoint image: with g = gq / gs, f = fq / fs and
    scale = sn / sd, T^T g = M^T gq / (D_T gs), so the equation reads
    (M^T gq) sd fs = sn D_T gs fq.
    """
    if found is None:
        return None
    (fq, fs), (gq, gs) = integer_point(found[0]), integer_point(found[1])
    sn, sd = scale.numerator, scale.denominator
    left, right = sd * fs, sn * d_t * gs
    if any(sum(map(mul, column, gq)) * left != right * c for column, c in zip(zip(*m_rows), fq)):
        raise InternalCheckError("level certificate fails its defining equation")
    return found


def _solve_level(op: Operator, point: _Point) -> Optional[tuple]:
    """(f, g, k) with f in J(x), g in J(Tx) and T^T g = scale f, or None;
    the level number is k = scale^2.  J(x) and J(Tx) are read as the vertex
    lists of ``point``, and T^T g from its adjoint images.

    When J(Tx) is one functional q (Tx is a smooth point), no LP is needed.
    Then g = q, and T^T g = scale f fixes f = T^T q / scale.  This f already
    attains the norm at x: f(x) = q(Tx) / scale = ||Tx|| / scale = ||x||.
    A functional with f(x) = ||x|| lies in J(x) exactly when ||f||_* = 1, so
    x is a level vector iff ||T^T q||_* = scale (`_adjoint_dual_norm`, in
    integers on the point's image M^T (D_Q q)), and (f, q, k) is then the
    only certificate, the one the LP would return (`_smooth_certificate`);
    f is built only then.
    """
    p_verts, q_verts, scale = point.p_verts, point.q_verts, point.scale
    if len(q_verts) == 1:
        image, den = point.images[0], point.den
        if _adjoint_dual_norm(op.domain, image, den) != (scale.numerator, scale.denominator):
            return None
        return _smooth_certificate(image, den, scale, q_verts[0])
    negated = [vec_scale(-scale, p) for p in p_verts]
    weights = convex_weights([negated, point.adj], (ZERO,) * op.domain.dim)
    if weights is None:
        return None
    lam, mu = weights
    return combination(lam, p_verts), combination(mu, q_verts), scale * scale


def _adjoint_dual_norm(domain: SpaceSpec, image: tuple[int, ...], den: int) -> tuple[int, int]:
    """||image / den||_* as (n, d) in lowest terms, for an integer image and
    den > 0, in integers: `spaces._integer_dual_norm` gives top / (D den).
    With image / den = T^T q for a smooth J(Tx) = {q}, x is a level vector
    exactly when this is ||Tx||/||x||."""
    top, d = _integer_dual_norm(domain, image)
    d *= den
    g = math.gcd(top, d)
    return top // g, d // g


def _smooth_certificate(image: tuple[int, ...], den: int, scale: Fraction, q: Vec) -> tuple:
    """The level certificate (f, q, scale^2) on a smooth image J(Tx) = {q}
    with T^T q = image / den and ||T^T q||_* = scale: f = T^T q / scale."""
    sn, sd = scale.numerator, scale.denominator
    return tuple(Fraction(c * sd, den * sn) for c in image), q, scale * scale


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
    the adjoint; the witness g is returned.  On the exact path f in J(x) is
    tested against the evaluation's ||x||, so x is scanned once.  f converts
    exactly (`linalg.vec`), so float input is decided in rationals.
    """
    x, f = _nonzero_point(op, x), vec(f)
    require_dim(op.domain, f)
    point = _evaluate(op, x) if is_exact(op.domain) and is_exact(op.codomain) else None
    if point is None:
        supporting = functional_in_support(op.domain, x, f)  # also when Tx = 0
    else:
        supporting = dot(f, x) == point.norm_x and dual_norm(op.domain, f) == 1
    if not supporting:
        raise InputError("not_supporting", "f is not a supporting functional of x")
    if _mode_pair(op) == FLOAT:
        cert, _ = _level_vector_float(op, x, op(x))
        return DirectionalPreservation(cert is not None, cert.g if cert else None)
    if point is None:
        return DirectionalPreservation(True, None)
    g, _ = _membership(point, f)
    return DirectionalPreservation(g is not None, g)


def _membership(point: _Point, f: Vec) -> tuple[Optional[tuple], Optional[tuple[tuple[int, ...], int]]]:
    """(g, None) with g in J(Tx) and (adjoint T) g = scale f, or (None, (Z, zs))
    with z = Z / zs, Z integral, and a.z < scale f(z) for every adjoint image a.

    With one image a, z = scale f - a, and scale f(z) - a.z = |z|^2 > 0; in
    integers, with f = p / d, scale = sn / sd and a = image / den, Z is
    sn den p - sd d image over zs = sd d den, and no LP is solved.
    Otherwise z is the coordinate part of the membership LP's Farkas vector.
    """
    if len(point.q_verts) == 1:
        p, d = integer_point(f)
        sn, sd = point.scale.numerator, point.scale.denominator
        z = tuple(sn * point.den * c - sd * d * a for c, a in zip(p, point.images[0]))
        return (None, (z, sd * d * point.den)) if any(z) else (point.q_verts[0], None)
    target = vec_scale(point.scale, f)
    weights, farkas = convex_weights_or_farkas([point.adj], target)
    if weights is None:
        return None, integer_point(farkas[: len(target)])
    return combination(weights[0], point.q_verts), None


def preserves_bj_at(op: Operator, x: Vec) -> PreservationReport:
    """Decide local preservation of Birkhoff-James orthogonality at x.

    Checks every vertex f of J(x) for membership of scale f, scale =
    ||Tx||/||x||, in the adjoint image of J(Tx): one LP per vertex, none when
    J(Tx) is one functional.  The first failure yields z with a.z < scale f(z)
    for every adjoint image a = T^T g of a vertex g of J(Tx), and with it the
    counterexample (`_counterexample`), re-verified by `_verified_margin`.
    All of it reads one evaluation of T at x (`_evaluate`) and runs in
    integers, but for the membership LPs when J(Tx) has several vertices.
    """
    x = _nonzero_point(op, x)
    if _mode_pair(op) == FLOAT:
        return _preserves_float(op, x, op(x))
    point = _evaluate(op, x)
    if point is None:
        return PreservationReport(True, None, None, EXACT)
    for f in point.p_verts:
        _, z = _membership(point, f)
        if z is not None:
            y = _counterexample(point, f, *z)
            return PreservationReport(False, f, (y, _verified_margin(point, y)), EXACT)
    return PreservationReport(True, None, None, EXACT)


def _counterexample(point: _Point, f: Vec, z: tuple[int, ...], zs: int) -> Vec:
    """y = (f(z)/f(x)) x - z for the separator z = Z / zs of the vertex f of
    J(x), scaled so that its least g(Ty) is 1.

    f(y) = 0, and g(Ty) = a.y = scale f(z) - a.z > 0 for the adjoint image
    a = T^T g of every vertex g of J(Tx), since f(x) = ||x|| and a.x =
    g(Tx) = ||Tx||.  With f(z)/||x|| = cn / cd, y before scaling is
    Y / (cd s zs) for the integer vector Y = cn zs q - cd s Z, and a.Y =
    image.Y / den, so the scaled y is Y den / min image.Y.
    """
    p, d = integer_point(f)
    c = Fraction(sum(map(mul, p, z)), d * zs) / point.norm_x
    y = tuple(c.numerator * zs * a - c.denominator * point.s * b for a, b in zip(point.q, z))
    least = min(int_mat_vec(point.images, y))
    if least <= 0:
        raise InternalCheckError("the separating direction does not separate")
    return tuple(Fraction(c * point.den, least) for c in y)


def _verified_margin(point: _Point, y: Vec) -> Fraction:
    """The least g(Ty) over the vertices g of J(Tx), once y is verified as a
    counterexample: x is orthogonal to y (the values f(y) over the vertices
    f of J(x) straddle 0) and Tx is not orthogonal to Ty (every g(Ty) > 0).
    Integer dot products on the same vertex lists, with y = yq / ys:
    D_P ys f(y) = (D_P f).yq, D_P the lcm of the denominators of J(x), and
    den ys g(Ty) = (D_Q g).(M yq)."""
    yq, ys = integer_point(y)
    on_x = int_mat_vec(integer_rows(point.p_verts)[1], yq)
    if not min(on_x) <= 0 <= max(on_x):
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
    x = q / s with q integral.  The kernel is read from M as integer vectors
    (`linalg.integer_kernel`), so an injective T passes without forming Tx,
    and Tx = 0 iff Mq = 0.  On an exact domain a kernel span(b) is one
    Birkhoff-James question, x orthogonal to b, which holds iff
    min f(b) <= 0 <= max f(b) over J(x) (James 1947).  Its integer kernel
    vector v is a positive multiple of b and J(x) = J(q), so the two ends are
    read, up to one positive factor, from q and v (`support._integer_range`),
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
    if len(kernel) == 1 and is_exact(op.domain):
        lo, hi = _integer_range(op.domain, q, kernel[0])
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
    stream = RationalStream(seed)
    d_t, m_rows = integer_rows(op.matrix)
    # Equal coordinates and level numbers of the report share one Fraction,
    # keyed on its lowest terms, and equal tuples of level numbers one tuple.
    pool = {(0, 1): ZERO}
    smooth: dict = {}
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
                q = int_mat_vec(columns, weights)
                den = d_f * sum(weights)
                points.append(tuple(_pooled(c, den, pool) if v is None else v for v, c in zip(fixed, q)))
                sums.append((q, den))
        # Faces have distinct J_F, so one memo per face is keyed on J_F too.
        memo: dict = {}
        numbers = tuple(
            _face_level_number(op, d_t, m_rows, p_verts, q, den, memo, smooth, pool) for q, den in sums
        )
        # Level numbers are pooled, so equal rows are equal object for object.
        numbers = number_rows.setdefault(tuple(map(id, numbers)), numbers)
        values.update(k for k in numbers if k is not None)
        probes.append(FaceProbe(face.vertices, face.dim, tuple(points), numbers))
    bound = None
    if op.domain == op.codomain:
        bound = level_count_bound(op.domain, op)
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
        d_f, rows = integer_rows(face.vertices)
        fixed = tuple(c if all(v[k] == c for v in face.vertices) else None for k, c in enumerate(face.vertices[0]))
        table.append((face, point, support_set(space, point).vertices, d_f, tuple(zip(*rows)), fixed))
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
    """The table entry for the face of J(Tx) (`_integer_key`), or None when
    it names more than one functional: with q = gq / D_Q, the adjoint image
    M^T gq over den = D_T D_Q, and its dual norm (`_adjoint_dual_norm`)."""
    q = _single_functional(op.codomain, face)
    if q is None:
        return None
    gq, d_q = integer_point(q)
    image = int_mat_vec(tuple(zip(*m_rows)), gq)
    den = d_t * d_q
    return _SmoothImage(_adjoint_dual_norm(op.domain, image, den), image, den, q)


def _face_level_number(
    op: Operator, d_t: int, m_rows, p_verts, q, s: int, memo: dict, smooth: dict, pool: dict
) -> Optional[Fraction]:
    """The level number of the point x = q / s of a proper face, with
    J(x) = conv(p_verts) and ||x|| = 1, or None when x is not a level vector.

    ``m_rows`` is the integer matrix M = D_T T, so Tx = Mq / (D_T s), read as
    its ints-only `_image_key` (face, n, d): J(Tx) named by the face and
    ||Tx|| = n / d in lowest terms.  Tx = 0 gives 0.  ``smooth`` maps each
    face of J(Tx) met in the call to its `_SmoothImage`, or None when J(Tx)
    has several vertices.  On a smooth image x is a level vector iff
    (n, d) = c_q, and the number is c_q^2; its certificate
    (T^T q / c_q, q, c_q^2) is built and checked (`_checked`) once per
    entry, at the first point it certifies.  Otherwise ``memo`` maps the key
    to the level number of the checked `_solve_level` answer on the `_Point`
    of x, built from the key (`_key_norm_and_vertices`) on a miss.  Numbers
    are pooled in ``pool``.
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
            scale = Fraction(n, d)
            _checked(d_t, m_rows, scale, _smooth_certificate(entry.image, entry.den, scale, entry.q))
            entry.number = _pooled(n * n, d * d, pool)
        return entry.number
    try:
        return memo[key]
    except KeyError:
        pass
    point = _Point(q, s, d_t, m_rows, ONE, p_verts, *_key_norm_and_vertices(op.codomain, key))
    found = _checked(d_t, m_rows, point.scale, _solve_level(op, point))
    number = memo[key] = None if found is None else _pooled(found[2].numerator, found[2].denominator, pool)
    return number


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
