"""Certifying scalar multiples of isometries.

An operator is a scalar multiple of an isometry exactly when every nonzero
vector is a level vector.  On a polyhedral domain this reduces to a finite
certificate: local preservation of Birkhoff-James orthogonality at every
extreme point of the unit ball.  Grid probing over sampled unit vectors can
refute but never certify (a dense set would be needed), so it reports
``inconclusive`` at best.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InputError, InternalCheckError
from .faces import extreme_points
from .levels import LevelCertificate, is_level_vector, preserves_bj_at
from .linalg import Vec, is_zero_vec, matrix_rank, vec
from .oracle import MAX_PROBE_SAMPLES, require_sample_budget, sample_sphere
from .orthogonality import bj_orthogonal
from .spaces import (
    EXACT,
    FLOAT_TOL,
    Operator,
    SpaceSpec,
    adjoint,
    arithmetic_mode,
    identity_operator,
    is_exact,
    is_zero_operator,
    norm,
    on_unit_sphere,
    require_dim,
)
from .support import is_smooth

Scalar = Union[Fraction, float]

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class IsometryReport:
    """Verdict on whether T is a scalar multiple of an isometry.

    ``certified`` is only ever produced by the exact extreme-point procedure
    (or the trivial zero operator); ``witness``, when present, is a verified
    pair (x, y) with x orthogonal to y and Tx not orthogonal to Ty.
    """

    verdict: str
    scale: Optional[Scalar]
    witness: Optional[tuple[Vec, Vec]]
    checked_points: tuple[Vec, ...]
    mode: str


def certify_scalar_isometry_polyhedral(op: Operator) -> IsometryReport:
    """Exact certificate via preservation at every extreme point of the ball.

    One point of each antipodal pair {v, -v} is decided: J(-v) = -J(v) and
    T(-v) = -Tv, so preservation at -v is the same condition as at v.  The
    ball is centrally symmetric (`polyhedral_space` checks it) and negation
    reverses lexicographic order, so in the sorted list of N extreme points
    the antipode of the i-th is the (N-1-i)-th: the first N/2 are decided,
    and the rest are their antipodes.  ``checked_points`` still lists every
    extreme point visited, in the ball's order: up to the refuted one, or all
    N.
    """
    if not is_exact(op.domain):
        raise InputError("not_polyhedral", "certification needs a polyhedral domain")
    if is_zero_operator(op):
        return IsometryReport(CERTIFIED, Fraction(0), None, (), EXACT)
    points = extreme_points(op.domain)
    decided = points[: len(points) // 2]
    for i, v in enumerate(decided):
        report = preserves_bj_at(op, v)
        if not report.holds:
            y, _ = report.counterexample
            return IsometryReport(REFUTED, None, (v, y), points[: i + 1], EXACT)
    scales = {norm(op.codomain, op(v)) / norm(op.domain, v) for v in decided}
    if len(scales) != 1:
        raise InternalCheckError(
            "preservation held at every extreme point but ||Tv||/||v|| is not constant"
        )
    return IsometryReport(CERTIFIED, scales.pop(), None, points, EXACT)


def probe_scalar_isometry_grid(
    op: Operator, space: SpaceSpec, n: int, seed: int
) -> IsometryReport:
    """Sample n unit vectors; refute on any non-level vector or ratio drift.

    A clean pass is reported as ``inconclusive`` with the common ratio as
    scale: sampling cannot certify.
    """
    if space != op.domain:
        raise InputError("bad_operator", "probe space must be the operator domain")
    require_sample_budget(n, MAX_PROBE_SAMPLES, f"{n:,} samples")
    mode = arithmetic_mode(space)
    if is_zero_operator(op):
        return IsometryReport(CERTIFIED, Fraction(0), None, (), mode)
    checked: list[Vec] = []
    ratios: list[Scalar] = []
    for x in sample_sphere(space, n, seed):
        checked.append(x)
        cert = is_level_vector(op, x)
        if cert is None:
            witness = _refutation_pair(op, x)
            return IsometryReport(REFUTED, None, witness, tuple(checked), mode)
        ratios.append(norm(op.codomain, op(x)) / norm(space, x))
    if mode == EXACT:
        drifted = len(set(ratios)) > 1
    else:
        drifted = max(ratios) - min(ratios) > FLOAT_TOL * max(1.0, float(max(ratios)))
    if drifted:
        return IsometryReport(REFUTED, None, None, tuple(checked), mode)
    return IsometryReport(INCONCLUSIVE, ratios[0], None, tuple(checked), mode)


def _refutation_pair(op: Operator, x: Vec) -> Optional[tuple[Vec, Vec]]:
    # Not a level vector forces preservation to fail at x as well.
    report = preserves_bj_at(op, x)
    if report.holds:
        raise InternalCheckError("x is not a level vector yet preservation held at x")
    if report.counterexample is None:
        return None
    return (x, report.counterexample[0])


@dataclass(frozen=True, slots=True)
class ScalarIdentityReport:
    """Diagnostics for the scalar-multiple-of-identity test.

    The four conditions on unit candidates x_1 .. x_n:
      (i)   every candidate is an eigenvector,
      (ii)  x_1 is smooth and outside ker T,
      (iii) x_1 is a level vector,
      (iv)  x_1 is not Birkhoff-James orthogonal to any other candidate.
    All four together (with independent candidates) force T = lambda I.
    """

    certified: bool
    eigenvalue: Optional[Fraction]
    eigenvectors: bool
    smooth_nonkernel: bool
    level: bool
    not_orthogonal: bool
    independent: bool

    @property
    def failed_conditions(self) -> tuple[str, ...]:
        pairs = (
            ("i", self.eigenvectors),
            ("ii", self.smooth_nonkernel),
            ("iii", self.level),
            ("iv", self.not_orthogonal),
        )
        return tuple(name for name, ok in pairs if not ok)


def _rational_eigenvalue(op: Operator, x: Vec) -> Optional[Fraction]:
    tx = op(x)
    pivot = next((i for i, c in enumerate(x) if c != 0), None)
    if pivot is None:
        return None
    lam = tx[pivot] / x[pivot]
    return lam if tx == tuple(lam * c for c in x) else None


def scalar_identity_test(op: Operator, candidates: list[Vec]) -> ScalarIdentityReport:
    """Validate the four-part eigenvector criterion for T = lambda I.  The
    candidates convert exactly (`linalg.vec`), so float input on an exact
    space is decided in rationals."""
    space = op.domain
    if is_exact(space):
        candidates = [vec(x) for x in candidates]
    if op.codomain != space:
        raise InputError("bad_operator", "the identity test needs an operator on one space")
    if len(candidates) != space.dim:
        raise InputError(
            "bad_candidates", f"need exactly {space.dim} candidates, got {len(candidates)}"
        )
    for x in candidates:
        require_dim(space, x)
        if not on_unit_sphere(space, x):
            raise InputError("not_unit", f"candidate {x} is not on the unit sphere")

    eigenvalues = [_rational_eigenvalue(op, x) for x in candidates]
    cond_i = all(lam is not None for lam in eigenvalues)
    x1 = candidates[0]
    cond_ii = (not is_zero_vec(op(x1))) and is_smooth(space, x1)
    cond_iii = is_level_vector(op, x1) is not None
    cond_iv = all(
        not bj_orthogonal(space, x1, xi).orthogonal for xi in candidates[1:]
    )
    independent = matrix_rank(candidates) == space.dim

    certified = cond_i and cond_ii and cond_iii and cond_iv and independent
    eigenvalue = None
    if certified:
        eigenvalue = eigenvalues[0]
        if any(lam != eigenvalue for lam in eigenvalues):
            raise InternalCheckError("conditions held but eigenvalues differ")
        if op.matrix != tuple(
            tuple(eigenvalue * e for e in row) for row in identity_operator(space).matrix
        ):
            raise InternalCheckError("conditions held but T is not lambda times the identity")
    return ScalarIdentityReport(
        certified, eigenvalue, cond_i, cond_ii, cond_iii, cond_iv, independent
    )


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """Level-vector transfer from T at x to the adjoint at psi in J(Tx/||Tx||)."""

    psi: tuple
    level_number: Scalar
    dual_certificate: LevelCertificate


def adjoint_level_transfer(op: Operator, x: Vec) -> TransferRecord:
    """Transfer a level vector of T to one of the adjoint with the same number.

    The certificate functional g at Tx serves as psi; the adjoint certificate
    is recomputed in the dual spaces and its level number checked against the
    primal one.  On an exact domain x converts exactly (`linalg.vec`), so
    float input is decided in rationals.
    """
    if is_exact(op.domain):
        x = vec(x)
    require_dim(op.domain, x)
    if not on_unit_sphere(op.domain, x):
        raise InputError("not_unit", "x must lie on the unit sphere")
    if is_zero_vec(op(x)):
        raise InputError("zero_image", "the transfer needs Tx != 0")
    cert = is_level_vector(op, x)
    if cert is None:
        raise InputError("not_level_vector", "x is not a level vector of the operator")
    psi = cert.g
    dual_op = adjoint(op)
    dual_cert = is_level_vector(dual_op, tuple(psi))
    if dual_cert is None:
        raise InternalCheckError("psi failed to be a level vector of the adjoint")
    if is_exact(op.domain) and dual_cert.level_number != cert.level_number:
        raise InternalCheckError("adjoint level number differs from the primal one")
    return TransferRecord(psi, cert.level_number, dual_cert)
