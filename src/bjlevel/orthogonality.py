"""Birkhoff-James orthogonality decisions with dual certificates.

Over the reals, x is Birkhoff-James orthogonal to y exactly when some
f in J(x) kills y, i.e. when min f(y) <= 0 <= max f(y) over J(x).  The dual
route reads the two extreme functionals of J(x) along y in integers
(`support._face_extremes`: in closed form on l1, over the few vertices of
J(x) elsewhere); the oracle route minimizes ||x + t y|| directly and is
used to cross-validate it.  On exact spaces, float input converts exactly
(`linalg.vec`) and is decided in rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import InputError
from .linalg import ZERO, Vec, combination, dot, integer_point, is_zero_vec, matrix_rank, vec
from .oracle import minimize_norm_1d
from .simplex import convex_weights
from .spaces import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    SpaceSpec,
    arithmetic_mode,
    float_path,
    is_exact,
    norm,
    require_dim,
)
from .support import SupportSet, _face_extremes, _integer_key, _row_vertex, support_set

Scalar = Union[Fraction, float]


@dataclass(frozen=True, slots=True)
class OrthogonalityVerdict:
    """Outcome of a Birkhoff-James orthogonality test.

    ``witness`` (present when orthogonal, x != 0 and the method is dual) is a
    functional in J(x) with f(y) = 0; ``margin`` is the distance of the value
    interval [min f(y), max f(y)] from zero (0 when orthogonal).
    """

    orthogonal: bool
    witness: Optional[tuple]
    method: str  # "dual" | "oracle"
    mode: str  # "exact" | "float"
    margin: Optional[Scalar] = None
    warning: Optional[str] = None


def bj_orthogonal(space: SpaceSpec, x: Vec, y: Vec) -> OrthogonalityVerdict:
    """Decide x BJ-orthogonal y: min f(y) <= 0 <= max f(y) over J(x) (James
    1947), on an exact space read in integers from x and y (`_dual_exact`)."""
    require_dim(space, x)
    require_dim(space, y)
    mode = arithmetic_mode(space)
    if is_zero_vec(x):
        return OrthogonalityVerdict(True, None, "dual", mode, Fraction(0) if mode == EXACT else 0.0)
    if mode == EXACT:
        return _dual_exact(space, vec(x), vec(y))
    return _dual_float(space, support_set(space, x), x, y)


def _dual_exact(space: SpaceSpec, x: Vec, y: Vec) -> OrthogonalityVerdict:
    """The verdict from the extremes of f(y) over J(x), in integers: with
    x = q / s and y = v / c, `support._face_extremes` gives D c times them,
    lo and hi, with the rows D f_lo and D f_hi of vertices attaining them.
    The witness is f_lo or f_hi at a zero end, else (hi f_lo - lo f_hi) /
    (hi - lo); the margin is min(|lo|, |hi|) / (D c)."""
    v, c = integer_point(y)
    d, (lo, r_lo), (hi, r_hi) = _face_extremes(space, _integer_key(space, integer_point(x)[0], 1)[0], v)
    if lo <= 0 <= hi:
        if lo == 0:
            witness = _row_vertex(space, d, r_lo)
        elif hi == 0:
            witness = _row_vertex(space, d, r_hi)
        else:
            den = d * (hi - lo)
            witness = tuple([Fraction(hi * a - lo * b, den) for a, b in zip(r_lo, r_hi)])
        return OrthogonalityVerdict(True, witness, "dual", EXACT, ZERO)
    return OrthogonalityVerdict(False, None, "dual", EXACT, Fraction(lo if lo > 0 else -hi, d * c))


@float_path
def _dual_float(
    space: SpaceSpec, sup: SupportSet, x: Vec, y: Vec
) -> OrthogonalityVerdict:
    if space.p == 2:
        # Pairings stay exact on rational input even though the norm does not.
        s = sum((xc * yc for xc, yc in zip(x, y)), Fraction(0))
        orthogonal = s == 0
        margin = abs(float(s)) / float(norm(space, x))
    else:
        f = sup.vertices[0]
        value = sum(fc * float(yc) for fc, yc in zip(f, y))
        scale = max(1.0, float(norm(space, y)))
        orthogonal = abs(value) <= FLOAT_TOL * scale
        margin = abs(value)
    warning = None
    if not orthogonal and margin <= 10 * FLOAT_TOL * max(1.0, float(norm(space, y))):
        warning = "decision margin within 10x float tolerance"
    witness = sup.vertices[0] if orthogonal else None
    return OrthogonalityVerdict(orthogonal, witness, "dual", FLOAT, margin, warning)


def bj_orthogonal_oracle(space: SpaceSpec, x: Vec, y: Vec) -> OrthogonalityVerdict:
    """Decide orthogonality by minimizing ||x + t y|| directly."""
    require_dim(space, x)
    require_dim(space, y)
    mode = arithmetic_mode(space)
    if is_zero_vec(y) or is_zero_vec(x):
        return OrthogonalityVerdict(True, None, "oracle", mode, Fraction(0) if mode == EXACT else 0.0)
    if mode == EXACT:
        x, y = vec(x), vec(y)
    nx = norm(space, x)
    _, min_value = minimize_norm_1d(space, x, y)
    gap = nx - min_value
    if mode == EXACT:
        return OrthogonalityVerdict(gap == 0, None, "oracle", mode, gap)
    return OrthogonalityVerdict(gap <= FLOAT_TOL * max(1.0, float(nx)), None, "oracle", mode, gap)


def subspace_orthogonal(
    space: SpaceSpec, x: Vec, basis: Sequence[Vec]
) -> OrthogonalityVerdict:
    """Decide whether span(basis) is contained in the BJ-orthogonality set of x.

    Equivalent, via the supporting-functional characterization, to the
    existence of f in J(x) vanishing on every basis vector; decided by an LP
    over convex coefficients of the J(x) vertices.
    """
    require_dim(space, x)
    if is_zero_vec(x):
        raise InputError("zero_vector", "x must be nonzero")
    exact = is_exact(space)
    if exact:
        x = vec(x)
    basis = [vec(b) if exact else tuple(b) for b in basis]
    if not basis:
        raise InputError("empty_basis", "basis must contain at least one vector")
    for b in basis:
        require_dim(space, b)
    if matrix_rank(basis) != len(basis):
        raise InputError("dependent_basis", "basis vectors must be linearly independent")
    sup = support_set(space, x)
    if not exact:
        return _subspace_float(space, sup, x, basis)
    verts = sup.vertices
    columns = [tuple(dot(f, b) for b in basis) for f in verts]
    weights = convex_weights([columns], (ZERO,) * len(basis))
    if weights is None:
        return OrthogonalityVerdict(False, None, "dual", EXACT)
    return OrthogonalityVerdict(True, combination(weights[0], verts), "dual", EXACT, Fraction(0))


@float_path
def _subspace_float(
    space: SpaceSpec, sup: SupportSet, x: Vec, basis: Sequence[Vec]
) -> OrthogonalityVerdict:
    if space.p == 2:
        ok = all(sum((xc * bc for xc, bc in zip(x, b)), Fraction(0)) == 0 for b in basis)
    else:
        f = sup.vertices[0]
        ok = all(
            abs(sum(fc * float(bc) for fc, bc in zip(f, b)))
            <= FLOAT_TOL * max(1.0, float(norm(space, b)))
            for b in basis
        )
    witness = sup.vertices[0] if ok else None
    return OrthogonalityVerdict(ok, witness, "dual", FLOAT)
