"""Brute-force baselines used to cross-validate the dual-certificate routines.

Everything here is deliberately independent of the LP machinery: the 1-D
minimizer works straight from the definition of the norm, and the sampling
checks only ever evaluate norms.  The random source is a fixed, documented
linear congruential generator over rationals so that every report is a pure
function of (seed, count, space) across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

from .errors import InputError
from .linalg import Vec, dot, integer_rows, is_zero_vec, kernel_basis, vec, vec_add, vec_scale
from .spaces import (
    EXACT,
    FLOAT_TOL,
    INF,
    Operator,
    SpaceSpec,
    arithmetic_mode,
    dual_ball_vertices,
    float_path,
    is_exact,
    norm,
    require_dim,
)
from .support import support_set

# Desk-scale guards on sample counts, so that the largest accepted call
# finishes in about 10 s of CPU time; each is checked before anything is
# sampled.  Timed on a 2.0 GHz Xeon core (Python 3.11):
# - `preservation_sample_check` takes 2.8-4.2 ms a sample on l-inf^12 and
#   on the 4-D cube-plus-cross ball at a point with one supporting
#   functional, and took 66 ms at e1 on l1^12, where J(x) has 2^11 vertices
#   that every sample combines: so at most 2,500 samples, and at most
#   _MAX_PRESERVE_COST / (|J(x)| n) of them.  Summed in integers, a sample
#   there now takes 2.9-3.5 ms; the cap is kept as it was.
# - `isometry.probe_scalar_isometry_grid` takes up to 2.0 ms a sample (the
#   identity on l2^12; 0.6 ms on l-inf^12 and l1^12).
MAX_PRESERVE_SAMPLES = 2_500
_MAX_PRESERVE_COST = 3_600_000
MAX_PROBE_SAMPLES = 5_000


def require_sample_budget(count: int, limit: int, what: str) -> None:
    """Reject ``count`` units of sampled work, described by ``what``, when
    they exceed the desk-scale ``limit``."""
    if count > limit:
        raise InputError(
            "too_many_samples", f"{what} exceed the desk-scale guard of {limit:,} (about 10 s of CPU time)"
        )


class RationalStream:
    """Deterministic rational generator: the 64-bit LCG

        state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

    with draws taken from the high 32 bits.  ``next_fraction`` yields values
    in [-1, 1] with denominator 1000; ``next_positive_fraction`` yields values
    in (0, 1].  Fixed here (not a platform RNG) for cross-run reproducibility.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state >> 32

    def next_int(self, bound: int) -> int:
        return self._step() % bound

    def next_fraction(self) -> Fraction:
        return Fraction(self.next_int(2001) - 1000, 1000)

    def next_positive_fraction(self) -> Fraction:
        return Fraction(self.next_int(1000) + 1, 1000)

    def next_nonzero_vector(self, dim: int) -> Vec:
        while True:
            v = tuple(self.next_fraction() for _ in range(dim))
            if not is_zero_vec(v):
                return v


def sample_sphere(space: SpaceSpec, n: int, seed: int) -> list[Vec]:
    """n rational-coordinate unit vectors; exactly unit on exact paths,
    within 1e-12 of unit norm on float paths."""
    if n < 1:
        raise InputError("bad_count", "sample count must be >= 1")
    stream = RationalStream(seed)
    out: list[Vec] = []
    for _ in range(n):
        direction = stream.next_nonzero_vector(space.dim)
        value = norm(space, direction)
        if is_exact(space):
            out.append(vec_scale(1 / value, direction))
        else:
            approx = Fraction(value).limit_denominator(10**15)
            out.append(vec_scale(1 / approx, direction))
    return out


def _breakpoints(space: SpaceSpec, x: Vec, y: Vec) -> list[Fraction]:
    """Candidate kink locations of the piecewise-linear map t -> ||x + t y||."""
    candidates: set[Fraction] = set()
    if space.kind == "lp" and space.p == 1:
        for xi, yi in zip(x, y):
            if yi != 0:
                candidates.add(-xi / yi)
    elif space.kind == "lp" and space.p == INF:
        n = len(x)
        for i in range(n):
            if y[i] != 0:
                candidates.add(-x[i] / y[i])
            for j in range(i + 1, n):
                for s in (1, -1):
                    den = y[i] - s * y[j]
                    if den != 0:
                        candidates.add(-(x[i] - s * x[j]) / den)
    else:
        pairs = [(dot(f, x), dot(f, y)) for f in dual_ball_vertices(space)]
        for i in range(len(pairs)):
            ai, bi = pairs[i]
            for j in range(i + 1, len(pairs)):
                aj, bj = pairs[j]
                if bi != bj:
                    candidates.add((aj - ai) / (bi - bj))
    return sorted(candidates)


@float_path
def minimize_norm_1d(
    space: SpaceSpec, x: Vec, y: Vec
) -> tuple[Union[Fraction, float], Union[Fraction, float]]:
    """Global minimizer and minimum of the convex map t -> ||x + t y||.

    Exact breakpoint scan on polyhedral-like spaces, ternary search to an
    interval of width 1e-10 on float paths.  The minimizer always lies in
    [-2||x||/||y||, 2||x||/||y||] because ||x + t y|| >= |t| ||y|| - ||x||.
    On an exact space x and y convert exactly (`linalg.vec`), so float input
    is decided in rationals.
    """
    require_dim(space, x)
    require_dim(space, y)
    if is_zero_vec(y):
        raise InputError("zero_vector", "direction y must be nonzero")
    exact = is_exact(space)
    if exact:
        x, y = vec(x), vec(y)
    nx = norm(space, x)
    ny = norm(space, y)
    if exact:
        bracket = 2 * nx / ny
        candidates = [t for t in _breakpoints(space, x, y) if -bracket <= t <= bracket]
        candidates = [-bracket, *candidates, bracket]
        best_t, best_v = None, None
        for t in candidates:
            v = norm(space, vec_add(x, vec_scale(t, y)))
            if best_v is None or v < best_v:
                best_t, best_v = t, v
        return best_t, best_v

    bracket = 2.0 * float(nx) / float(ny) if nx > 0 else 1.0
    lo, hi = -bracket, bracket
    xf = [float(c) for c in x]
    yf = [float(c) for c in y]
    pf = float(space.p)

    def value(t: float) -> float:
        return sum(abs(xc + t * yc) ** pf for xc, yc in zip(xf, yf)) ** (1.0 / pf)

    while hi - lo > 1e-10:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if value(m1) <= value(m2):
            hi = m2
        else:
            lo = m1
    t_star = (lo + hi) / 2.0
    return t_star, value(t_star)


@dataclass(frozen=True, slots=True)
class SampleCheckReport:
    """Direct-search check of local Birkhoff-James preservation at x."""

    checked: int
    violations: tuple[tuple[Vec, Union[Fraction, float]], ...]
    seed: int
    mode: str


def preservation_sample_check(op: Operator, x: Vec, n: int, seed: int) -> SampleCheckReport:
    """Sample n vectors y with x orthogonal to y and test T x against T y.

    Each y is built by picking f in J(x) by convex sampling and then a random
    element of ker f, so x is orthogonal to y by construction; the verdict on
    (Tx, Ty) comes from direct norm minimization, never from the LP route.

    On an exact space f = sum w_i f_i / sum w_i over the vertices f_i of
    J(x), the weights drawn as by `next_positive_fraction`, is summed in
    integers over the rows D f_i and divided once per coordinate; where all
    vertices agree it keeps the first one's entry, as
    `faces.convex_combination` does.
    """
    if n < 0:
        raise InputError("bad_count", "sample count must be >= 0")
    if is_zero_vec(x):
        raise InputError("zero_vector", "base point x must be nonzero")
    domain, codomain = op.domain, op.codomain
    mode = arithmetic_mode(domain)
    sup = support_set(domain, x)
    limit = min(MAX_PRESERVE_SAMPLES, _MAX_PRESERVE_COST // (len(sup.vertices) * domain.dim))
    what = f"{n:,} samples at a point with {len(sup.vertices):,} supporting vertices in {domain.dim}-D"
    require_sample_budget(n, limit, what)
    stream = RationalStream(seed)
    tx = op(x)
    if mode == EXACT:
        d, rows = integer_rows(sup.vertices)
        first = sup.vertices[0]
        columns = [(None if len(set(column)) == 1 else column) for column in zip(*rows)]
    violations: list[tuple[Vec, Union[Fraction, float]]] = []
    for _ in range(n):
        if mode == EXACT:
            # The draws of next_positive_fraction, without the common denominator 1000.
            weights = [stream.next_int(1000) + 1 for _ in sup.vertices]
            den = d * sum(weights)
            f = tuple(c if column is None else Fraction(sum(map(mul, weights, column)), den) for c, column in zip(first, columns))
        else:
            f = tuple(Fraction(c).limit_denominator(10**12) for c in sup.vertices[0])
        basis = kernel_basis((f,))
        y = None
        while y is None:
            coeffs = [stream.next_fraction() for _ in basis]
            candidate = tuple(
                sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(domain.dim)
            )
            if not is_zero_vec(candidate):
                y = candidate
        ty = op(y)
        if is_zero_vec(ty):
            continue
        _, min_value = minimize_norm_1d(codomain, tx, ty)
        ntx = norm(codomain, tx)
        margin = ntx - min_value
        if (mode == EXACT and margin > 0) or (
            mode != EXACT and margin > FLOAT_TOL * max(1.0, float(ntx))
        ):
            violations.append((y, margin))
    return SampleCheckReport(n, tuple(violations), seed, mode)
