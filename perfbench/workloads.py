"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload builds one *pass*: a list of operations whose composition (which
call, on which space size, at which kind of point, with which kind of
operator) is fixed, while the seed only picks the concrete points, operators
and balls.  Latency percentiles of different seeds therefore describe the
same mix.  The timed loop runs pass after pass (new passes from the same
``rng`` on decide and sweep); every output is checked after the loop, outside
the timed interval.

Operations reach the library through module attributes at call time
(``B.is_level_vector``), so the traced run can wrap them at their import
sites.  Inputs come from ``random.Random(seed)`` only; no library generator
is used, so no library change can alter them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from typing import Callable, Optional

import bjlevel as B

WORKLOADS = ("decide", "sweep", "polytope")


@dataclass
class Op:
    """One operation of a pass.

    ``run`` performs the timed call.  ``check`` returns None when the output
    is correct and a short reason otherwise.  ``summary`` renders verdicts and
    level numbers (never certificates, which may legitimately change to
    another valid one) for the per-seed digest.  ``argv`` is set on CLI
    operations; ``malformed`` marks CLI calls whose input is deliberately
    broken, whose only requirement is the CLI contract.  ``repeats_equal``
    is False where each execution draws new inputs.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    summary: Callable[[object], str]
    argv: Optional[list] = None
    malformed: bool = False
    repeats_equal: bool = True


# ---------------------------------------------------------------------------
# Exact helpers of the benchmark's own, so that neither the inputs nor the
# checks that are not oracle calls depend on library code


def _dot(a, b) -> F:
    return sum((x * y for x, y in zip(a, b)), F(0))


def _rref(rows) -> tuple[list[list[F]], list[int]]:
    """Reduced row echelon form over Fractions and the pivot columns."""
    work = [[F(c) for c in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work, pivots


def _rank(rows) -> int:
    return len(_rref(rows)[1])


def _solve(rows, rhs) -> Optional[tuple]:
    """The solution of a square system, or None when it is singular."""
    n = len(rows)
    reduced, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    return tuple(reduced[i][n] for i in range(n)) if pivots == list(range(n)) else None


def _kernel(rows) -> list[tuple]:
    reduced, pivots = _rref(rows)
    n = len(rows[0])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


def _is_l1(space) -> bool:
    return space.kind == "lp" and space.p == 1


@functools.cache
def _ball_vertices(space) -> tuple:
    n = space.dim
    if space.kind == "polyhedral":
        return space.ball_vertices
    if _is_l1(space):
        return tuple(tuple(F(s) if j == i else F(0) for j in range(n)) for i in range(n) for s in (1, -1))
    return tuple(tuple(F(s) for s in signs) for signs in itertools.product((1, -1), repeat=n))


@functools.cache
def _facets(vertices: tuple) -> tuple:
    """Facet functionals of a polyhedral ball from its vertices (small balls only)."""
    n = len(vertices[0])
    found = set()
    for subset in itertools.combinations(vertices, n):
        f = _solve(subset, (F(1),) * n)
        if f is not None and all(_dot(f, v) <= 1 for v in vertices):
            found.add(f)
    return tuple(sorted(found))


def _norm(space, x) -> F:
    if space.kind == "polyhedral":
        return max(_dot(f, x) for f in _facets(space.ball_vertices))
    if _is_l1(space):
        return sum((abs(c) for c in x), F(0))
    return max(abs(c) for c in x)


def _supporting_pair(space, x) -> Optional[tuple]:
    """Two distinct supporting functionals at unit x, or None where x is smooth."""
    n = space.dim
    if space.kind == "polyhedral":
        tight = [f for f in _facets(space.ball_vertices) if _dot(f, x) == 1]
        return (tight[0], tight[-1]) if len(tight) > 1 else None
    if _is_l1(space):
        if all(c != 0 for c in x):
            return None
        sign = [F((c > 0) - (c < 0)) for c in x]
        return tuple(tuple(s if s != 0 else F(fill) for s in sign) for fill in (1, -1))
    top = [i for i in range(n) if abs(x[i]) == 1]
    if len(top) < 2:
        return None
    return tuple(tuple(F((x[i] > 0) - (x[i] < 0)) if j == i else F(0) for j in range(n)) for i in top[:2])


# ---------------------------------------------------------------------------
# Input generation (seeded)


def _nonzero(rng: random.Random, bound: int) -> F:
    return F(rng.choice([k for k in range(-bound, bound + 1) if k != 0]))


def _dense(rng: random.Random, n: int) -> list[list[F]]:
    """An invertible matrix with nonzero integer entries.

    No zero entries: T e_i then has no zero coordinate, so |J(Tx)| at a ball
    vertex, and with it the cost of an operation, does not hinge on the seed.
    """
    while True:
        m = [[_nonzero(rng, 4) for _ in range(n)] for _ in range(n)]
        if _rank(m) == n:
            return m


def _rank_deficient(rng: random.Random, n: int, kernel_dim: int) -> list[list[F]]:
    """An n x n matrix of rank n - kernel_dim with nonzero entries.

    A product of positive factors (so no entry is zero) with random signs on
    its rows and columns.
    """
    r = n - kernel_dim
    while True:
        left = [[rng.randint(1, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(1, 3) for _ in range(n)] for _ in range(r)]
        rows = [rng.choice((1, -1)) for _ in range(n)]
        cols = [rng.choice((1, -1)) for _ in range(n)]
        m = [
            [F(rows[i] * cols[j] * sum(left[i][k] * right[k][j] for k in range(r))) for j in range(n)]
            for i in range(n)
        ]
        if _rank(m) == r:
            return m


def _diagonal(rng: random.Random, n: int, graded: bool = False) -> list[list[F]]:
    """A diagonal matrix with random signs.

    Equal magnitudes 2 give a scaled isometry (every verdict yes, every check
    at full cost); graded magnitudes 2, 4, .., 2n in random order mix yes and
    no.  Which of the two is used is fixed by the pass layout, not the seed,
    and so is every magnitude: the cost of exact arithmetic grows with the
    bit length of the entries.
    """
    mags = [2 * m for m in range(1, n + 1)] if graded else [2] * n
    rng.shuffle(mags)
    d = [F(m * rng.choice((1, -1))) for m in mags]
    return [[d[i] if i == j else F(0) for j in range(n)] for i in range(n)]


def _signed_permutation(rng: random.Random, n: int, scale: F) -> list[list[F]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[scale * rng.choice((1, -1)) if perm[i] == j else F(0) for j in range(n)] for i in range(n)]


def _generic_point(rng: random.Random, space: B.SpaceSpec) -> tuple:
    """A unit vector at which the norm is smooth (|J(x)| = 1)."""
    while True:
        d = tuple(F(rng.randint(-9, 9)) for _ in range(space.dim))
        if all(c == 0 for c in d):
            continue
        x = tuple(c / _norm(space, d) for c in d)
        if _supporting_pair(space, x) is None:
            return x


def _vertex(rng: random.Random, space: B.SpaceSpec) -> tuple:
    return rng.choice(_ball_vertices(space))


def _centroid(rng: random.Random, space: B.SpaceSpec) -> tuple:
    """Centroid of a non-facet face: a non-smooth point with |J(x)| > 1.

    On l1^n the face spans ``s`` signed unit vectors and J(x) has 2^(n-s)
    vertices; s is fixed per dimension so that |J(x)| <= 16 for every seed.
    On linf^n, max(2, n // 2) coordinates sit at +-1 and J(x) has that many
    vertices.  The general balls use an edge.
    """
    n = space.dim
    if _is_l1(space):
        s = 2 if n <= 6 else n - 4
        support = rng.sample(range(n), s)
        return tuple(F(rng.choice((1, -1)), s) if i in support else F(0) for i in range(n))
    if space.kind == "lp":
        frozen = rng.sample(range(n), max(2, n // 2))
        return tuple(F(rng.choice((1, -1))) if i in frozen else F(0) for i in range(n))
    v, w = rng.choice(_edges(space.ball_vertices))
    return tuple((a + b) / 2 for a, b in zip(v, w))


@functools.cache
def _edges(vertices: tuple) -> list[tuple]:
    """Vertex pairs whose common facets have rank n - 1: the edges of the ball."""
    facets = _facets(vertices)
    return [
        (v, w)
        for v, w in itertools.combinations(vertices, 2)
        if _rank([f for f in facets if _dot(f, v) == 1 and _dot(f, w) == 1]) == len(v) - 1
    ]


def sphere_polytope_vertices(rng: random.Random, dim: int, count: int) -> list[tuple]:
    """``count`` vertices: +-p for rational points p on the Euclidean sphere.

    The points come from inverse stereographic projection of random rational
    points of Q^(dim-1), so they lie exactly on the strictly convex sphere and
    every listed point is extreme.
    """
    chosen: list[tuple] = []
    seen: set[tuple] = set()
    while len(chosen) < count // 2:
        t = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(dim - 1)]
        s = sum((c * c for c in t), F(0))
        p = tuple(2 * c / (s + 1) for c in t) + ((s - 1) / (s + 1),)
        neg = tuple(-c for c in p)
        if p in seen or neg in seen:
            continue
        seen.update((p, neg))
        chosen.append(p)
        if len(chosen) == count // 2 and _rank(chosen) < dim:
            chosen.clear()
            seen.clear()
    return chosen + [tuple(-c for c in p) for p in chosen]


def hexagon() -> B.SpaceSpec:
    return B.polyhedral_space([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])


def cube_cross_ball() -> B.SpaceSpec:
    """The 3-D ball with the 8 cube vertices and the 6 vertices of 2 * cross."""
    cube = [tuple(F(s) for s in signs) for signs in itertools.product((1, -1), repeat=3)]
    cross = [tuple(F(2 * s) if j == i else F(0) for j in range(3)) for i in range(3) for s in (1, -1)]
    return B.polyhedral_space(cube + cross)


# ---------------------------------------------------------------------------
# Independent checks


def _dual_norm(space: B.SpaceSpec, f: tuple) -> F:
    """Dual norm from its definition: the max of f over the primal unit ball."""
    return max(_dot(f, v) for v in _ball_vertices(space))


def _in_support(space: B.SpaceSpec, x: tuple, f: tuple) -> bool:
    return _dot(f, x) == B.norm(space, x) and _dual_norm(space, f) == 1


def _apply(matrix, x) -> tuple:
    return tuple(_dot(row, x) for row in matrix)


def check_level(op: B.Operator, x: tuple, cert) -> Optional[str]:
    """A certificate must satisfy its defining equation exactly."""
    if cert is None:
        return None
    tx = _apply(op.matrix, x)
    if cert.f is None:
        return None if all(c == 0 for c in tx) and cert.level_number == 0 else "degenerate certificate"
    if not _in_support(op.domain, x, cert.f):
        return "certificate f not in J(x)"
    if not _in_support(op.codomain, tx, cert.g):
        return "certificate g not in J(Tx)"
    scale = B.norm(op.codomain, tx) / B.norm(op.domain, x)
    transposed = list(zip(*op.matrix))
    if _apply(transposed, cert.g) != tuple(scale * c for c in cert.f):
        return "T^T g != (||Tx||/||x||) f"
    if cert.level_number != scale * scale:
        return "level number is not ||Tx||^2/||x||^2"
    return None


def check_counterexample(op: B.Operator, x: tuple, y: tuple) -> Optional[str]:
    if not B.bj_orthogonal_oracle(op.domain, x, y).orthogonal:
        return "oracle: x not orthogonal to y"
    if B.bj_orthogonal_oracle(op.codomain, op(x), op(y)).orthogonal:
        return "oracle: Tx orthogonal to Ty"
    return None


def check_preserve(op: B.Operator, x: tuple, report) -> Optional[str]:
    if report.holds:
        # Preservation at x implies that x is a level vector.
        return None if B.is_level_vector(op, x) is not None else "holds but x is not a level vector"
    if report.counterexample is None:
        return "refuted without a counterexample"
    return check_counterexample(op, x, report.counterexample[0])


def check_bj(space: B.SpaceSpec, x: tuple, y: tuple, verdict) -> Optional[str]:
    if verdict.orthogonal != B.bj_orthogonal_oracle(space, x, y).orthogonal:
        return "bj_orthogonal disagrees with the oracle"
    if verdict.orthogonal and verdict.witness is not None:
        if not _in_support(space, x, verdict.witness) or _dot(verdict.witness, y) != 0:
            return "orthogonality witness is not a supporting functional killing y"
    return None


def check_kernel(op: B.Operator, x: tuple, holds: bool) -> Optional[str]:
    if all(c == 0 for c in op(x)):
        return None if holds else "Tx = 0 but the condition failed"
    basis = _kernel(op.matrix)
    if not basis:
        return None if holds else "injective operator failed the condition"
    per_vector = [B.bj_orthogonal_oracle(op.domain, x, b).orthogonal for b in basis]
    if holds and not all(per_vector):
        return "condition holds but x is not orthogonal to a kernel vector"
    if len(basis) == 1 and not holds and per_vector[0]:
        return "1-D kernel orthogonal to x but the condition failed"
    return None


def check_polar(space: B.SpaceSpec, polar: tuple) -> Optional[str]:
    """Every polar vertex f has max_v f.v = 1 with n tight vertices of rank n."""
    verts = space.ball_vertices
    for f in polar:
        values = [_dot(f, v) for v in verts]
        if max(values) != 1:
            return "polar vertex is not tight at 1"
        tight = [v for v, val in zip(verts, values) if val == 1]
        if _rank(tight) != space.dim:
            return "polar vertex has tight vertices of rank < n"
    return None


def check_euler(n: int, counts: tuple) -> Optional[str]:
    if sum((-1) ** k * c for k, c in enumerate(counts)) != 1 - (-1) ** n:
        return "face census breaks Euler's relation"
    return None


def _yn(value: bool) -> str:
    return "yes" if value else "no"


def _level_summary(cert) -> str:
    return "no" if cert is None else f"yes:{cert.level_number}"


# ---------------------------------------------------------------------------
# decide: single-point exact decisions on warm spaces


def _decide_spaces() -> list[B.SpaceSpec]:
    return [B.l1(n) for n in range(3, 10)] + [B.linf(n) for n in range(3, 10)] + [hexagon(), cube_cross_ball()]


def _decide_allowed(space: B.SpaceSpec, call: str, kind: str) -> bool:
    """Keep each call at about a second or less on the seed implementation.

    On l1^n a vertex has 2^(n-1) supporting functionals: at vertices the
    level test stops at n = 7 and preservation at n = 5; preservation stops
    at n = 6 at every point kind.
    """
    if space.kind == "lp" and space.p == 1:
        if call == "preserve":
            return space.dim <= (5 if kind == "vertex" else 6)
        if call == "level" and kind == "vertex":
            return space.dim <= 6
    return True


def decide_pass(rng: random.Random, smoke: bool = False) -> list[Op]:
    spaces = _decide_spaces()
    if smoke:
        spaces = [B.l1(3), B.linf(3), hexagon()]
    ops: list[Op] = []
    index = 0
    for space in spaces:
        n = space.dim
        for call in ("level", "preserve", "bj", "kernel"):
            for kind in ("vertex", "centroid", "generic") * (1 if smoke else 2):
                if not _decide_allowed(space, call, kind):
                    continue
                op_kind = ("diagonal", "dense", "rank-deficient")[index % 3]
                if call == "kernel" and op_kind == "diagonal":
                    op_kind = "rank-deficient"
                graded = index % 6 == 3
                index += 1
                if op_kind == "diagonal":
                    matrix = _diagonal(rng, n, graded)
                elif op_kind == "dense":
                    matrix = _dense(rng, n)
                else:
                    matrix = _rank_deficient(rng, n, 1)
                if kind == "vertex" and space.kind == "lp" and space.p == 1 and op_kind == "diagonal":
                    # The vertex of the largest entry: preservation fails at
                    # the first functional, so the cost does not hinge on the seed.
                    i = max(range(n), key=lambda k: abs(matrix[k][k]))
                    point = tuple(F(rng.choice((1, -1))) if k == i else F(0) for k in range(n))
                else:
                    point = {"vertex": _vertex, "centroid": _centroid, "generic": _generic_point}[kind](rng, space)
                op = B.operator(matrix, space)
                label = f"{call} {space!r} {kind} {op_kind}{' graded' if graded and op_kind == 'diagonal' else ''}"
                ops.append(_decide_op(label, call, space, op, point, rng))
    rng.shuffle(ops)
    return ops


def _decide_op(label: str, call: str, space, op, x, rng) -> Op:
    if call == "level":
        return Op(label, lambda: B.is_level_vector(op, x), lambda r: check_level(op, x, r), _level_summary)
    if call == "preserve":
        return Op(label, lambda: B.preserves_bj_at(op, x), lambda r: check_preserve(op, x, r), lambda r: _yn(r.holds))
    if call == "bj":
        y = tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
        pair = _supporting_pair(space, x)
        if rng.random() < 0.5 and pair is not None:
            # Aim y at the kernel of a mix of two supporting functionals, so
            # that about half the verdicts are "orthogonal".
            f = tuple((a + b) / 2 for a, b in zip(*pair))
            y = tuple(a - _dot(f, y) / _dot(f, x) * b for a, b in zip(y, x))
        if all(c == 0 for c in y):
            y = tuple(F(1) if k == 0 else F(0) for k in range(space.dim))
        return Op(
            label, lambda: B.bj_orthogonal(space, x, y), lambda r: check_bj(space, x, y, r), lambda r: _yn(r.orthogonal)
        )
    return Op(label, lambda: B.kernel_condition(op, x), lambda r: check_kernel(op, x, r), _yn)


def decide_warmup() -> None:
    for space in _decide_spaces():
        B.dual_ball_vertices(space)


# ---------------------------------------------------------------------------
# sweep: whole-ball tasks re-querying one operator


def _sweep_certify_spaces(smoke: bool) -> list[B.SpaceSpec]:
    if smoke:
        return [B.linf(3), B.l1(3)]
    return [B.linf(n) for n in range(3, 7)] + [B.l1(n) for n in range(3, 6)] + [cube_cross_ball()]


def _certifies_in_time(space: B.SpaceSpec) -> bool:
    """Full certification (every extreme point) stays below about a second.

    On the seed implementation linf^6 takes 1.3 s and l1^5 1.1 s; they would
    fill two thirds of the pass and leave too few operations for a steady
    p90, so they get only the dense operators, refuted early.
    """
    return space.dim <= (5 if space.p == B.spaces.INF else 4)


def _sweep_small_spaces(smoke: bool) -> list[B.SpaceSpec]:
    return [B.linf(3), B.l1(3)] if smoke else [B.linf(3), B.linf(4), B.l1(3)]


def sweep_pass(rng: random.Random, smoke: bool = False) -> list[Op]:
    ops: list[Op] = []
    for _ in range(1 if smoke else 2):
        _sweep_round(rng, smoke, ops)
    rng.shuffle(ops)
    return ops


def _sweep_round(rng: random.Random, smoke: bool, ops: list) -> None:
    for space in _sweep_certify_spaces(smoke):
        n = space.dim
        scale = F(2)
        perm = B.operator(_signed_permutation(rng, n, scale), space)
        if _certifies_in_time(space):
            ops.append(
                Op(
                    f"certify {space!r} signed-permutation",
                    lambda op=perm: B.certify_scalar_isometry_polyhedral(op),
                    lambda r, op=perm, s=scale: _check_certified(op, r, s),
                    lambda r: f"{r.verdict}:{r.scale}:{len(r.checked_points)}",
                )
            )
        for _ in range(6):
            dense = B.operator(_dense(rng, n), space)
            ops.append(
                Op(
                    f"certify {space!r} dense",
                    lambda op=dense: B.certify_scalar_isometry_polyhedral(op),
                    lambda r, op=dense: _check_refuted(op, r),
                    lambda r: f"{r.verdict}:{len(r.checked_points)}",
                )
            )
    small = _sweep_small_spaces(smoke)
    # The counts place both percentiles inside clusters of operations of
    # similar cost, not on a gap between clusters, where they would swing
    # from seed to seed: six dense certifications per space put the median
    # among them (about 80% of the operations cost under 12 ms, so the median
    # is the 60th percentile of 96 refutations), and linf^4 eight times,
    # whose enumeration costs about what the largest certifications cost,
    # gives a slowest cluster of about 14% around the p90.
    for space in small + small[1:2] * (0 if smoke else 7):
        graded_diagonal = space.kind == "lp" and space.p == B.spaces.INF and space.dim == 4
        op = B.operator(_diagonal(rng, space.dim, True) if graded_diagonal else _dense(rng, space.dim), space)
        seed = rng.randrange(1 << 30)
        ops.append(
            Op(
                f"enumerate {space!r}",
                lambda op=op, seed=seed: B.enumerate_level_numbers(op, 3, seed),
                lambda r, op=op: _check_enumerate(op, r),
                lambda r: "values:" + ",".join(str(v) for v in r.values),
            )
        )
    for space in (B.linf(3), B.l1(3)):
        for kernel_dim in range(3):
            op = B.operator(_rank_deficient(rng, space.dim, kernel_dim), space)
            ops.append(
                Op(
                    f"bound {space!r} kernel {kernel_dim}",
                    lambda op=op, space=space: B.level_count_bound(space, op),
                    lambda r, space=space, k=kernel_dim: _check_bound(space, k, r),
                    lambda r: f"bound:{r}",
                )
            )


def _check_certified(op, report, scale) -> Optional[str]:
    if report.verdict != B.CERTIFIED or report.scale != scale:
        return f"scaled signed permutation got {report.verdict} with scale {report.scale}"
    if sorted(report.checked_points) != sorted(_ball_vertices(op.domain)):
        return "certificate did not visit every extreme point"
    return None


def _check_refuted(op, report) -> Optional[str]:
    if report.verdict != B.REFUTED or report.witness is None:
        return f"dense operator got {report.verdict}"
    return check_counterexample(op, *report.witness)


def _closed_form_census(space) -> tuple:
    n = space.dim
    if space.p == 1:
        return tuple(comb(n, k + 1) * 2 ** (k + 1) for k in range(n))
    return tuple(comb(n, k) * 2 ** (n - k) for k in range(n))


def _check_enumerate(op, report) -> Optional[str]:
    for probe in report.per_face:
        for point, number in zip(probe.points, probe.level_numbers):
            if number is not None and number != (B.norm(op.codomain, op(point)) / B.norm(op.domain, point)) ** 2:
                return "reported level number is not ||Tx||^2/||x||^2"
    if report.bound is not None and len(report.values) > report.bound:
        return "more level numbers than the face-count bound"
    return None


def _check_bound(space, kernel_dim: int, bound) -> Optional[str]:
    total = sum(_closed_form_census(space))
    if kernel_dim == 0:
        return None if bound == F(total, 2) else "injective bound is not half the face count"
    # The kernel section is a centred segment (2 faces) or polygon (4m faces).
    section_faces = total - 2 * (bound - 1)
    if kernel_dim == 1 and section_faces != 2:
        return "1-D kernel section is not a segment"
    if kernel_dim == 2 and (section_faces < 8 or section_faces % 4 != 0):
        return "2-D kernel section is not a centred polygon"
    return None


def sweep_warmup(smoke: bool = False) -> None:
    for space in _sweep_certify_spaces(smoke) + _sweep_small_spaces(smoke):
        B.dual_ball_vertices(space)
        B.face_lattice(space)


# ---------------------------------------------------------------------------
# polytope: a new general ball in every operation

# (dimension, vertex count, kernel dimension of the bound's operator), each
# about a third of a second or less on the seed implementation.  The layout
# puts both percentiles inside blocks of operations of one size, not on a gap
# between sizes, where they would swing from seed to seed: 8 cheaper
# operations, a block of six 3-D balls with 10 vertices around the median,
# 4 heavier ones, and a block of four 28-gons around the p90.  4-D balls get
# no 2-D kernel (16 s at 16 vertices on the seed implementation).
POLYTOPE_PASS = [
    (2, 8, 0), (2, 8, 1), (2, 12, 0), (2, 12, 1), (3, 8, 0), (3, 8, 1), (2, 16, 0), (2, 16, 1),
    (3, 10, 0), (3, 10, 1), (3, 10, 0), (3, 10, 1), (3, 10, 0), (3, 10, 1),
    (4, 8, 0), (4, 8, 1), (3, 12, 0), (3, 12, 2),
    (2, 28, 0), (2, 28, 1), (2, 28, 0), (2, 28, 1),
]
POLYTOPE_SMOKE_PASS = [(2, 8, 1), (3, 8, 2)]


def polytope_pass(rng: random.Random, smoke: bool = False) -> list[Op]:
    """One operation per layout entry; every execution draws a new ball.

    Each operation owns a random stream seeded from ``rng``, so the k-th
    execution of an operation sees the same ball in every run of a seed,
    while no two executions share a ball (and so a cache entry).
    """
    ops: list[Op] = []
    for dim, count, kernel_dim in POLYTOPE_SMOKE_PASS if smoke else POLYTOPE_PASS:
        stream = random.Random(rng.getrandbits(64))
        ops.append(
            Op(
                f"polytope {dim}-D {count} vertices kernel {kernel_dim}",
                lambda s=stream, d=dim, c=count, k=kernel_dim: _polytope_run(
                    sphere_polytope_vertices(s, d, c), _rank_deficient(s, d, k), _dense(s, d)
                ),
                _check_polytope,
                lambda r: (
                    f"polar:{len(r['polar'])}:census:{r['census'].counts}:bound:{r['bound']}"
                    f":level:{_level_summary(r['level'])}:preserve:{_yn(r['preserve'].holds)}"
                ),
                repeats_equal=False,
            )
        )
    rng.shuffle(ops)
    return ops


def _polytope_run(verts, kernel_matrix, dense_matrix) -> dict:
    space = B.polyhedral_space(verts)
    polar = B.polar_vertices(space)
    census = B.face_census(space)
    bound = B.level_count_bound(space, B.operator(kernel_matrix, space))
    dense = B.operator(dense_matrix, space)
    x = verts[0]
    return {
        "space": space,
        "polar": polar,
        "census": census,
        "bound": bound,
        "op": dense,
        "x": x,
        "level": B.is_level_vector(dense, x),
        "preserve": B.preserves_bj_at(dense, x),
    }


def _check_polytope(r: dict) -> Optional[str]:
    space, op, x = r["space"], r["op"], r["x"]
    return (
        check_polar(space, r["polar"])
        or check_euler(space.dim, r["census"].counts)
        or (None if 1 <= r["bound"] <= F(r["census"].total, 2) + 1 else "bound outside [1, faces/2 + 1]")
        or check_level(op, x, r["level"])
        or check_preserve(op, x, r["preserve"])
    )


# ---------------------------------------------------------------------------
# CLI calls of the traced run: sequential `python -m bjlevel.cli` subprocesses


def _space_dict(space) -> dict:
    if space.kind == "lp":
        return {"kind": "lp", "p": str(space.p), "dim": space.dim}
    return {"kind": "polyhedral", "dim": space.dim, "ball_vertices": [[str(c) for c in v] for v in space.ball_vertices]}


def _vec_arg(x) -> str:
    # Used as "--x=<value>": a leading minus sign would read as a flag.
    return ",".join(str(c) for c in x)


class CliInputs:
    """JSON input files of the CLI calls, one directory per run."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, data) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path


def cli_calls(rng: random.Random, inputs: CliInputs, env: dict, cwd: str) -> list[Op]:
    """Every subcommand once on small JSON inputs, and four malformed inputs."""
    ops: list[Op] = []
    spaces = [B.l1(3), B.linf(3), B.linf(4), hexagon()]
    for builder in _CLI_BUILDERS:
        argv, expect = builder(rng, rng.choice(spaces), inputs)
        ops.append(_cli_op(argv, expect, env, cwd))
    # Malformed inputs: three break the CLI contract on the seed
    # implementation (non-integer dim, p overflowing a float, a ragged
    # matrix); the missing file is handled with exit code 2.
    lp1 = inputs.write(_space_dict(B.linf(2)))
    ragged = inputs.write({"matrix": [["1", "0"], ["0"]]})
    malformed = [
        ["bj", "--space", inputs.write({"kind": "lp", "p": "1", "dim": "abc"}), "--x", "1,0", "--y", "0,1"],
        ["bj", "--space", inputs.write({"kind": "lp", "p": "1e400", "dim": 2}), "--x", "1,0", "--y", "0,1"],
        ["level", "test", "--space", lp1, "--op", ragged, "--x", "1,0"],
        ["support", "--space", os.path.join(inputs.directory, "missing.json"), "--x", "1,0"],
    ]
    for argv in malformed:
        ops.append(_cli_op(argv, None, env, cwd))
    return ops


def _cli_op(argv: list, expect, env: dict, cwd: str) -> Op:
    cmd = [sys.executable, "-m", "bjlevel.cli", *argv]
    if expect is not None:
        expect = (expect[0], functools.cache(expect[1]))  # one library call per operation

    def run():
        return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)

    return Op(
        " ".join(argv[:2]) if argv[1:2] and not argv[1].startswith("--") else argv[0],
        run,
        lambda proc: check_cli(proc.returncode, proc.stdout, expect),
        lambda proc: f"exit:{proc.returncode}:" + (_cli_verdict(proc.stdout, expect) if expect else ""),
        argv=argv,
        malformed=expect is None,
    )


def _cli_verdict(stdout: str, expect) -> str:
    try:
        return json.dumps(expect[0](json.loads(stdout)["result"]), sort_keys=True)
    except (ValueError, KeyError, TypeError):
        return "unparsable"


def check_cli(returncode: int, stdout: str, expect) -> Optional[str]:
    """Exit code in {0, 2, 3}, exactly one JSON line, and the library's verdict."""
    if returncode not in (0, 2, 3):
        return f"exit code {returncode}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines on stdout"
    try:
        report = json.loads(lines[0])
    except ValueError:
        return "stdout is not JSON"
    if expect is None:
        return None if returncode == 2 and "error" in report else "malformed input was not rejected"
    extract, want = expect
    if returncode != 0:
        return f"exit code {returncode} on a well-formed call"
    got, lib = extract(report["result"]), want()
    return None if got == lib else f"CLI verdict {got!r} != library {lib!r}"


def _cli_bj(rng, space, inputs):
    x, y = _generic_point(rng, space), tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
    want = lambda: B.bj_orthogonal(space, x, y).orthogonal
    return ["bj", "--space", inputs.write(_space_dict(space)), "--x=" + _vec_arg(x), "--y=" + _vec_arg(y)], (
        lambda r: r["orthogonal"],
        want,
    )


def _cli_support(rng, space, inputs):
    x = _centroid(rng, space)
    want = lambda: [[str(c) for c in f] for f in B.support_set(space, x).vertices]
    return ["support", "--space", inputs.write(_space_dict(space)), "--x=" + _vec_arg(x)], (
        lambda r: r["vertices"],
        want,
    )


def _cli_census(rng, space, inputs):
    want = lambda: list(B.face_census(space).counts)
    return ["faces", "census", "--space", inputs.write(_space_dict(space))], (lambda r: r["counts"], want)


def _cli_minimal(rng, space, inputs):
    x = _centroid(rng, space)
    want = lambda: [[str(c) for c in v] for v in B.minimal_face(space, x).vertices]
    return ["faces", "minimal", "--space", inputs.write(_space_dict(space)), "--x=" + _vec_arg(x)], (
        lambda r: r["vertices"],
        want,
    )


def _op_files(rng, space, inputs, matrix):
    return ["--space", inputs.write(_space_dict(space)), "--op", inputs.write({"matrix": [[str(c) for c in row] for row in matrix]})]


def _level_number_str(cert) -> Optional[str]:
    return None if cert is None else str(cert.level_number)


def _cli_level_test(rng, space, inputs):
    matrix = _diagonal(rng, space.dim) if rng.random() < 0.5 else _dense(rng, space.dim)
    x = _vertex(rng, space)
    want = lambda: _level_number_str(B.is_level_vector(B.operator(matrix, space), x))
    return ["level", "test", *_op_files(rng, space, inputs, matrix), "--x=" + _vec_arg(x)], (
        lambda r: r.get("level_number") if r["level_vector"] else None,
        want,
    )


def _cli_level_enumerate(rng, space, inputs):
    space = B.linf(2) if space.dim > 3 else space
    matrix = _diagonal(rng, space.dim)
    seed = rng.randrange(1000)
    want = lambda: [str(v) for v in B.enumerate_level_numbers(B.operator(matrix, space), 2, seed).values]
    argv = ["level", "enumerate", *_op_files(rng, space, inputs, matrix), "--samples", "2", "--seed", str(seed)]
    return argv, (lambda r: r["values"], want)


def _cli_preserve(rng, space, inputs):
    matrix = _diagonal(rng, space.dim)
    x = _vertex(rng, space)
    want = lambda: B.preserves_bj_at(B.operator(matrix, space), x).holds
    return ["preserve", "check", *_op_files(rng, space, inputs, matrix), "--x=" + _vec_arg(x)], (
        lambda r: r["holds"],
        want,
    )


def _cli_certify(rng, space, inputs):
    space = B.linf(3) if space.dim > 3 else space
    scale = rng.choice((F(1), F(2)))
    matrix = _signed_permutation(rng, space.dim, scale) if rng.random() < 0.5 else _dense(rng, space.dim)
    want = lambda: B.certify_scalar_isometry_polyhedral(B.operator(matrix, space)).verdict
    return ["isometry", "certify", *_op_files(rng, space, inputs, matrix)], (lambda r: r["verdict"], want)


def _cli_probe(rng, space, inputs):
    matrix = _dense(rng, space.dim)
    seed = rng.randrange(1000)
    want = lambda: B.probe_scalar_isometry_grid(B.operator(matrix, space), space, 5, seed).verdict
    argv = ["isometry", "probe", *_op_files(rng, space, inputs, matrix), "--samples", "5", "--seed", str(seed)]
    return argv, (lambda r: r["verdict"], want)


def _cli_identity(rng, space, inputs):
    matrix = _diagonal(rng, space.dim)
    candidates = [_generic_point(rng, space) for _ in range(space.dim)]
    want = lambda: B.scalar_identity_test(B.operator(matrix, space), candidates).certified
    cand = inputs.write({"candidates": [[str(c) for c in x] for x in candidates]})
    return ["identity", "test", *_op_files(rng, space, inputs, matrix), "--candidates", cand], (
        lambda r: r["certified"],
        want,
    )


def _cli_adjoint(rng, space, inputs):
    space = B.linf(space.dim) if space.kind != "lp" else space
    matrix = [[abs(c) for c in row] for row in _diagonal(rng, space.dim)]
    x = tuple(F(1) if i == 0 else F(0) for i in range(space.dim))
    want = lambda: str(B.adjoint_level_transfer(B.operator(matrix, space), x).level_number)
    return ["adjoint", "transfer", *_op_files(rng, space, inputs, matrix), "--x=" + _vec_arg(x)], (
        lambda r: r["level_number"],
        want,
    )


def _cli_oracle_bj(rng, space, inputs):
    x, y = _vertex(rng, space), tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
    want = lambda: B.bj_orthogonal_oracle(space, x, y).orthogonal
    return ["oracle", "bj", "--space", inputs.write(_space_dict(space)), "--x=" + _vec_arg(x), "--y=" + _vec_arg(y)], (
        lambda r: r["orthogonal"],
        want,
    )


def _cli_oracle_preserve(rng, space, inputs):
    matrix = _diagonal(rng, space.dim)
    x = _vertex(rng, space)
    seed = rng.randrange(1000)
    want = lambda: len(B.preservation_sample_check(B.operator(matrix, space), x, 5, seed).violations)
    argv = ["oracle", "preserve", *_op_files(rng, space, inputs, matrix), "--x=" + _vec_arg(x), "--samples", "5", "--seed", str(seed)]
    return argv, (lambda r: len(r["violations"]), want)


_CLI_BUILDERS = [
    _cli_bj,
    _cli_support,
    _cli_census,
    _cli_minimal,
    _cli_level_test,
    _cli_level_enumerate,
    _cli_preserve,
    _cli_certify,
    _cli_probe,
    _cli_identity,
    _cli_adjoint,
    _cli_oracle_bj,
    _cli_oracle_preserve,
]
