"""Differential checks: every LP-backed decision against an independent route."""

import itertools
import random
from fractions import Fraction

import pytest

from bjlevel import (
    InternalCheckError,
    RationalStream,
    ball_vertices,
    bj_orthogonal,
    bj_orthogonal_oracle,
    dual_norm,
    dual_space,
    enumerate_level_numbers,
    face_lattice,
    is_level_vector,
    is_smooth,
    kernel_condition,
    l1,
    level_count_bound,
    linf,
    norm,
    norm_squared,
    operator,
    polyhedral_space,
    preservation_sample_check,
    preserves_bj_at,
    preserves_bj_directional,
    subspace_orthogonal,
    support_range,
    support_set,
)
from bjlevel import levels, simplex
from bjlevel.linalg import dot, integer_point, kernel_basis, mat_vec, transpose, vec
from bjlevel.orthogonality import OrthogonalityVerdict
from bjlevel.spaces import exact_ball
from bjlevel.support import _vertex_extremes, functional_in_support, support_extremes
from ._util import (
    HEXAGON_VERTICES,
    certificate_is_sound,
    cube_cross_vertices,
    feasible_point,
    probe_points,
    random_operator,
    sphere_ball,
)

F = Fraction


def test_single_generator_subspace_matches_plain_orthogonality(l1_3, linf_3, hexagon):
    # span{b} lies in the orthogonality set of x exactly when x is orthogonal
    # to b, so the subspace LP must reproduce the vertex min/max decision.
    stream = RationalStream(61)
    for space in (l1_3, linf_3, hexagon):
        for _ in range(150):
            x = stream.next_nonzero_vector(space.dim)
            b = stream.next_nonzero_vector(space.dim)
            lp_verdict = subspace_orthogonal(space, x, [b])
            direct = bj_orthogonal(space, x, b)
            assert lp_verdict.orthogonal == direct.orthogonal


def _sparse_entry(rng: random.Random) -> Fraction:
    """0 half of the time, else a small rational."""
    return F(0) if rng.random() < 0.5 else F(rng.randint(-3, 3), rng.randint(1, 3))


def _listed_verdict(vertices, y):
    """The exact verdict from the extremes of f(y) over a listed vertex list
    of J(x), in Fractions: the witness is f_lo or f_hi at a zero end, else
    the point of the segment between them where f(y) = 0."""
    (lo, f_lo), (hi, f_hi) = _vertex_extremes(vertices, y)
    if lo <= 0 <= hi:
        if lo == 0:
            witness = f_lo
        elif hi == 0:
            witness = f_hi
        else:
            t = -lo / (hi - lo)
            witness = tuple(a + t * (b - a) for a, b in zip(f_lo, f_hi))
        return OrthogonalityVerdict(True, witness, "dual", "exact", F(0))
    return OrthogonalityVerdict(False, None, "dual", "exact", min(abs(lo), abs(hi)))


def test_bj_orthogonal_equals_the_decision_over_the_listed_support_set():
    # bj_orthogonal reads the extremes of f(y) over J(x) in closed form on
    # l1 and over the signed unit vectors of J(x) on l-inf.  Taken over the
    # sorted vertex list of support_set instead, the verdict, the witness and
    # the margin must be the same, ties included: y_i = 0 on a zero of x
    # leaves f_i free at both ends, and an end of the interval at exactly 0
    # makes its vertex the witness.  On l1, y is moved along a coordinate of
    # the support of x to put one end at 0.
    rng = random.Random(20)
    spaces = [l1(n) for n in range(1, 13)] + [linf(n) for n in range(1, 7)] + [polyhedral_space(HEXAGON_VERTICES)]
    ties = zero_ends = interpolated = 0
    for space in spaces:
        n = space.dim
        for trial in range(30):
            x = tuple(_sparse_entry(rng) for _ in range(n))
            if not any(x):
                x = tuple(F(1) if i == trial % n else c for i, c in enumerate(x))
            y = tuple(F(rng.randint(-2, 2)) if rng.random() < 0.7 else _sparse_entry(rng) for _ in range(n))
            vertices = support_set(space, x).vertices
            if space.kind == "lp" and space.p == 1 and trial % 3:
                (lo, _), (hi, _) = _vertex_extremes(vertices, y)
                k = rng.choice([i for i, c in enumerate(x) if c])
                shift = (lo if trial % 3 == 1 else hi) * (1 if x[k] > 0 else -1)
                y = tuple(c - shift if i == k else c for i, c in enumerate(y))
            want = _listed_verdict(vertices, y)
            assert bj_orthogonal(space, x, y) == want, (space, x, y)
            ties += any(a == b == 0 for a, b in zip(x, y))
            ends = support_range(space, x, y)
            zero_ends += 0 in ends
            interpolated += ends[0] < 0 < ends[1]
    assert min(ties, zero_ends, interpolated) > 50, (ties, zero_ends, interpolated)


def test_preservation_verdicts_respected_by_direct_sampling(l1_3, linf_3, linf_2):
    # A "holds" verdict must survive any number of definition-level samples.
    stream = RationalStream(67)
    for space in (l1_3, linf_3, linf_2):
        for i in range(10):
            op = random_operator(space, stream)
            for j in range(3):
                x = stream.next_nonzero_vector(space.dim)
                report = preserves_bj_at(op, x)
                if report.holds:
                    sampled = preservation_sample_check(op, x, 50, 71 + i + j)
                    assert sampled.violations == ()


def test_vertex_directional_preservation_implies_level(l1_3, linf_3):
    # One-sided: preservation along any single vertex functional certifies a
    # level vector (the converse may need an interior functional).
    stream = RationalStream(73)
    for space in (l1_3, linf_3):
        for _ in range(15):
            op = random_operator(space, stream)
            x = stream.next_nonzero_vector(space.dim)
            if all(c == 0 for c in op(x)):
                continue
            sup = support_set(space, x)
            if any(
                preserves_bj_directional(op, x, f).holds for f in sup.vertices
            ):
                assert is_level_vector(op, x) is not None


def test_interior_functional_can_be_needed(l1_3):
    # diag(2,1,1) at e1: no vertex of J(e1) preserves directionally, yet the
    # level certificate exists through an interior functional.
    from bjlevel import diagonal_operator

    op = diagonal_operator(l1_3, [2, 1, 1])
    x = (F(1), F(0), F(0))
    sup = support_set(l1_3, x)
    assert not any(preserves_bj_directional(op, x, f).holds for f in sup.vertices)
    cert = is_level_vector(op, x)
    assert cert is not None
    assert cert.f not in sup.vertices


SMOOTH_IMAGE_BALLS = {
    **{f"l1^{n}": (lambda n=n: l1(n)) for n in range(2, 6)},
    **{f"linf^{n}": (lambda n=n: linf(n)) for n in range(2, 6)},
    "hexagon": lambda: polyhedral_space(HEXAGON_VERTICES),
    "cube-cross": lambda: polyhedral_space(cube_cross_vertices(3)),
    "sphere-2d": lambda: polyhedral_space(sphere_ball(random.Random(2), 2, 4)),
    "sphere-3d": lambda: polyhedral_space(sphere_ball(random.Random(3), 3, 5)),
}


def lp_level(op, x):
    """(f, g, k) from the level LP over the vertex coefficients of J(x) and
    J(Tx), posed as the library posed it for every point before the closed
    form: Tᵀ(sum mu_j q_j) = scale sum lambda_i p_i, sum lambda = sum mu = 1."""
    tx = op(x)
    scale = norm(op.codomain, tx) / norm(op.domain, x)
    p_verts = support_set(op.domain, x).vertices
    q_verts = support_set(op.codomain, tx).vertices
    adj = [mat_vec(transpose(op.matrix), q) for q in q_verts]
    np_, nq = len(p_verts), len(q_verts)
    rows = [[-scale * p[c] for p in p_verts] + [a[c] for a in adj] for c in range(op.domain.dim)]
    rows.append([F(1)] * np_ + [F(0)] * nq)
    rows.append([F(0)] * np_ + [F(1)] * nq)
    point = feasible_point(rows, [F(0)] * op.domain.dim + [F(1), F(1)])
    if point is None:
        return None
    lam, mu = point[:np_], point[np_:]
    f = tuple(sum(l * p[c] for l, p in zip(lam, p_verts)) for c in range(op.domain.dim))
    g = tuple(sum(m * q[c] for m, q in zip(mu, q_verts)) for c in range(op.codomain.dim))
    return f, g, norm_squared(op.codomain, tx) / norm_squared(op.domain, x)


def smooth_image_operators(space, seed):
    """A dense, a diagonal and a rank-deficient operator (the dense one with
    its last column zeroed), seeded."""
    stream = RationalStream(seed)
    n = space.dim
    dense = random_operator(space, stream)
    diag = [stream.next_int(4) + 1 for _ in range(n)]
    deficient = [row[:-1] + (F(0),) for row in random_operator(space, stream).matrix]
    return [
        dense,
        operator([[F(diag[r], 2) if c == r else 0 for c in range(n)] for r in range(n)], space),
        operator(deficient, space),
    ]


@pytest.mark.parametrize("name", sorted(SMOOTH_IMAGE_BALLS))
def test_closed_form_level_test_on_a_smooth_image_matches_the_lp(name):
    # With J(Tx) = {q} the level test is ||Tᵀq / scale||_* = 1, solved with no
    # LP; verdict and certificate must be the ones the LP gives.
    space = SMOOTH_IMAGE_BALLS[name]()
    rng = random.Random(name)
    points = [x for kind in probe_points(space, rng, digits=6) for x in kind]
    verdicts = set()
    for op in smooth_image_operators(space, sum(map(ord, name))):
        for x in points:
            tx = op(x)
            if all(c == 0 for c in tx) or len(support_set(space, tx).vertices) != 1:
                continue
            cert = is_level_vector(op, x)
            got = None if cert is None else (cert.f, cert.g, cert.level_number)
            assert got == lp_level(op, x)
            verdicts.add(got is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(SMOOTH_IMAGE_BALLS))
def test_dual_norm_is_the_largest_value_on_the_ball_vertices(name):
    space = SMOOTH_IMAGE_BALLS[name]()
    stream = RationalStream(len(name))
    polar = dual_space(space)  # l1 <-> linf, or the polar polytope
    for _ in range(25):
        f = stream.next_nonzero_vector(space.dim)
        value = dual_norm(space, f)
        assert value == max(dot(f, v) for v in ball_vertices(space)) == norm(polar, f)


def counterexample_lp_is_feasible(adj, f):
    """The LP that found counterexamples before the membership LP's Farkas
    vector did: f(y) = 0 and a.y >= 1 for every adjoint image a, with y
    split as u - w and one slack per image."""
    m = len(adj)
    rows = [list(f) + [-c for c in f] + [F(0)] * m]
    for j, a in enumerate(adj):
        rows.append(list(a) + [-c for c in a] + [F(-1) if i == j else F(0) for i in range(m)])
    return feasible_point(rows, [F(0)] + [F(1)] * m) is not None


def test_refutations_come_from_the_membership_separator(monkeypatch):
    # Each vertex f of J(x) is either a member (witness g) or separated by z;
    # the old counterexample LP is feasible exactly when it is separated, and
    # a refutation's y is checked by its definition and by the oracle.
    lp_calls = []
    solve = simplex.solve_standard_lp
    monkeypatch.setattr(simplex, "solve_standard_lp", lambda *a, **k: lp_calls.append(1) or solve(*a, **k))
    separators = set()
    for name in ["cube-cross", "hexagon", "l1^3", "l1^4", "linf^3", "linf^4"]:
        space = SMOOTH_IMAGE_BALLS[name]()
        rng = random.Random(name)
        points = [x for kind in probe_points(space, rng, digits=6) for x in kind]
        verdicts = set()
        for op in smooth_image_operators(space, 7 + sum(map(ord, name))):
            for x in points:
                tx = op(x)
                if all(c == 0 for c in tx):
                    continue
                scale = norm(space, tx) / norm(space, x)
                q_verts = support_set(space, tx).vertices
                adj = [mat_vec(transpose(op.matrix), q) for q in q_verts]
                point = levels._evaluate(op, x)
                separated = []
                for f in support_set(space, x).vertices:
                    target = tuple(scale * c for c in f)
                    g, z = levels._membership(point, *integer_point(f))
                    if z is None:
                        assert mat_vec(transpose(op.matrix), g) == target
                    else:
                        z = tuple(F(c, z[1]) for c in z[0])
                        assert g is None and all(dot(a, z) < dot(target, z) for a in adj)
                        separators.add("lp" if len(adj) > 1 else "one image")
                    assert counterexample_lp_is_feasible(adj, f) == (z is not None)
                    separated.append(z is not None)
                del lp_calls[:]
                report = preserves_bj_at(op, x)
                verdicts.add(report.holds)
                assert report.holds == (not any(separated))
                if report.holds:
                    continue
                visited = separated.index(True) + 1
                assert len(lp_calls) <= (0 if len(q_verts) == 1 else visited)
                f = report.failing_functional
                assert f == support_set(space, x).vertices[visited - 1]
                y, margin = report.counterexample
                assert dot(f, y) == 0
                assert margin == 1 == min(dot(g, op(y)) for g in q_verts)
                assert bj_orthogonal_oracle(space, x, y).orthogonal
                assert not bj_orthogonal_oracle(space, tx, op(y)).orthogonal
        assert verdicts == {True, False}, name
    assert separators == {"lp", "one image"}


def enumeration_cases():
    """(operator, samples) pairs for the integer path of enumeration.

    Domains: l1^n and linf^n for n = 2..4, the hexagon and a 3-D ball with
    non-integer rational vertices.  On each, an integer matrix, a rational
    one and a rank-deficient rational one whose kernel is {x_1 = 0}, so that
    probe points with x_1 = 0 have Tx = 0.  Then maps to other codomains:
    l1 -> linf, linf -> l1, into the hexagon and into the rational ball.
    """
    rng = random.Random(15)
    rational_ball = polyhedral_space(sphere_ball(rng, 3, 4))
    hexagon = polyhedral_space(HEXAGON_VERTICES)
    domains = [l1(n) for n in (2, 3, 4)] + [linf(n) for n in (2, 3, 4)] + [hexagon, rational_ball]
    stream = RationalStream(23)
    cases = []
    for space in domains:
        n = space.dim
        integer = [[stream.next_int(7) - 3 for _ in range(n)] for _ in range(n)]
        column = [stream.next_fraction() for _ in range(n)]
        deficient = [[column[r] if c == 0 else 0 for c in range(n)] for r in range(n)]
        cases += [operator(integer, space), random_operator(space, stream), operator(deficient, space)]
    for domain, codomain in [(l1(3), linf(2)), (linf(3), l1(4)), (linf(2), hexagon), (l1(2), rational_ball)]:
        rows = [[stream.next_fraction() for _ in range(domain.dim)] for _ in range(codomain.dim)]
        cases.append(operator(rows, domain, codomain))
    return cases


def test_enumerated_level_numbers_match_is_level_vector():
    # Enumeration reads Tx, ||Tx|| and J(Tx) from integers; every point it
    # reports must be a unit vector whose own level test gives its number.
    kinds = set()
    for seed, op in enumerate(enumeration_cases()):
        report = enumerate_level_numbers(op, 3, seed)
        found = set()
        for probe in report.per_face:
            for x, number in zip(probe.points, probe.level_numbers):
                assert norm(op.domain, x) == 1
                cert = is_level_vector(op, x)
                assert number == (None if cert is None else cert.level_number)
                if cert is not None:
                    found.add(number)
                kinds.add("miss" if cert is None else "zero" if number == 0 else "level")
        assert report.values == tuple(sorted(found))
    assert kinds == {"miss", "zero", "level"}


REVERIFY_CASES = {
    "l1^3": (lambda: l1(3), None),
    "l1^4": (lambda: l1(4), None),
    "linf^3": (lambda: linf(3), None),
    "linf^4": (lambda: linf(4), None),
    "hexagon": (lambda: polyhedral_space(HEXAGON_VERTICES), None),
    "cube-cross": (lambda: polyhedral_space(cube_cross_vertices(3)), None),
    "l1^3->linf^4": (lambda: l1(3), lambda: linf(4)),
}


def reverify_operators(domain, codomain, seed):
    """A dense rational, a dense integer, a rank-one and a diagonal operator,
    seeded; from l1^3 to linf^4 the last is the isometric embedding
    x -> (x1 + x2 + x3, x1 + x2 - x3, x1 - x2 + x3, x1 - x2 - x3) instead."""
    rng = random.Random(seed)
    m, n = codomain.dim, domain.dim
    u = [rng.choice((-2, -1, 1, 3)) for _ in range(m)]
    w = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    diag = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    return [
        operator([[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)], domain, codomain),
        operator([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], domain, codomain),
        operator([[a * b for b in w] for a in u], domain, codomain),
        operator([[diag[r] if c == r else 0 for c in range(n)] for r in range(m)], domain, codomain)
        if m == n
        else operator([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], domain, codomain),
    ]


def vertices_and_edge_midpoints(space, rng, count=10):
    """Up to ``count`` ball vertices and ``count`` edge midpoints, seeded."""
    verts = list(ball_vertices(space))
    midpoints = [face.centroid() for face in face_lattice(space) if face.dim == 1]
    return rng.sample(verts, min(count, len(verts))) + rng.sample(midpoints, min(count, len(midpoints)))


def test_integer_reverification_agrees_with_the_oracle():
    # Every refutation's (y, margin), re-verified in integers by the library,
    # must pass the definition-level oracle: x is orthogonal to y, Tx is not
    # orthogonal to Ty, and margin = min g(Ty) over J(Tx) = 1.
    kinds = set()
    for name, (make_domain, make_codomain) in REVERIFY_CASES.items():
        domain = make_domain()
        codomain = make_codomain() if make_codomain else domain
        rng = random.Random(name)
        verdicts = set()
        for op in reverify_operators(domain, codomain, sum(map(ord, name))):
            for x in vertices_and_edge_midpoints(domain, rng):
                report = preserves_bj_at(op, x)
                verdicts.add(report.holds)
                if report.holds:
                    continue
                y, margin = report.counterexample
                tx, ty = op(x), op(y)
                q_verts = support_set(codomain, tx).vertices
                kinds.add("one image" if len(q_verts) == 1 else "lp")
                assert dot(report.failing_functional, y) == 0
                assert margin == 1 == min(dot(g, ty) for g in q_verts)
                assert bj_orthogonal_oracle(domain, x, y).orthogonal
                assert not bj_orthogonal_oracle(codomain, tx, ty).orthogonal
        assert verdicts == {True, False}, name
    assert kinds == {"one image", "lp"}


def test_the_counterexample_check_refuses_a_flipped_or_boundary_y():
    # `_verified_margin` accepts a refutation's y and refuses -y (every g(Ty)
    # < 0), x itself (not orthogonal to x: the range of f(x) over J(x) read
    # on the point's face is all positive), and a y with f(y) = 0 = g(Ty),
    # orthogonal on both sides, which a non-strict comparison would accept.
    # At the vertices of l1^4 and l1^5, J(x) is a box of 2^(n-1) vertices.
    checked, boxes = 0, 0
    cases = [(name, REVERIFY_CASES[name][0](), 6) for name in ("l1^3", "linf^3", "cube-cross")]
    cases += [(f"l1^{n} vertices", l1(n), 0) for n in (4, 5)]
    for name, space, midpoints in cases:
        rng = random.Random(name)
        for op in reverify_operators(space, space, 5):
            points = vertices_and_edge_midpoints(space, rng, midpoints) if midpoints else ball_vertices(space)
            for x in points:
                report = preserves_bj_at(op, x)
                point = levels._evaluate(op, x)
                if report.holds or len(point.q_rows) != 1:
                    continue
                y, _ = report.counterexample
                assert levels._verified_margin(op.domain, point, y) == 1
                f, a = report.failing_functional, mat_vec(transpose(op.matrix), exact_ball(op.codomain).single(op.codomain, point.key[0]))
                boundary = kernel_basis([f, a])[0]
                assert dot(f, boundary) == 0 == dot(a, boundary)
                for wrong, reason in ((tuple(-c for c in y), "remained"), (x, "not orthogonal to x"), (boundary, "remained")):
                    with pytest.raises(InternalCheckError, match=reason):
                        levels._verified_margin(op.domain, point, wrong)
                checked += 1
                boxes += len(support_set(space, x).vertices) == 2 ** (space.dim - 1) > 4
    assert checked >= 10 and boxes >= 4, (checked, boxes)


def kernel_operators(space, rng):
    """Seeded operators on ``space`` keyed by kind: a dense one of rank n - 1,
    the same with row i divided by i + 2 (the lcm of all denominators then
    differs from each row's own), a diagonal one with one zero, one of rank
    n - 2 (a 2-D kernel, from n = 3) and an injective one.  Then maps onto a
    space of dimension n - 1 and of another kind (l1 onto l-inf, l-inf and
    polyhedral balls onto l1), of rank n - 1 and, from n = 3, n - 2.  A
    rank-r map is a product of random m x r and r x n integer matrices,
    redrawn until its kernel has dimension n - r."""
    n = space.dim

    def of_rank(r, m=n):
        while True:
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
            right = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(r)]
            rows = [[sum((a * right[k][c] for k, a in enumerate(row)), F(0)) for c in range(n)] for row in left]
            if len(kernel_basis(rows)) == n - r:
                return rows

    diag = [rng.choice((-3, -1, 1, 2)) for _ in range(n)]
    diag[rng.randrange(n)] = 0
    ops = {
        "dense rank n-1": operator(of_rank(n - 1), space),
        "rows over distinct denominators": operator(
            [[c / (i + 2) for c in row] for i, row in enumerate(of_rank(n - 1))], space
        ),
        "diagonal with a zero": operator([[diag[r] if c == r else 0 for c in range(n)] for r in range(n)], space),
        "injective": operator(of_rank(n), space),
    }
    codomain = linf(n - 1) if space.kind == "lp" and space.p == 1 else l1(n - 1)
    ops["onto n-1, rank n-1"] = operator(of_rank(n - 1, n - 1), space, codomain)
    if n >= 3:
        ops["2-D kernel"] = operator(of_rank(n - 2), space)
        ops["onto n-1, rank n-2"] = operator(of_rank(n - 2, n - 1), space, codomain)
    return ops


def kernel_probe_points(space, rng):
    """Two ball vertices, the centroid of one face of each dimension 1 .. n-1,
    and two generic points, each scaled by a positive rational."""
    faces = face_lattice(space)
    centroids = [rng.choice([f for f in faces if f.dim == k]).centroid() for k in range(1, space.dim)]
    generic = [tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(space.dim)) for _ in range(2)]
    points = rng.sample(list(ball_vertices(space)), 2) + centroids + [g for g in generic if any(g)]
    return [tuple(F(rng.randint(1, 9), rng.randint(1, 9)) * c for c in p) for p in points]


def kernel_condition_spaces():
    rng = random.Random(19)
    return (
        [l1(n) for n in range(2, 8)]
        + [linf(n) for n in range(2, 8)]
        + [
            polyhedral_space(HEXAGON_VERTICES),
            polyhedral_space(cube_cross_vertices(3)),
            polyhedral_space(sphere_ball(rng, 3, 4)),
        ]
    )


def test_kernel_condition_matches_the_subspace_lp_and_the_oracle():
    # On a 1-D kernel span(b) the condition is the closed-form interval
    # min f(b) <= 0 <= max f(b) over J(x); it must give the verdict of the
    # subspace LP and of the definition-level oracle.  2-D kernels take the
    # LP itself; injective maps and x in ker T pass.  Each probe point is
    # also given as floats, which convert exactly: the verdict is that of
    # the rational point they denote.
    verdicts = {"1-D": set(), "2-D": set(), "onto n-1": set(), "float": set()}
    zero_ends = 0
    for space in kernel_condition_spaces():
        rng = random.Random(repr(space))
        for kind, op in kernel_operators(space, rng).items():
            basis = kernel_basis(op.matrix)
            points = kernel_probe_points(space, rng)
            points += [tuple(float(c) for c in x) for x in points[::2]]
            if not basis:
                assert all(kernel_condition(op, x) for x in points), kind
                continue
            assert kernel_condition(op, basis[0])  # x in ker T
            for x in points:
                holds = kernel_condition(op, x)
                if all(c == 0 for c in op(vec(x))):
                    assert holds
                    continue
                assert holds == subspace_orthogonal(space, x, basis).orthogonal, (space, kind, x)
                if len(basis) == 1:
                    assert holds == bj_orthogonal_oracle(space, x, basis[0]).orthogonal, (space, kind, x)
                    zero_ends += 0 in support_range(space, x, basis[0])
                verdicts["1-D" if len(basis) == 1 else "2-D"].add(holds)
                if kind.startswith("onto"):
                    verdicts["onto n-1"].add(holds)
                if type(x[0]) is float:
                    verdicts["float"].add(holds)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
    assert zero_ends > 0


def test_kernel_condition_holds_when_an_end_of_the_interval_is_zero():
    # l1^3, x = e1, ker T = span(e1 - e2): J(e1) = {(1, s, t)}, so
    # f(e1 - e2) = 1 - s ranges over [0, 2] and x is orthogonal to the kernel
    # only through f = (1, 1, t).  A strict comparison at that end would
    # refuse it.
    space = l1(3)
    op = operator([[1, 1, 0], [0, 0, 1], [0, 0, 0]], space)
    e1 = (F(1), F(0), F(0))
    b = (F(-1), F(1), F(0))
    assert kernel_basis(op.matrix) == [b]
    assert support_range(space, e1, b) == (-2, 0)
    assert support_range(space, e1, tuple(-c for c in b)) == (0, 2)
    assert kernel_condition(op, e1)
    assert subspace_orthogonal(space, e1, [b]).orthogonal
    assert bj_orthogonal_oracle(space, e1, b).orthogonal
    # l-inf^3 at (1, 1, 0) with ker T = span(e1 + e3): J = conv{e1, e2}, so
    # f(b) ranges over [0, 1].
    space = linf(3)
    op = operator([[1, 0, -1], [0, 1, 0], [0, 0, 0]], space)
    x = (F(1), F(1), F(0))
    b = (F(1), F(0), F(1))
    assert kernel_basis(op.matrix) == [b]
    assert support_range(space, x, b) == (0, 1)
    assert kernel_condition(op, x)
    assert subspace_orthogonal(space, x, [b]).orthogonal


def _member(op, scale, f, q_verts):
    """scale f in conv(T^T g) over a listed vertex list of J(Tx), decided by
    feasibility of the convex weights in Fractions."""
    adj = [mat_vec(transpose(op.matrix), g) for g in q_verts]
    rows = [[a[c] for a in adj] for c in range(op.domain.dim)] + [[F(1)] * len(adj)]
    return feasible_point(rows, [scale * c for c in f] + [F(1)]) is not None


def test_single_point_decisions_equal_the_fraction_vertex_reference():
    # The integer single-point path against references taken over the listed
    # vertices of J(x) and J(Tx) in Fractions: bj_orthogonal's verdict,
    # witness and margin, the level verdict and number (the level LP),
    # preservation's verdict and first failing vertex, and directional
    # preservation (the membership LP).  On l1^3..9, linf^3..9, the hexagon
    # and the 14-vertex ball, at vertices, facet centroids and generic
    # points; the LP references run where J(x) and J(Tx) stay small.
    rng = random.Random(28)
    balls = [l1(n) for n in range(3, 10)] + [linf(n) for n in range(3, 10)]
    balls += [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))]
    sizes = set()
    for space in balls:
        stream = RationalStream(space.dim)
        ops = [random_operator(space, stream), operator([[F(rng.randint(-1, 2)) if r == c else 0 for c in range(space.dim)] for r in range(space.dim)], space)]
        for kind in probe_points(space, rng, digits=3):
            for x in rng.sample(kind, min(2, len(kind))):
                vertices = support_set(space, x).vertices
                for y in (stream.next_nonzero_vector(space.dim), tuple(F(rng.randint(-1, 1)) for _ in range(space.dim))):
                    if any(y):
                        assert bj_orthogonal(space, x, y) == _listed_verdict(vertices, y), (space, x, y)
                for op in ops:
                    tx = op(x)
                    if not any(tx) or len(vertices) > 16:
                        continue
                    q_verts = support_set(space, tx).vertices
                    if len(q_verts) > 16:
                        continue
                    sizes.add(min(len(q_verts), 3))
                    scale = norm(space, tx) / norm(space, x)
                    cert, lp = is_level_vector(op, x), lp_level(op, x)
                    assert (cert is None) == (lp is None) and (cert is None or cert.level_number == lp[2]), (op, x)
                    failing = next((f for f in vertices if not _member(op, scale, f, q_verts)), None)
                    report = preserves_bj_at(op, x)
                    assert (report.holds, report.failing_functional) == (failing is None, failing), (op, x)
                    f = vertices[0]
                    assert preserves_bj_directional(op, x, f).holds == _member(op, scale, f, q_verts)
    assert sizes == {1, 2, 3}


def _twin_balls():
    """(l1^n, the vertex ball of the cross-polytope) and (l-inf^n, the vertex
    ball of the cube) for n = 2..4: each unit ball in closed form and as a
    general vertex list, built here from signed units and sign vectors."""
    for n in (2, 3, 4):
        cross = [tuple(F(s) if k == i else F(0) for k in range(n)) for i in range(n) for s in (1, -1)]
        cube = [tuple(map(F, signs)) for signs in itertools.product((1, -1), repeat=n)]
        yield l1(n), polyhedral_space(cross)
        yield linf(n), polyhedral_space(cube)


def _twin_points(space, rng):
    """Ball vertices and edge midpoints, points with zero entries and generic
    points, each scaled by a positive rational, seeded."""
    n = space.dim
    points = vertices_and_edge_midpoints(space, rng, 6)
    for zeros in range(1, n):
        point = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(n)]
        for k in rng.sample(range(n), zeros):
            point[k] = F(0)
        points.append(tuple(point))
    points += [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)) for _ in range(3)]
    scales = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in points]
    return [tuple(t * c for c in p) for t, p in zip(scales, points) if any(p)]


def _twin_matrices(n, rng):
    """Seeded integer matrices: dense, of rank at most n - 1 and, from n = 3,
    n - 2 (a kernel section of dimension 2 has a census of its own),
    diagonal with a zero, and a signed permutation."""

    def of_rank(r):
        left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        return [[sum(a * right[k][c] for k, a in enumerate(row)) for c in range(n)] for row in left]

    dense = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    diagonal = [[rng.choice((-2, -1, 1, 3)) if c == r else 0 for c in range(n)] for r in range(n)]
    diagonal[rng.randrange(n)] = [0] * n
    order = rng.sample(range(n), n)
    permutation = [[rng.choice((-1, 1)) if c == order[r] else 0 for c in range(n)] for r in range(n)]
    return [dense, of_rank(n - 1), *([of_rank(n - 2)] if n >= 3 else []), diagonal, permutation]


@pytest.mark.parametrize("closed, general", list(_twin_balls()), ids=lambda s: repr(s))
def test_twin_balls_agree(closed, general):
    # l1^n and l-inf^n against the general vertex ball of the same unit ball:
    # the closed-form ball objects and the vertex ball must give equal
    # norms, dual norms, support sets, smoothness, Birkhoff-James extremes
    # and verdicts, level certificates, preservation reports, kernel
    # conditions and face-count bounds, and every certificate, witness and
    # counterexample must verify.
    rng = random.Random(repr(closed))
    points = _twin_points(closed, rng)
    seen = set()
    for x in points:
        assert norm(closed, x) == norm(general, x)
        assert dual_norm(closed, x) == dual_norm(general, x)
        assert support_set(closed, x).vertices == support_set(general, x).vertices
        assert is_smooth(closed, x) == is_smooth(general, x)
        for y in rng.sample(points, 4):
            assert support_extremes(closed, x, y) == support_extremes(general, x, y)
            verdict = bj_orthogonal(closed, x, y)
            assert verdict == bj_orthogonal(general, x, y)
            if verdict.orthogonal:
                assert functional_in_support(closed, x, verdict.witness) and dot(verdict.witness, y) == 0
            seen.add(("orthogonal", verdict.orthogonal))
    for matrix in _twin_matrices(closed.dim, rng):
        a, b = operator(matrix, closed), operator(matrix, general)
        assert level_count_bound(closed, a) == level_count_bound(general, b)
        for x in points:
            cert = is_level_vector(a, x)
            assert cert == is_level_vector(b, x)
            if cert is not None and cert.f is not None:
                certificate_is_sound(b, cert)
            seen.add(("level", cert is not None))
            report = preserves_bj_at(a, x)
            assert report == preserves_bj_at(b, x)
            if not report.holds:
                y, margin = report.counterexample
                tx, ty = b(x), b(y)
                assert dot(report.failing_functional, y) == 0 and bj_orthogonal_oracle(general, x, y).orthogonal
                assert not bj_orthogonal_oracle(general, tx, ty).orthogonal
                assert margin == min(dot(g, ty) for g in support_set(general, tx).vertices) > 0
            seen.add(("preserves", report.holds))
            assert kernel_condition(a, x) == kernel_condition(b, x)
    assert seen == {(kind, verdict) for kind in ("orthogonal", "level", "preserves") for verdict in (True, False)}
