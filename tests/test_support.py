"""Supporting-functional sets: examples, smoothness, homogeneity."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from bjlevel import (
    DimensionMismatch,
    InputError,
    RationalStream,
    dual_norm,
    dual_space,
    eval_range,
    is_smooth,
    l1,
    l2,
    linf,
    lp_space,
    norm,
    polar_vertices,
    polyhedral_space,
    support_range,
    support_set,
)
from bjlevel.linalg import dot, unit
from bjlevel.spaces import _cross_polytope_vertices, _polar_rows
from bjlevel.support import _face_extremes, _face_rows, _integer_key, _row_vertex, functional_in_support

from ._util import HEXAGON_VERTICES, cube_cross_vertices, probe_points, sphere_ball, v

F = Fraction


def test_l1_support_at_basis_vector(l1_3):
    sup = support_set(l1_3, v("1,0,0"))
    assert set(sup.vertices) == {
        (F(1), F(1), F(1)),
        (F(1), F(1), F(-1)),
        (F(1), F(-1), F(1)),
        (F(1), F(-1), F(-1)),
    }
    assert sup.mode == "exact"


def test_linf_smooth_point(linf_3):
    sup = support_set(linf_3, v("1,1/2,0"))
    assert sup.vertices == ((F(1), F(0), F(0)),)
    assert is_smooth(linf_3, v("1,1/2,0"))


def test_linf_edge_point_two_vertices(linf_3):
    sup = support_set(linf_3, v("1,1,0"))
    assert set(sup.vertices) == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}
    assert not is_smooth(linf_3, v("1,1,0"))


def test_l2_always_smooth(l2_3):
    assert is_smooth(l2_3, v("1,2,-3"))
    sup = support_set(l2_3, v("3,0,4"))
    assert sup.mode == "float"
    assert sup.vertices[0] == pytest.approx((0.6, 0.0, 0.8))


def smoothness_spaces():
    rng = random.Random(31)
    return (
        [l1(n) for n in (2, 3, 5, 8)]
        + [linf(n) for n in (2, 3, 5, 8)]
        + [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))]
        + [polyhedral_space(sphere_ball(rng, 3, 5))]
    )


def seeded_points(space, rng, count=40):
    """Points with small entries, so that zeros and ties in size are common,
    and on polyhedral balls the probe points (vertices, facet interiors,
    generic points)."""
    points = [tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(space.dim)) for _ in range(count)]
    if space.kind == "polyhedral":
        points += [p for group in probe_points(space, rng, digits=6) for p in group]
    return [p for p in points if any(p)]


def test_is_smooth_is_a_singleton_support_set():
    # is_smooth reads zeros, ties or attaining facets from x; it must agree
    # with the size of the listed J(x), and both answers must occur.
    for space in smoothness_spaces():
        rng = random.Random(repr(space))
        answers = set()
        for x in seeded_points(space, rng):
            smooth = is_smooth(space, x)
            assert smooth == (len(support_set(space, x).vertices) == 1), (space, x)
            answers.add(smooth)
        assert answers == {True, False}, space
    for space in (l2(3), lp_space(3, 3)):
        assert is_smooth(space, v("1,0,0")) and is_smooth(space, v("1,-1,2"))


def test_is_smooth_rejects_zero_and_a_wrong_dimension(l1_3, linf_3, hexagon):
    for space in (l1_3, linf_3, hexagon):
        with pytest.raises(InputError):
            is_smooth(space, (F(0),) * space.dim)
        with pytest.raises(DimensionMismatch):
            is_smooth(space, v("1,0,0,0"))


def test_support_range_is_the_range_over_the_support_vertices():
    # The closed-form range on l1 and l-inf, and the polar-scan range on
    # polyhedral balls, equal min/max of f(y) over the listed J(x).  On l1^n
    # up to n = 10 most entries of x are 0, so J(x) has up to 2^9 vertices.
    rng = random.Random(41)
    spaces = [l1(n) for n in (2, 3, 6, 10)] + [linf(n) for n in (2, 3, 6, 10)] + smoothness_spaces()[-3:]
    for space in spaces:
        n = space.dim
        for x in seeded_points(space, rng, 15):
            if space.kind == "lp" and space.p == 1:
                keep = set(rng.sample(range(n), rng.randint(1, 2)))
                x = tuple(c if i in keep else F(0) for i, c in enumerate(x)) if any(x[i] for i in keep) else x
            sup = support_set(space, x)
            for _ in range(3):
                y = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
                lo, hi = eval_range(sup, y)
                assert support_range(space, x, y) == (lo, hi), (space, x, y)
                assert support_range(space, x, tuple(-c for c in y)) == (-hi, -lo)
            assert support_range(space, x, x) == (norm(space, x), norm(space, x))


def test_support_range_reads_float_input_on_an_exact_space_in_rationals():
    # 1e16 + 1 + 1 rounds to 1e16 in floats; in rationals the lower end is 2.
    x, y = (1.0, 1.0, 1.0, 0.0), (1e16, 1.0, 1.0, 1e16)
    lo, hi = support_range(l1(4), x, y)
    assert (lo, hi) == (2, 2 * 10**16 + 2)
    assert type(lo) is type(hi) is F


def test_eval_range_reads_float_input_on_an_exact_space_in_rationals():
    # The same y against the vertex list of J(x): in floats the range read
    # (0.0, 2e16).
    x, y = (1.0, 1.0, 1.0, 0.0), (1e16, 1.0, 1.0, 1e16)
    lo, hi = eval_range(support_set(l1(4), x), y)
    assert (lo, hi) == (2, 2 * 10**16 + 2)
    assert type(lo) is type(hi) is F


def test_support_range_rejects_zero_a_wrong_dimension_and_a_float_space(l1_3, linf_3, hexagon, l2_3):
    with pytest.raises(InputError, match="polyhedral"):
        support_range(l2_3, v("3,0,4"), v("1,1,1"))
    for space in (l1_3, linf_3, hexagon):
        with pytest.raises(InputError):
            support_range(space, (F(0),) * space.dim, v("1,0,0")[: space.dim])
        with pytest.raises(DimensionMismatch):
            support_range(space, v("1,0,0")[: space.dim], v("1,0,0,0"))


def test_lp_gradient_functional_norms(l3_3):
    x = v("1,-2,3")
    f = support_set(l3_3, x).vertices[0]
    fx = sum(fc * float(xc) for fc, xc in zip(f, x))
    assert fx == pytest.approx(float(norm(l3_3, x)), rel=1e-12)
    assert dual_norm(l3_3, tuple(F(c).limit_denominator(10**12) for c in f)) == pytest.approx(
        1.0, rel=1e-9
    )


def test_support_rejects_zero(l1_3):
    with pytest.raises(InputError):
        support_set(l1_3, v("0,0,0"))


def test_eval_range_examples(l1_3, linf_3):
    sup = support_set(l1_3, v("1,0,0"))
    assert eval_range(sup, v("1/2,1/2,0")) == (0, 1)
    assert eval_range(sup, v("0,0,0")) == (0, 0)
    sup2 = support_set(linf_3, v("1,1,0"))
    assert eval_range(sup2, v("1,1,0")) == (1, 1)


def test_eval_range_rejects_a_wrong_dimension(l1_3):
    with pytest.raises(DimensionMismatch):
        eval_range(support_set(l1_3, v("1,0,0")), v("1,0"))


def test_vertices_are_supporting_and_unit(l1_3, linf_3, hexagon):
    stream = RationalStream(3)
    for space in (l1_3, linf_3, hexagon):
        for _ in range(25):
            x = stream.next_nonzero_vector(space.dim)
            sup = support_set(space, x)
            nx = norm(space, x)
            for f in sup.vertices:
                assert sum(fc * xc for fc, xc in zip(f, x)) == nx
                assert dual_norm(space, f) == 1


def test_dual_norm_bound_on_random_vectors(l1_3, linf_3, hexagon):
    stream = RationalStream(9)
    for space in (l1_3, linf_3, hexagon):
        x = stream.next_nonzero_vector(space.dim)
        sup = support_set(space, x)
        for _ in range(100):
            y = stream.next_nonzero_vector(space.dim)
            lo, hi = eval_range(sup, y)
            assert max(abs(lo), abs(hi)) <= norm(space, y)


def test_homogeneity_of_support(l1_3, linf_3, hexagon):
    stream = RationalStream(13)
    for space in (l1_3, linf_3, hexagon):
        for _ in range(30):
            x = stream.next_nonzero_vector(space.dim)
            sup = set(support_set(space, x).vertices)
            alpha = abs(stream.next_fraction()) + F(1, 7)
            assert set(support_set(space, tuple(alpha * c for c in x)).vertices) == sup
            negated = {tuple(-c for c in f) for f in sup}
            assert set(support_set(space, tuple(-c for c in x)).vertices) == negated


def test_support_vertices_irredundant(l1_3, linf_3, hexagon):
    # No vertex of J(x) is a convex combination of the others: they are
    # extreme points of the dual ball, so pairwise distinct suffices plus
    # extremality inherited from the dual ball itself.
    from bjlevel import dual_ball_vertices

    stream = RationalStream(29)
    for space in (l1_3, linf_3, hexagon):
        duals = set(dual_ball_vertices(space))
        for _ in range(20):
            x = stream.next_nonzero_vector(space.dim)
            verts = support_set(space, x).vertices
            assert len(set(verts)) == len(verts)
            assert set(verts) <= duals


def tight_facets(space, x):
    """J(x) by definition: the polar facets f with f(x) = max over the polar."""
    facets = polar_vertices(space)
    value = max(dot(f, x) for f in facets)
    return tuple(sorted(f for f in facets if dot(f, x) == value))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_integer_support_sets_are_the_tight_facets(dim):
    rng = random.Random(20 + dim)
    space = polyhedral_space(sphere_ball(rng, dim, dim + 1))
    duals = (dual_space(space),) if dim < 5 else ()  # the 5-D dual's 52 vertices are past the scan's guard
    for s in (space, *duals):
        vertices, interiors, generic = probe_points(s, rng)
        for x in vertices + interiors + generic:
            sup = support_set(s, x).vertices
            assert sup == tight_facets(s, x)
            # Membership reads the dual norm, so it needs the dual's facets.
            assert not duals or all(functional_in_support(s, x, f) for f in sup)
        assert all(len(support_set(s, x).vertices) >= dim for x in vertices)
        assert all(len(support_set(s, x).vertices) == 1 for x in interiors)


def test_support_sets_take_int_and_float_entries():
    space = polyhedral_space(sphere_ball(random.Random(8), 3, 5))
    for x in [(1, 0, -2), (0.1, -0.75, 3.0), (1, F(1, 3), 0.5)]:
        exact = tuple(F(c) for c in x)
        assert support_set(space, x).vertices == support_set(space, exact).vertices == tight_facets(space, exact)


def test_support_membership_decides_float_functionals_in_rationals():
    # f = (1.0, 1 - 2^-53) has f(x) = 2 - 2^-53 at x = (1, 1) on l1(2), not
    # ||x|| = 2, though the float sum rounds to 2.0: it is not in J(x), as
    # the same f in Fractions is not.
    space, x = l1(2), (1, 1)
    f = (1.0, 1.0 - 2.0**-53)
    assert not functional_in_support(space, x, f)
    assert not functional_in_support(space, x, tuple(F(c) for c in f))
    assert functional_in_support(space, (1.0, 1.0), (1.0, 1.0))


def test_l1_support_vertices_are_pinned_sign_patterns_with_shared_entries():
    for x in [v("1,0,0"), v("0,-2,0,3"), v("0,0,0,0,1/2"), v("-1,1")]:
        n = len(x)
        expected = tuple(
            f
            for f in itertools.product((F(1), F(-1)), repeat=n)
            if all(fc == (c > 0) - (c < 0) for fc, c in zip(f, x) if c != 0)
        )
        sup = support_set(l1(n), x).vertices
        assert sup == tuple(sorted(expected))
        assert len({id(c) for f in sup for c in f}) == 2


def test_linf_support_vertices_are_the_shared_cross_polytope_tuples():
    # J(x) on l-inf^n is the signed unit vectors at the entries of largest
    # size: the process-wide dual-ball tuples themselves, in sorted order,
    # for Fraction and for int entries alike.
    for x in [v("1,0,0"), v("-2,2,1"), v("1/2,-1/2,-1/2,1/2"), v("0,0,-3"), (3, -3, 1, 0)]:
        n = len(x)
        top = max(abs(c) for c in x)
        expected = sorted(unit(n, i, (c > 0) - (c < 0)) for i, c in enumerate(x) if abs(c) == top)
        sup = support_set(linf(n), x).vertices
        assert sup == tuple(expected)
        cross = _cross_polytope_vertices(n)
        assert all(any(f is g for g in cross) for f in sup)


@pytest.mark.parametrize(
    "make_space",
    [lambda: l1(3), lambda: linf(4), lambda: polyhedral_space(sphere_ball(random.Random(3), 3, 5))],
    ids=["l1^3", "linf^4", "sphere-ball"],
)
def test_integer_norm_and_support_match_the_fraction_entry(make_space):
    # x = q / s read from the integer vector q gives ||x|| and J(x) as the
    # Fraction entries do: J(x) as the integer rows of its face, in order.
    space = make_space()
    rng = random.Random(space.dim)
    for _ in range(40):
        q = tuple(rng.randint(-3, 3) for _ in range(space.dim))
        if not any(q):
            continue
        s = rng.randint(1, 12)
        x = tuple(F(c, s) for c in q)
        face, n, d = _integer_key(space, q, s)
        scale, rows = _face_rows(space, face)
        vertices = tuple(_row_vertex(space, scale, row) for row in rows)
        assert (F(n, d), vertices) == (norm(space, x), support_set(space, x).vertices)


@pytest.mark.parametrize(
    "make_space",
    [
        lambda: l1(3),
        lambda: linf(4),
        lambda: polyhedral_space(HEXAGON_VERTICES),
        lambda: polyhedral_space(cube_cross_vertices(3)),
        lambda: polyhedral_space(sphere_ball(random.Random(8), 3, 5, scale=40)),
    ],
    ids=["l1^3", "linf^4", "hexagon", "cube+2cross", "sphere-ball"],
)
def test_integer_key_neither_merges_nor_splits_norm_and_support_set(make_space):
    # Two points have equal `_integer_key` exactly when they have equal
    # ||x|| and J(x).  Each q comes with -q, with each entry's sign flipped,
    # with 2q, and over s and 2s, so that J(x) repeats at other norms and
    # the norm repeats with other J(x).
    space = make_space()
    rng = random.Random(space.dim)
    points = set()
    for _ in range(25):
        q = tuple(rng.randint(-3, 3) for _ in range(space.dim))
        if not any(q):
            continue
        s = rng.randint(1, 6)
        flips = [tuple(-c if j == i else c for j, c in enumerate(q)) for i in range(space.dim)]
        for variant in (q, tuple(-c for c in q), tuple(2 * c for c in q), *flips):
            points.update(((variant, s), (variant, 2 * s)))
    by_key, by_pair = {}, {}
    for q, s in points:
        key = _integer_key(space, q, s)
        face, n, d = key
        assert all(type(c) is int for c in (*face, n, d)) and d > 0 and math.gcd(n, d) == 1
        x = tuple(F(c, s) for c in q)
        pair = (norm(space, x), support_set(space, x).vertices)
        assert by_key.setdefault(key, pair) == pair, "the key merges two classes"
        assert by_pair.setdefault(pair, key) == key, "the key splits a class"
    supports = [j for _, j in by_pair]
    norms = [n for n, _ in by_pair]
    assert len(set(supports)) < len(by_pair) and len(set(norms)) < len(by_pair)


def _integer_range(space, q, v):
    """The ends of the integer reader on the face of q (`_face_extremes`)."""
    _, (lo, _), (hi, _) = _face_extremes(space, _integer_key(space, q, 1)[0], v)
    return lo, hi


@pytest.mark.parametrize(
    "make_space, zero_ends_seen",
    [
        (lambda: l1(4), True),
        (lambda: linf(4), True),
        (lambda: polyhedral_space(HEXAGON_VERTICES), True),
        (lambda: polyhedral_space(cube_cross_vertices(3)), True),
        (lambda: polyhedral_space(sphere_ball(random.Random(8), 3, 5, scale=40)), False),
    ],
    ids=["l1^4", "linf^4", "hexagon", "cube+2cross", "sphere-ball"],
)
def test_integer_range_is_the_support_range_times_the_polar_lcm(make_space, zero_ends_seen):
    # The kernel condition's integer reader gives the range of f(v) over
    # J(q) scaled by D, the lcm of the polar facets' denominators on a
    # polyhedral ball and 1 on l1 and l-inf: the same signs, and so the same
    # verdict lo <= 0 <= hi.  Small entries make zeros and ties in q, so J(q)
    # is often a face of several vertices, and ends at 0 occur but on the
    # sphere ball, whose facets are in general position.
    space = make_space()
    scale = _polar_rows(space)[1] if space.kind == "polyhedral" else 1
    rng = random.Random(repr(space))
    zero_ends = 0
    for _ in range(60):
        q = tuple(rng.randint(-2, 2) for _ in range(space.dim))
        if not any(q):
            continue
        v = tuple(rng.randint(-3, 3) for _ in range(space.dim))
        lo, hi = support_range(space, tuple(F(c) for c in q), tuple(F(c) for c in v))
        assert _integer_range(space, q, v) == (scale * lo, scale * hi), (q, v)
        assert _integer_range(space, tuple(3 * c for c in q), v) == (scale * lo, scale * hi)
        zero_ends += 0 in (lo, hi) and lo != hi
    assert zero_ends > 0 or not zero_ends_seen
