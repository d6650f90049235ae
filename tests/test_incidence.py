"""Ball validation and face supports read from one facet-incidence table.

Validation decides extremality from facet incidence; the LP definition (v is
extreme iff v is not a convex combination of the other listed points) stays
here as the oracle.  Face supports are checked against direct evaluation of
every dual vertex on the face's vertices.  The table itself, which solves one
subset per antipodal pair and tests each solution in integers, is checked
against a scan of every n-subset over Fractions, also on points with
denominators of 10^6 and more and on points 10^-40 off a facet.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from bjlevel import (
    InputError,
    ball_vertices,
    dual_ball_vertices,
    face_lattice,
    l1,
    linf,
    polar_vertices,
    polyhedral_space,
)
from bjlevel.linalg import dot, integer_point, kernel_basis, solve_square
from bjlevel import spaces
from bjlevel.spaces import _facet_incidence, _max_polar_subsets

from ._util import cube_cross_vertices, feasible_point, fraction_solve, sphere_ball

F = Fraction


def first_non_extreme_by_lp(verts):
    """First listed point in conv(other listed points), by one LP per point."""
    for idx, v in enumerate(verts):
        others = [w for j, w in enumerate(verts) if j != idx]
        rows = [[w[k] for w in others] for k in range(len(v))]
        rows.append([F(1)] * len(others))
        if feasible_point(rows, list(v) + [F(1)]) is not None:
            return v
    return None


def validation_verdict(verts):
    """None when the ball is accepted, else the vertex the error names."""
    try:
        polyhedral_space(verts)
    except InputError as exc:
        assert exc.code == "bad_ball"
        for v in verts:
            if str(exc) == f"listed vertex {v} is not an extreme point":
                return v
        raise AssertionError(f"unexpected rejection: {exc}")
    return None


def planted_ball(seed, dim, kind):
    """A seeded ball with one non-extreme pair +-p inserted at random places."""
    rng = random.Random(seed)
    verts = sphere_ball(rng, dim, dim + 1)
    faces = face_lattice(polyhedral_space(verts))
    if kind == "edge":
        edge = rng.choice([f for f in faces if f.dim == 1])
        p = tuple((a + b) / 2 for a, b in zip(*edge.vertices))
    elif kind == "facet":
        p = rng.choice([f for f in faces if f.dim == dim - 1]).centroid()
    else:
        p = tuple(c / 2 for c in rng.choice(verts))
    for point in (p, tuple(-c for c in p)):
        verts.insert(rng.randrange(len(verts) + 1), point)
    return verts, p


def test_cube_cross_ball_is_accepted_as_lp_decides():
    verts = cube_cross_vertices()
    assert first_non_extreme_by_lp(verts) is None
    assert validation_verdict(verts) is None


def test_cube_cross_ball_with_non_extreme_cube_is_rejected_as_lp_decides():
    # With 3 * cross the cube vertices (l1 norm 3) lie on the octahedron's faces.
    verts = cube_cross_vertices()[:8] + [tuple(3 * c / 2 for c in w) for w in cube_cross_vertices()[8:]]
    expected = first_non_extreme_by_lp(verts)
    assert expected == verts[0]
    assert validation_verdict(verts) == expected


@pytest.mark.parametrize("space", [l1(3), linf(3)], ids=["l1_3", "linf_3"])
def test_lp_balls_as_vertex_lists_are_accepted(space):
    verts = list(ball_vertices(space))
    assert first_non_extreme_by_lp(verts) is None
    assert validation_verdict(verts) is None


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("kind", ["edge", "facet", "half-vertex"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_non_extreme_pair_is_named_as_lp_decides(seed, dim, kind):
    verts, p = planted_ball(seed, dim, kind)
    expected = first_non_extreme_by_lp(verts)
    assert expected in (p, tuple(-c for c in p))
    assert validation_verdict(verts) == expected


SUPPORT_BALLS = {
    "cube-cross": cube_cross_vertices,
    "l1_3": lambda: ball_vertices(l1(3)),
    "linf_3": lambda: ball_vertices(linf(3)),
    "sphere-3d-seed-1": lambda: sphere_ball(random.Random(1), 3, 4),
    "sphere-3d-seed-2": lambda: sphere_ball(random.Random(2), 3, 4),
    "sphere-4d-seed-1": lambda: sphere_ball(random.Random(1), 4, 5),
    "sphere-4d-seed-2": lambda: sphere_ball(random.Random(2), 4, 5),
}


@pytest.mark.parametrize("name", SUPPORT_BALLS)
def test_face_supports_are_the_dual_vertices_tight_on_the_face(name):
    space = polyhedral_space(SUPPORT_BALLS[name]())
    duals = polar_vertices(space)
    for face in face_lattice(space):
        expected = tuple(sorted(f for f in duals if all(dot(f, v) == 1 for v in face.vertices)))
        assert face.supporting == expected


def full_scan(points):
    """Facets with their tight index sets, by solving every n-subset."""
    n = len(points[0])
    found = {}
    for subset in itertools.combinations(points, n):
        f = fraction_solve(subset, (F(1),) * n)
        if f is not None and f not in found and all(dot(f, p) <= 1 for p in points):
            found[f] = frozenset(i for i, p in enumerate(points) if dot(f, p) == 1)
    return tuple(sorted(found.items()))


def section_rows(space, diagonal):
    """The constraint rows of the kernel section of diag(diagonal) on space."""
    n = len(diagonal)
    basis = kernel_basis(tuple(tuple(F(d) if i == j else F(0) for j in range(n)) for i, d in enumerate(diagonal)))
    rows = sorted({tuple(dot(phi, b) for b in basis) for phi in dual_ball_vertices(space)})
    return [r for r in rows if any(c != 0 for c in r)]


INCIDENCE_INPUTS = {
    **{
        f"sphere-{dim}d-{2 * pairs}-seed-{seed}": lambda dim=dim, pairs=pairs, seed=seed: sphere_ball(
            random.Random(seed), dim, pairs
        )
        for dim, pairs, seed in [(2, 4, 1), (2, 14, 2), (3, 4, 3), (3, 8, 4), (3, 14, 5), (4, 5, 6), (4, 6, 7), (4, 8, 8)]
    },
    **{f"l1_{n}": (lambda n=n: ball_vertices(l1(n))) for n in range(1, 6)},
    **{f"linf_{n}": (lambda n=n: ball_vertices(linf(n))) for n in range(1, 5)},
    "cube-cross": cube_cross_vertices,
    "planted-edge-pair-3d": lambda: planted_ball(1, 3, "edge")[0],
    "planted-edge-pair-4d": lambda: planted_ball(2, 4, "edge")[0],
    "section-linf_3-diag110": lambda: section_rows(linf(3), [1, 1, 0]),
    "section-linf_3-diag100": lambda: section_rows(linf(3), [1, 0, 0]),
    "section-l1_4-diag1100": lambda: section_rows(l1(4), [1, 1, 0, 0]),
    "section-cube-cross-diag100": lambda: section_rows(polyhedral_space(cube_cross_vertices()), [1, 0, 0]),
}


@pytest.mark.parametrize("name", INCIDENCE_INPUTS)
def test_symmetric_scan_equals_the_full_scan(name):
    points = tuple(INCIDENCE_INPUTS[name]())
    assert _facet_incidence.__wrapped__(points) == full_scan(points)


@pytest.mark.parametrize("seed, dim, pairs", [(9, 3, 8), (10, 4, 5)])
def test_large_denominator_scan_equals_the_full_scan(seed, dim, pairs):
    points = tuple(sphere_ball(random.Random(seed), dim, pairs, scale=500))
    assert max(c.denominator for p in points for c in p) >= 10**6
    assert _facet_incidence.__wrapped__(points) == full_scan(points)


def planted_far_pair(seed, dim, where):
    """A sphere ball, one of its facets f, and +-p planted at the end of the
    list, where p has denominators of 40 digits or more and lies on f, just
    inside f's centroid or just outside it."""
    rng = random.Random(seed)
    verts = sphere_ball(rng, dim, dim + 2)
    f, tight = rng.choice(_facet_incidence.__wrapped__(tuple(verts)))
    corners = [verts[i] for i in sorted(tight)]
    if where == "on":
        weights = [F(rng.randint(1, 10**40)) for _ in corners]
        p = tuple(sum(w * c[k] for w, c in zip(weights, corners)) / sum(weights) for k in range(dim))
    else:
        factor = 1 + F(1, 10**40) if where == "outside" else 1 - F(1, 10**40)
        p = tuple(factor * sum(c[k] for c in corners) / len(corners) for k in range(dim))
    return verts + [p, tuple(-c for c in p)], f


@pytest.mark.parametrize("where", ["on", "inside", "outside"])
@pytest.mark.parametrize("seed, dim", [(12, 3), (13, 4)])
def test_integer_validity_and_incidence_are_exact(seed, dim, where):
    verts, f = planted_far_pair(seed, dim, where)
    assert max(c.denominator for c in verts[-1]) >= 10**40
    incidence = _facet_incidence.__wrapped__(tuple(verts))
    assert incidence == full_scan(verts)
    facets = dict(incidence)
    planted = {len(verts) - 2, len(verts) - 1}
    if where == "on":
        assert len(verts) - 2 in facets[f]
    elif where == "inside":
        assert f in facets and not any(planted & tight for tight in facets.values())
    else:
        assert f not in facets


@pytest.mark.parametrize(
    "points, determinants",
    [(ball_vertices(linf(4)), 2), (cube_cross_vertices(4), 1)],
    ids=["linf_4", "cube-cross-4d"],
)
def test_facet_reached_by_many_subsets_is_listed_once(points, determinants):
    """Every facet holds more than n points, so several subsets solve to it;
    on linf^4 their determinants differ, so the unreduced solutions do."""
    points = tuple(points)
    incidence = _facet_incidence.__wrapped__(points)
    assert incidence == full_scan(points)
    assert len({f for f, _ in incidence}) == len(incidence)
    rows, scales = zip(*map(integer_point, points))
    for _, tight in incidence:
        solutions = [
            solve_square([rows[i] for i in subset], [scales[i] for i in subset])
            for subset in itertools.combinations(sorted(tight), len(points[0]))
        ]
        solutions = [x for x in solutions if x is not None]
        assert len(solutions) > 1
        assert len({den for _, den in solutions}) == determinants


@pytest.mark.parametrize("name", ["cube-cross", "sphere-3d-seed-1"])
def test_equal_vertex_and_facet_entries_share_one_fraction(name):
    space = polyhedral_space(SUPPORT_BALLS[name]())
    for vectors in (space.ball_vertices, polar_vertices(space)):
        entries = [c for v in vectors for c in v]
        assert len({id(c) for c in entries}) == len(set(entries)) < len(entries)


@pytest.mark.parametrize("seed, dim", [(1, 3), (2, 4)])
def test_planted_edge_pair_is_listed_in_the_incidence(seed, dim):
    verts, p = planted_ball(seed, dim, "edge")
    incidence = _facet_incidence.__wrapped__(tuple(verts))
    for point in (p, tuple(-c for c in p)):
        assert any(verts.index(point) in tight for _, tight in incidence)


def test_duplicated_pair_is_listed_twice_as_the_full_scan_lists_it():
    points = tuple(ball_vertices(l1(3))) + ((F(1), F(0), F(0)), (F(-1), F(0), F(0)))
    incidence = _facet_incidence.__wrapped__(points)
    assert incidence == full_scan(points)
    assert all((0 in tight) == (6 in tight) and (1 in tight) == (7 in tight) for _, tight in incidence)


def test_asymmetric_unvalidated_ball_is_a_bad_ball():
    space = polyhedral_space([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], validate=False)
    with pytest.raises(InputError) as info:
        polar_vertices(space)
    assert info.value.code == "bad_ball"


def test_list_just_past_the_subset_guard_is_rejected_at_once():
    pairs = next(k for k in range(2, 1000) if math.comb(2 * k, 3) > _max_polar_subsets(3))
    verts = sphere_ball(random.Random(11), 3, pairs)
    assert math.comb(len(verts) - 2, 3) <= _max_polar_subsets(3)  # one pair fewer passes
    start = time.process_time()
    with pytest.raises(InputError) as info:
        polyhedral_space(verts)
    assert time.process_time() - start < 1
    assert info.value.code == "too_many_vertices"
    assert f"C({len(verts)},3) = {math.comb(len(verts), 3):,} subsets" in str(info.value)


@pytest.mark.parametrize("dim", [7, 8, 9])
def test_subset_guard_tightens_with_the_dimension(dim):
    limit = _max_polar_subsets(dim)
    pairs = next(k for k in range(dim, 1000) if math.comb(2 * k, dim) > limit)
    assert math.comb(2 * pairs - 2, dim) <= limit < math.comb(2 * pairs, dim) <= 225_000
    verts = sphere_ball(random.Random(dim), dim, pairs)
    start = time.process_time()
    with pytest.raises(InputError) as info:
        polyhedral_space(verts)
    assert time.process_time() - start < 1
    assert info.value.code == "too_many_vertices"
    assert f"C({len(verts)},{dim}) = {math.comb(len(verts), dim):,} subsets" in str(info.value)
    assert f"guard of {limit:,} subsets in {dim}-D" in str(info.value)


@pytest.mark.parametrize("name", ["sphere-2d-8-seed-1", "l1_3", "cube-cross", "l1_4", "sphere-4d-10-seed-6"])
def test_subset_guard_passes_its_bound_and_rejects_past_it(name, monkeypatch):
    points = tuple(INCIDENCE_INPUTS[name]())
    n = len(points[0])
    subsets = math.comb(len(points), n)
    monkeypatch.setattr(spaces, "_MAX_POLAR_SUBSETS", subsets)
    monkeypatch.setattr(spaces, "_MAX_POLAR_COST", subsets * n**3)
    assert _facet_incidence.__wrapped__(points) == full_scan(points)
    for cap, value in (("_MAX_POLAR_SUBSETS", subsets - 1), ("_MAX_POLAR_COST", subsets * n**3 - 1)):
        with monkeypatch.context() as patch:
            patch.setattr(spaces, cap, value)
            with pytest.raises(InputError) as info:
                _facet_incidence.__wrapped__(points)
        assert info.value.code == "too_many_vertices"
