"""Face lattices, censuses, minimal faces and relative interiors."""

import itertools
import random
from fractions import Fraction

import pytest

from bjlevel import (
    Face,
    InputError,
    RationalStream,
    ball_vertices,
    dual_ball_vertices,
    extreme_points,
    face_census,
    face_lattice,
    is_relative_interior,
    is_smooth,
    kernel_section_space,
    l1,
    level_count_bound,
    linf,
    minimal_face,
    operator,
    polar_vertices,
    polyhedral_space,
    support_set,
)
from bjlevel import faces, levels, spaces
from bjlevel.linalg import affine_rank, integer_kernel, integer_rows, kernel_basis, matrix_rank
from bjlevel.spaces import CACHE_SIZE

from ._util import HEXAGON_VERTICES, cube_cross_vertices, sphere_ball, v

F = Fraction


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_totals_are_3_to_n_minus_1(n):
    for space in (l1(n), linf(n)):
        census = face_census(space)
        assert census.total == 3**n - 1
        assert sum(census.counts) == census.total


def test_census_examples(l1_3, linf_3, linf_2):
    assert face_census(linf_3).counts == (8, 12, 6)
    assert face_census(l1_3).counts == (6, 12, 8)
    assert face_census(linf_2).counts == (4, 4)


def test_lattice_matches_census(l1_3, linf_3, linf_2, hexagon):
    for space in (l1_3, linf_3, linf_2, hexagon):
        lattice = face_lattice(space)
        census = face_census(space)
        counts = [0] * space.dim
        for face in lattice:
            counts[face.dim] += 1
        assert tuple(counts) == census.counts
        assert len({face.vertices for face in lattice}) == len(lattice)


def test_hexagon_lattice():
    census = face_census(polyhedral_space([("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1"), ("1", "1"), ("-1", "-1")]))
    assert census.counts == (6, 6)


def test_census_symmetry_even_counts(l1_3, linf_3, hexagon):
    for space in (l1_3, linf_3, hexagon):
        assert all(c % 2 == 0 for c in face_census(space).counts)


def test_euler_relation(l1_3, linf_3, linf_2, hexagon):
    for space in (l1_3, linf_3, linf_2, hexagon):
        counts = face_census(space).counts
        euler = sum((-1) ** k * c for k, c in enumerate(counts))
        assert euler == 1 + (-1) ** (space.dim - 1)


def test_unconditional_ball_meets_kalai_bound():
    octagon = polyhedral_space(
        [("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1"),
         ("3/4", "3/4"), ("-3/4", "-3/4"), ("3/4", "-3/4"), ("-3/4", "3/4")]
    )
    assert face_census(octagon).total >= 3**2 - 1


def test_extreme_points(l1_3, linf_2, hexagon):
    assert set(extreme_points(l1_3)) == {
        v("1,0,0"), v("-1,0,0"), v("0,1,0"), v("0,-1,0"), v("0,0,1"), v("0,0,-1")
    }
    assert set(extreme_points(linf_2)) == {v("1,1"), v("1,-1"), v("-1,1"), v("-1,-1")}
    assert len(extreme_points(hexagon)) == 6


def test_extreme_points_are_one_cached_sorted_tuple(l1_3, linf_2, hexagon):
    # Certification walks them in this order on every call; they are sorted
    # once per space, in a cache of at most CACHE_SIZE spaces.
    for space in (l1_3, linf_2, hexagon):
        points = extreme_points(space)
        assert points is extreme_points(space)
        assert list(points) == sorted(ball_vertices(space))
    assert extreme_points.cache_info().maxsize == CACHE_SIZE


def test_minimal_face_examples(linf_2, l1_3):
    top_edge = minimal_face(linf_2, v("1/2,1"))
    assert top_edge.vertices == (v("-1,1"), v("1,1"))
    assert top_edge.dim == 1
    assert top_edge.supporting == (v("0,1"),)

    vertex_face = minimal_face(linf_2, v("1,1"))
    assert vertex_face.vertices == (v("1,1"),)
    assert vertex_face.dim == 0

    edge = minimal_face(l1_3, v("1/2,1/2,0"))
    assert edge.vertices == (v("0,1,0"), v("1,0,0"))
    assert edge.dim == 1


def test_minimal_face_requires_unit_norm(linf_2):
    with pytest.raises(InputError):
        minimal_face(linf_2, v("1/2,1/2"))


def test_relative_interior_examples(linf_2, l1_3):
    top_edge = minimal_face(linf_2, v("1/2,1"))
    assert is_relative_interior(linf_2, v("1/2,1"), top_edge)
    assert not is_relative_interior(linf_2, v("1,1"), top_edge)
    vertex_face = minimal_face(l1_3, v("1,0,0"))
    assert is_relative_interior(l1_3, v("1,0,0"), vertex_face)


def _interior_samples(face, stream, count=2):
    points = [face.centroid()]
    if face.dim > 0:
        for _ in range(count):
            weights = [stream.next_positive_fraction() for _ in face.vertices]
            total = sum(weights)
            points.append(
                tuple(
                    sum(w * vv[k] for w, vv in zip(weights, face.vertices)) / total
                    for k in range(len(face.vertices[0]))
                )
            )
    return points


def test_interior_support_contained_in_vertex_support(l1_3, linf_3, hexagon):
    # For u in the relative interior of F, every supporting functional of u
    # supports every point of F.
    stream = RationalStream(41)
    for space in (l1_3, linf_3, hexagon):
        for face in face_lattice(space):
            for u in _interior_samples(face, stream):
                ju = set(support_set(space, u).vertices)
                for vertex in face.vertices:
                    assert ju <= set(support_set(space, vertex).vertices)


def test_interior_samples_have_face_as_minimal_face(l1_3, linf_2, hexagon):
    stream = RationalStream(43)
    for space in (l1_3, linf_2, hexagon):
        for face in face_lattice(space):
            for u in _interior_samples(face, stream):
                assert minimal_face(space, u) == face


@pytest.mark.parametrize(
    "space",
    [l1(n) for n in range(2, 6)]
    + [linf(n) for n in range(2, 6)]
    + [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices())],
    ids=[f"l1_{n}" for n in range(2, 6)] + [f"linf_{n}" for n in range(2, 6)] + ["hexagon", "cube-cross"],
)
def test_negation_is_an_involution_on_the_lattice(space):
    lattice = set(face_lattice(space))
    for face in lattice:
        assert face.negated().negated() == face
        assert face.negated() in lattice


def fraction_cube_faces(n):
    """The cube lattice built coordinate by coordinate over Fractions."""
    one = F(1)
    faces = []
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        frozen = [i for i, s in enumerate(pattern) if s != 0]
        if not frozen:
            continue
        free = [i for i, s in enumerate(pattern) if s == 0]
        verts = []
        for signs in itertools.product((one, -one), repeat=len(free)):
            v = [F(s) for s in pattern]
            for pos, s in zip(free, signs):
                v[pos] = s
            verts.append(tuple(v))
        supporting = tuple(sorted(tuple(F(pattern[i]) if j == i else F(0) for j in range(n)) for i in frozen))
        faces.append(Face(tuple(sorted(verts)), len(free), supporting))
    return faces


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_pattern_lattices_equal_the_fraction_construction(n):
    cube = fraction_cube_faces(n)
    cross = [Face(tuple(sorted(c.supporting)), n - 1 - c.dim, c.vertices) for c in cube]
    for space, faces in ((linf(n), cube), (l1(n), cross)):
        assert face_lattice(space) == tuple(sorted(faces, key=lambda f: (f.dim, f.vertices)))


def test_face_supporting_functionals_attain_one(l1_3, linf_3, hexagon):
    from bjlevel.linalg import dot

    for space in (l1_3, linf_3, hexagon):
        for face in face_lattice(space):
            assert face.supporting
            for f in face.supporting:
                assert all(dot(f, vertex) == 1 for vertex in face.vertices)


def test_smooth_iff_relative_interior_of_facet(l1_3, linf_3, hexagon):
    stream = RationalStream(47)
    for space in (l1_3, linf_3, hexagon):
        from bjlevel import norm

        for _ in range(60):
            x = stream.next_nonzero_vector(space.dim)
            unit_x = tuple(c / norm(space, x) for c in x)
            assert is_smooth(space, unit_x) == (minimal_face(space, unit_x).dim == space.dim - 1)


def test_face_lattice_guards():
    with pytest.raises(InputError):
        face_lattice(__import__("bjlevel").l2(3))


# ---------------------------------------------------------------------------
# The general path: faces and dimensions from the facet incidence alone.


def _cube_vertices(n):
    return [tuple(F(s) for s in signs) for signs in itertools.product((1, -1), repeat=n)]


def _cross_vertices(n):
    return [tuple(F(s) if j == i else F(0) for j in range(n)) for i in range(n) for s in (1, -1)]


def _euler(counts):
    return sum((-1) ** k * c for k, c in enumerate(counts)) == 1 + (-1) ** (len(counts) - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_polyhedral_cubes_and_cross_polytopes_equal_the_closed_forms(n):
    # The same balls listed by their vertices take the general path; their
    # censuses and lattices (faces, dimensions, supporting functionals and
    # order) equal the closed forms and sign patterns of l-inf and l1.
    for verts, closed in ((_cube_vertices(n), linf(n)), (_cross_vertices(n), l1(n))):
        space = polyhedral_space(verts)
        assert face_census(space) == face_census(closed)
        assert face_lattice(space) == face_lattice(closed)


def test_general_censuses_of_the_cube_cross_balls():
    # Cube plus twice the cross-polytope: the rhombic dodecahedron in 3-D,
    # the 24-cell in 4-D.
    assert face_census(polyhedral_space(cube_cross_vertices(3))).counts == (14, 24, 12)
    assert face_census(polyhedral_space(cube_cross_vertices(4))).counts == (24, 96, 96, 24)


_SPHERE_BALLS = [(2, 5), (2, 9), (3, 5), (3, 8), (4, 6), (4, 8), (5, 7), (6, 8)]


@pytest.mark.parametrize("dim, pairs", _SPHERE_BALLS, ids=[f"{d}d-{2 * p}" for d, p in _SPHERE_BALLS])
def test_general_face_dimensions_are_affine_ranks(dim, pairs):
    space = polyhedral_space(sphere_ball(random.Random(1000 * dim + pairs), dim, pairs))
    lattice = face_lattice(space)
    counts = [0] * dim
    for face in lattice:
        assert face.dim == affine_rank(face.vertices)
        counts[face.dim] += 1
    assert face_census(space).counts == tuple(counts)
    assert _euler(counts)


def _rank_deficient(rng, n, kernel_dim):
    r = n - kernel_dim
    while True:
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        m = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
        if matrix_rank(m) == r:
            return m


@pytest.mark.parametrize("kernel_dim", [0, 1, 2])
def test_general_bounds_equal_the_lattice_counts(kernel_dim):
    rng = random.Random(31 + kernel_dim)
    balls = [cube_cross_vertices(3), sphere_ball(rng, 3, 6), sphere_ball(rng, 4, 6)]
    for verts in balls:
        space = polyhedral_space(verts)
        op = operator(_rank_deficient(rng, space.dim, kernel_dim), space)
        total = len(face_lattice(space))
        basis = kernel_basis(op.matrix)
        assert len(basis) == kernel_dim
        if basis:
            section = len(face_lattice(kernel_section_space(space, basis)))
            want = F(total - section, 2) + 1
        else:
            want = F(total, 2)
        assert level_count_bound(space, op) == want


def _validated_section(space, basis):
    """The kernel section by the route of two facet scans: the Fraction rows
    phi . b of the dual ball's vertices phi, the facets of their hull, and
    that vertex list validated (and its polar scanned) by polyhedral_space."""
    rows = sorted({tuple(sum(p * c for p, c in zip(phi, b)) for b in basis) for phi in dual_ball_vertices(space)})
    rows = tuple(r for r in rows if any(r))
    return polyhedral_space(f for f, _ in faces._facet_incidence(rows))


def _coordinate_kernel(n, kernel_dim):
    """diag(0, .., 0, 1, .., 1): ker T is spanned by the first kernel_dim units."""
    return [[int(i == j and i >= kernel_dim) for j in range(n)] for i in range(n)]


def _section_cases():
    """(space, T) over balls of 2-D to 5-D and every kernel dimension 1 .. n-1:
    a seeded rank-deficient T and the coordinate kernel of each size."""
    rng = random.Random(409)
    balls = [polyhedral_space(sphere_ball(rng, n, n + 3)) for n in (2, 2, 3, 3, 4, 4)]
    balls += [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))]
    balls += [make(n) for n in range(2, 6) for make in (l1, linf)]
    cases = []
    for space in balls:
        n = space.dim
        for kernel_dim in range(1, n):
            for m in (_rank_deficient(rng, n, kernel_dim), _coordinate_kernel(n, kernel_dim)):
                cases.append((space, operator(m, space)))
    return cases


def test_one_scan_kernel_sections_equal_the_validated_route():
    # The section space (vertices, their order and the polar), its census and
    # the bound equal those of the validated route.  Coordinate kernels of l1
    # and seeded kernels give rows inside the hull or on its boundary that
    # are not vertices, and 3-D sections tell a census from its polar's.
    dims = set()
    for space, op in _section_cases():
        basis = kernel_basis(op.matrix)
        want = _validated_section(space, basis)
        got = kernel_section_space(space, basis)
        assert got.dim == want.dim == len(basis)
        assert got.ball_vertices == want.ball_vertices, (space, op)
        assert got.known_polar == want.known_polar == polar_vertices(want), (space, op)
        census = face_census(want)
        kernel = integer_kernel(integer_rows(op.matrix)[1])[1]
        assert levels._section_census(space, kernel) == census, (space, op)
        assert level_count_bound(space, op) == F(face_census(space).total - census.total, 2) + 1
        dims.add((space.kind, got.dim, census.counts != census.counts[::-1]))
    assert {("lp", 3, True), ("polyhedral", 3, True), ("polyhedral", 2, False)} <= dims


def test_a_bound_scans_its_kernel_section_once_and_validates_nothing(monkeypatch, hexagon):
    # The section's vertices and its facets' tight sets come from one facet
    # scan of the projected polar rows: no second scan, and no validation.
    cube_cross = polyhedral_space(cube_cross_vertices(3))
    cases = [
        (hexagon, operator([[1, -1], [2, -2]], hexagon), 6),  # (12 - 2) / 2 + 1
        (linf(3), operator(_coordinate_kernel(3, 2), linf(3)), 10),  # (26 - 8) / 2 + 1
        (cube_cross, operator(_coordinate_kernel(3, 2), cube_cross), F(50 - 8, 2) + 1),
        (l1(5), operator(_rank_deficient(random.Random(5), 5, 3), l1(5)), None),
    ]
    for space, op, _ in cases:
        face_census(space)  # the ball's own census is not the section's
    scans = []

    def counted(points):
        scans.append(points)
        return scan(points)

    scan = levels._facet_incidence
    monkeypatch.setattr(levels, "_facet_incidence", counted)
    monkeypatch.setattr(spaces, "_validate_ball_vertices", _refused)
    for space, op, want in cases:
        scans.clear()
        bound = level_count_bound(space, op)
        assert len(scans) == 1 and (want is None or bound == want)
        scans.clear()
        kernel_section_space(space, kernel_basis(op.matrix))
        assert len(scans) == 1


def test_kernel_section_space_checks_the_basis_dimension():
    with pytest.raises(InputError) as err:
        kernel_section_space(l1(3), [v("1,0")])
    assert err.value.code == "dimension_mismatch"


def _refused(*args):
    raise AssertionError("refused call")


def test_the_general_census_builds_no_lattice_and_no_affine_rank(monkeypatch):
    verts = sphere_ball(random.Random(271), 4, 7)
    monkeypatch.setattr(faces, "face_lattice", _refused)
    monkeypatch.setattr(faces, "affine_rank", _refused)
    census = face_census(polyhedral_space(verts))
    monkeypatch.undo()
    assert _euler(census.counts)
    assert census.counts == tuple(
        sum(1 for face in face_lattice(polyhedral_space(verts)) if face.dim == k) for k in range(4)
    )


def test_the_general_lattice_computes_no_affine_rank(monkeypatch):
    verts = sphere_ball(random.Random(277), 3, 7)
    monkeypatch.setattr(faces, "affine_rank", _refused)
    lattice = face_lattice(polyhedral_space(verts))
    monkeypatch.undo()
    assert all(face.dim == affine_rank(face.vertices) for face in lattice)


def test_a_7d_general_ball_is_refused_before_any_closure_work(monkeypatch):
    space = polyhedral_space(_cross_vertices(7))
    monkeypatch.setattr(faces, "_facet_incidence", _refused)
    for call in (face_census, face_lattice):
        with pytest.raises(InputError) as err:
            call(space)
        assert err.value.code == "dim_too_large"
        assert str(err.value) == "general face lattices are limited to dimension 6"


def test_general_face_sets_are_one_cached_result_per_vertex_list(hexagon):
    # The census and the lattice read one result, kept per vertex list.
    verts = ball_vertices(hexagon)
    assert faces._face_index_sets(verts) is faces._face_index_sets(verts)
    assert faces._face_index_sets.cache_info().maxsize == CACHE_SIZE


def test_equal_balls_listed_in_other_orders_keep_their_own_faces():
    # Spaces listing the same vertices in any order are equal and share a
    # lattice, but index sets name positions in each list.
    for verts in (_cross_vertices(2), _cube_vertices(3), cube_cross_vertices(3)):
        listed = [polyhedral_space(verts), polyhedral_space(verts[::-1])]
        assert listed[0] == listed[1]
        assert face_census(listed[0]) == face_census(listed[1])
        for space in listed:
            listing = ball_vertices(space)
            for index_set, dim in faces._face_index_sets(listing):
                vs = [listing[i] for i in index_set]
                assert dim == affine_rank(vs)
                assert any(index_set <= tight for _, tight in faces._facet_incidence(listing))
