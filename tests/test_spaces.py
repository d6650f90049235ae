"""Norms, duals, polars and operators on the core space representations."""

import ast
import collections
import itertools
import math
import pickle
import random
import re
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjlevel import (
    InputError,
    Operator,
    RationalStream,
    adjoint,
    ball_vertices,
    diagonal_operator,
    dual_ball_vertices,
    dual_norm,
    dual_space,
    face_lattice,
    identity_operator,
    l1,
    l2,
    level_count_bound,
    linf,
    lp_space,
    norm,
    norm_squared,
    operator,
    polar_vertices,
    polyhedral_space,
    preserves_bj_at,
    space_from_dict,
    space_to_dict,
    support_set,
    zero_operator,
)
from bjlevel.linalg import MINUS_ONE, ONE, ZERO, dot, unit, vec
from bjlevel.simplex import OPTIMAL, solve_standard_lp
from bjlevel import spaces
from bjlevel.spaces import _ball_rows, _facet_incidence, _shared

from ._util import HEXAGON_VERTICES, cube_cross_vertices, probe_points, sphere_ball, v

F = Fraction


def minkowski_norm_lp(space, x):
    """Independent oracle: ||x|| = min sum(mu) s.t. sum mu_i v_i = x, mu >= 0."""
    verts = ball_vertices(space)
    rows = [[vert[k] for vert in verts] for k in range(space.dim)]
    cost = [F(1)] * len(verts)
    res = solve_standard_lp(rows, list(x), cost=cost)
    assert res.status == OPTIMAL
    return res.value


def test_l1_norm_example(l1_3):
    assert norm(l1_3, v("1/2,1/2,0")) == 1


def test_linf_norm_example(linf_3):
    assert norm(linf_3, v("1,1/2,0")) == 1


def test_hexagon_norm_against_minkowski_lp(hexagon):
    assert norm(hexagon, v("1,1")) == 1 == minkowski_norm_lp(hexagon, v("1,1"))
    for text in ["1,0", "1,-1", "2,1", "-1/2,1/3"]:
        x = v(text)
        assert norm(hexagon, x) == minkowski_norm_lp(hexagon, x)


def test_l2_norm_squared_is_exact(l2_3):
    x = v("1/3,2/3,2/3")
    assert norm_squared(l2_3, x) == F(1)
    assert norm(l2_3, x) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_float(l3_3):
    x = v("1,1,1")
    assert norm(l3_3, x) == pytest.approx(3 ** (1 / 3), rel=1e-12)


def test_dual_space_lp_conjugates():
    assert dual_space(l1(3)) == linf(3)
    assert dual_space(linf(2)) == l1(2)
    assert dual_space(l2(3)) == l2(3)
    assert dual_space(lp_space(3, 3)) == lp_space(F(3, 2), 3)


def test_polar_of_cross_polytope_square():
    square = polyhedral_space([("1", "0"), ("0", "1"), ("-1", "0"), ("0", "-1")])
    assert set(polar_vertices(square)) == {v("1,1"), v("1,-1"), v("-1,1"), v("-1,-1")}


def test_polar_involution(hexagon):
    octagon = polyhedral_space(
        [("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1"),
         ("3/4", "3/4"), ("-3/4", "-3/4"), ("3/4", "-3/4"), ("-3/4", "3/4")]
    )
    for space in (hexagon, octagon):
        double = dual_space(dual_space(space))
        assert set(double.ball_vertices) == set(space.ball_vertices)


def test_hahn_banach_at_desk_scale(hexagon, l1_3, linf_3):
    stream = RationalStream(5)
    for space in (hexagon, l1_3, linf_3):
        duals = dual_ball_vertices(space)
        for _ in range(50):
            x = stream.next_nonzero_vector(space.dim)
            nx = norm(space, x)
            values = [sum(f[k] * x[k] for k in range(space.dim)) for f in duals]
            assert all(val <= nx for val in values)
            assert nx in values


@pytest.mark.parametrize("space_name", ["l1_3", "linf_3", "hexagon"])
def test_triangle_inequality_and_homogeneity_exact(space_name, request):
    space = request.getfixturevalue(space_name)
    stream = RationalStream(17)
    for _ in range(1000):
        x = stream.next_nonzero_vector(space.dim)
        y = stream.next_nonzero_vector(space.dim)
        a = stream.next_fraction()
        assert norm(space, tuple(c + d for c, d in zip(x, y))) <= norm(space, x) + norm(space, y)
        assert norm(space, tuple(a * c for c in x)) == abs(a) * norm(space, x)


@given(
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality_hypothesis(xs, ys):
    space = l1(3)
    x, y = tuple(xs), tuple(ys)
    assert norm(space, tuple(c + d for c, d in zip(x, y))) <= norm(space, x) + norm(space, y)


def test_adjoint_pairing_property(l1_3):
    op = operator([["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]], l1_3)
    adj = adjoint(op)
    assert adj.domain == linf(3) and adj.codomain == linf(3)
    stream = RationalStream(23)
    for _ in range(100):
        x = stream.next_nonzero_vector(3)
        g = stream.next_nonzero_vector(3)
        lhs = sum(c * d for c, d in zip(adj(g), x))
        rhs = sum(c * d for c, d in zip(g, op(x)))
        assert lhs == rhs


def test_adjoint_of_diagonal_on_linf(linf_3):
    op = diagonal_operator(linf_3, [1, 2, 3])
    adj = adjoint(op)
    assert adj.matrix == op.matrix
    assert adj.domain == l1(3)


def test_adjoint_transpose_and_identity(l1_3):
    op = operator([["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]], l1_3)
    assert adjoint(op).matrix == tuple(zip(*op.matrix))
    ident = diagonal_operator(l1_3, [1, 1, 1])
    assert adjoint(ident).matrix == ident.matrix


def test_polyhedral_validation_rejects_asymmetric():
    with pytest.raises(InputError):
        polyhedral_space([("1", "0"), ("0", "1"), ("-1", "0")])


def test_polyhedral_validation_rejects_non_extreme():
    with pytest.raises(InputError):
        polyhedral_space([("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1"), ("1/2", "1/2"), ("-1/2", "-1/2")])


def test_polyhedral_validation_rejects_degenerate_span():
    with pytest.raises(InputError):
        polyhedral_space([("1", "0"), ("-1", "0")])


def test_lp_guards():
    with pytest.raises(InputError):
        lp_space("1/2", 3)
    with pytest.raises(InputError):
        linf(13)


def test_space_dict_round_trip(hexagon, l1_3):
    for space in (hexagon, l1_3, lp_space(F(7, 3), 4)):
        assert space_from_dict(space_to_dict(space)) == space


def test_result_objects_round_trip_through_pickle_and_deepcopy():
    space = polyhedral_space(HEXAGON_VERTICES)
    face = face_lattice(space)[-1]
    report = preserves_bj_at(operator([[1, 2], [0, 1]], space), (F(1), F(0)))
    assert not report.holds
    for value in (space, face, report, linf(3)):
        for copy in (pickle.loads(pickle.dumps(value)), deepcopy(value)):
            assert copy == value and type(copy) is type(value)
    assert polar_vertices(pickle.loads(pickle.dumps(space))) == polar_vertices(space)


def test_equal_spaces_hash_equal():
    # The hash, computed once per space, reads kind, dimension, exponent and
    # ball vertices only: a validated ball (its polar known) and the same
    # ball unvalidated are equal, and so are duals made apart, and copies.
    for vertices in (HEXAGON_VERTICES, cube_cross_vertices(3)):
        validated, plain = polyhedral_space(vertices), polyhedral_space(vertices, validate=False)
        assert validated.known_polar is not None and plain.known_polar is None
        pairs = [
            (validated, plain),
            (dual_space(validated), dual_space(plain)),
            (pickle.loads(pickle.dumps(validated)), plain),
            (deepcopy(plain), validated),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert {validated: 1}[plain] == 1
    assert hash(linf(3)) == hash(linf(3)) == hash(dual_space(l1(3)))
    assert hash(lp_space(3, 2)) == hash(dual_space(lp_space(Fraction(3, 2), 2)))


def test_a_ball_in_any_vertex_order_and_its_bidual_are_one_space():
    # The bidual lists the vertices sorted; neither list below is.
    for vertices in (HEXAGON_VERTICES, cube_cross_vertices(3)):
        space = polyhedral_space(vertices)
        bidual = dual_space(dual_space(space))
        reordered = polyhedral_space(reversed(vertices))
        assert bidual.ball_vertices != space.ball_vertices != reordered.ball_vertices
        for other in (bidual, reordered):
            assert other == space and hash(other) == hash(space)
        op = diagonal_operator(space, range(1, space.dim + 1))
        assert level_count_bound(bidual, op) == level_count_bound(space, op)
    square = [("1", "0"), ("0", "1"), ("-1", "0"), ("0", "-1")]
    assert polyhedral_space(square) != polyhedral_space([(2 * F(a), 2 * F(b)) for a, b in square])
    # Unvalidated lists compare as lists with repeats, in any order.
    assert polyhedral_space(square + square[:2], validate=False) != polyhedral_space(square + square[2:], validate=False)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_integer_polyhedral_norm_equals_the_fraction_definition(dim):
    rng = random.Random(dim)
    space = polyhedral_space(sphere_ball(rng, dim, dim + 1))
    duals = (dual_space(space),) if dim < 5 else ()  # the 5-D dual's 52 vertices are past the scan's guard
    for s in (space, *duals):
        facets = polar_vertices(s)
        for points in probe_points(s, rng):
            for x in points:
                value = norm(s, x)
                assert type(value) is F and value == max(dot(f, x) for f in facets)
    if duals:
        assert all(dual_norm(space, f) == 1 for f in polar_vertices(space))


def test_polyhedral_dual_norm_reads_an_integer_table_of_the_ball_vertices():
    space = polyhedral_space(sphere_ball(random.Random(9), 3, 5))
    d, rows = _ball_rows(space)
    assert d == math.lcm(*(c.denominator for p in space.ball_vertices for c in p))
    assert all(type(c) is int for row in rows for c in row)
    assert rows == tuple(tuple(d * c for c in p) for p in space.ball_vertices)
    hits = _ball_rows.cache_info().hits
    f = (F(1, 3), 2, 0.5)
    assert dual_norm(space, f) == max(dot(vec(f), p) for p in space.ball_vertices)
    assert _ball_rows.cache_info().hits == hits + 1


def test_dual_norm_decides_float_input_on_an_exact_space_in_rationals():
    # 1e16 + 1 rounds to 1e16 in floats; dual_norm converts f exactly.
    f = (1e16, 1.0)
    for space in (linf(2), polyhedral_space(HEXAGON_VERTICES)):
        value = dual_norm(space, f)
        assert value == 10**16 + 1 and type(value) is F
    assert dual_norm(l1(2), (0.1, 0.2)) == F(0.2)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_l1_and_linf_polars_are_the_closed_form_dual_vertices(dim):
    for space in (l1(dim), linf(dim)):
        scanned = tuple(f for f, _ in _facet_incidence.__wrapped__(ball_vertices(space)))
        assert polar_vertices(space) == scanned == tuple(sorted(dual_ball_vertices(space)))


def test_polar_of_l1_10_is_its_1024_sign_vectors():
    polar = polar_vertices(l1(10))
    assert len(polar) == 1024 and polar == tuple(sorted(itertools.product((MINUS_ONE, ONE), repeat=10)))


def test_polyhedral_norm_converts_int_and_float_entries_exactly():
    space = polyhedral_space(sphere_ball(random.Random(7), 3, 5))
    facets = polar_vertices(space)
    for x in [(1, 0, -2), (0.1, -0.75, 3.0), (1, F(1, 3), 0.5), (0, 0, 0)]:
        exact = tuple(F(c) for c in x)
        value = norm(space, x)
        assert type(value) is F and value == norm(space, exact) == max(dot(f, exact) for f in facets)


def test_vec_keeps_fraction_entries_and_converts_others_exactly():
    a, b = F(1, 3), F(-7, 2)
    out = vec((a, 2, 0.1, "5/4", b))
    assert out[0] is a and out[4] is b
    assert out[1:4] == (F(2), F(0.1), F(5, 4)) and all(type(c) is F for c in out)


def test_polyhedral_space_keeps_the_first_of_equal_caller_fractions():
    verts = [tuple(F(c) for c in vert) for vert in HEXAGON_VERTICES]
    space = polyhedral_space(verts)
    first: dict = {ZERO: ZERO, ONE: ONE, MINUS_ONE: MINUS_ONE}  # small integers are process-wide
    for given, kept in zip(verts, space.ball_vertices):
        assert kept == given
        assert all(k is first.setdefault(c, c) for c, k in zip(given, kept))
    halves = [tuple(c / 2 for c in vert) for vert in verts]
    kept = polyhedral_space(halves).ball_vertices
    assert kept[0][0] is kept[4][0] is halves[0][0] and kept[0][1] is ZERO
    row = (F(1, 3), F(2, 3))
    assert _shared(row, {}) is row and _shared(row, {F(1, 3): F(1, 3)}) is not row


def test_operator_pools_equal_entries_and_keeps_equality_and_hash(l1_3):
    rows = [[F(1, 2), F(0), F(1, 2)], [F(0), F(1, 2), F(3)], [F(3), F(0), F(0)]]
    op = operator(rows, l1_3)
    entries = [c for row in op.matrix for c in row]
    assert len({id(c) for c in entries}) == len(set(entries)) == 3
    assert op.matrix[0][0] is rows[0][0] and op.matrix[0][1] is ZERO
    plain = Operator(tuple(tuple(row) for row in rows), l1_3, l1_3)
    assert op == plain and hash(op) == hash(plain)
    assert op == operator([["1/2", 0, 0.5], [0, "1/2", 3], [3, 0, 0]], l1_3)


def test_identity_diagonal_and_zero_operators_share_one_zero_and_one_one():
    space = l1(6)
    cases = [
        (identity_operator(space), [[int(i == j) for j in range(6)] for i in range(6)]),
        (diagonal_operator(space, range(1, 7)), [[i + 1 if i == j else 0 for j in range(6)] for i in range(6)]),
        (zero_operator(space), [[0] * 6 for _ in range(6)]),
    ]
    for op, rows in cases:
        entries = [c for row in op.matrix for c in row]
        assert {id(c) for c in entries if c == 0} == {id(ZERO)}
        assert {id(c) for c in entries if c == 1} == ({id(ONE)} if 1 in entries else set())
        plain = Operator(tuple(tuple(F(c) for c in row) for row in rows), space, space)
        assert op == plain and hash(op) == hash(plain)


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_cube_and_cross_polytope_lists_share_three_fractions(dim):
    cube, cross = ball_vertices(linf(dim)), ball_vertices(l1(dim))
    assert cube == dual_ball_vertices(l1(dim)) == tuple(
        tuple(F(s) for s in signs) for signs in itertools.product((1, -1), repeat=dim)
    )
    assert cross == dual_ball_vertices(linf(dim)) == tuple(unit(dim, i, s) for i in range(dim) for s in (1, -1))
    assert len({id(c) for vert in cube + cross for c in vert}) == (3 if dim > 1 else 2)


def test_dual_of_a_validated_ball_reads_its_polar_without_a_facet_scan(monkeypatch):
    # A ball no other test builds, so no cache already holds its dual's facets.
    space = polyhedral_space(sphere_ball(random.Random(41), 3, 6))
    scans = []
    scan = spaces._facet_incidence
    monkeypatch.setattr(spaces, "_facet_incidence", lambda points: scans.append(points) or scan(points))
    dual = dual_space(space)
    x = tuple(sum(c) for c in zip(*dual.ball_vertices[:2]))
    assert norm(dual, x) == max(dot(p, x) for p in space.ball_vertices)
    assert support_set(dual, x).vertices == tuple(sorted(p for p in space.ball_vertices if dot(p, x) == norm(dual, x)))
    assert dual_space(dual).ball_vertices == tuple(sorted(space.ball_vertices))
    assert scans == []


def test_known_polars_of_duals_equal_the_facet_scan():
    rng = random.Random(3)
    balls = [
        HEXAGON_VERTICES,
        cube_cross_vertices(3),
        cube_cross_vertices(4),
        sphere_ball(rng, 2, 5),
        sphere_ball(rng, 3, 6),
    ]
    for vertices in balls:
        space = polyhedral_space(vertices)
        dual = dual_space(space)
        assert space.known_polar == tuple(f for f, _ in _facet_incidence(space.ball_vertices))
        assert dual.known_polar == tuple(f for f, _ in _facet_incidence(dual.ball_vertices))


def test_unvalidated_lists_get_no_known_polar():
    # (1/2, 1/2) is not extreme in the square's list, so the dual's polar
    # must come from the scan, which drops it.
    square = [("1", "0"), ("0", "1"), ("-1", "0"), ("0", "-1")]
    inner = polyhedral_space(square + [("1/2", "1/2"), ("-1/2", "-1/2")], validate=False)
    assert inner.known_polar is None and dual_space(inner).known_polar is None
    assert polar_vertices(dual_space(inner)) == tuple(sorted(polyhedral_space(square).ball_vertices))
    assert polyhedral_space(square, validate=False) == polyhedral_space(square)


# Every test on the kind of a space that may stay outside the ball objects
# (`spaces.exact_ball`), per module and enclosing function: the one selector,
# the float path's p = 2 branches, the lp and polyhedral forms of repr, the
# dual space and the JSON dict, the oracle's independent breakpoints (a
# reference the tests compare against), and the closed-form face lattices
# and censuses, whose general case lives in faces.py.
_KIND_TESTS_ALLOWED = {
    ("spaces.py", "SpaceSpec.__repr__"): 1,
    ("spaces.py", "norm"): 1,
    ("spaces.py", "norm_squared"): 1,
    ("spaces.py", "dual_space"): 1,
    ("spaces.py", "exact_ball"): 2,
    ("spaces.py", "space_to_dict"): 1,
    ("support.py", "_lp_gradient"): 1,
    ("levels.py", "_level_vector_float"): 1,
    ("levels.py", "_preserves_float"): 1,
    ("orthogonality.py", "_dual_float"): 1,
    ("orthogonality.py", "_subspace_float"): 1,
    ("oracle.py", "_breakpoints"): 2,
    ("faces.py", "face_lattice"): 2,
    ("faces.py", "face_census"): 2,
}


def _scopes(tree, prefix=""):
    """(first line, last line, qualified name) of every function and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield node.lineno, node.end_lineno, name
            yield from _scopes(node, name + ".")


def test_ball_kind_tests_stay_behind_the_ball_objects():
    # A line of src/bjlevel that tests `.kind ==`, `.kind !=` or `.p ==`
    # outside the allow-list fails: a new per-kind branch belongs in the
    # ball classes of spaces.py.
    dispatch = re.compile(r"\.kind (==|!=)|\.p ==")
    found = collections.Counter()
    for path in sorted(Path(spaces.__file__).parent.glob("*.py")):
        text = path.read_text()
        scopes = list(_scopes(ast.parse(text)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if dispatch.search(line):
                inner = [s for s in scopes if s[0] <= lineno <= s[1]]
                found[path.name, max(inner)[2] if inner else "<module>"] += 1
    extra = found - collections.Counter(_KIND_TESTS_ALLOWED)
    assert not extra, dict(extra)
