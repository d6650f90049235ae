"""Birkhoff-James orthogonality: worked examples, witnesses, subspace tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bjlevel import (
    InputError,
    RationalStream,
    bj_orthogonal,
    bj_orthogonal_oracle,
    dual_norm,
    l1,
    norm,
    polyhedral_space,
    subspace_orthogonal,
)
from bjlevel import simplex, spaces
from bjlevel.linalg import unit

from ._util import cube_cross_vertices, v

F = Fraction


def test_worked_l1_example_orthogonal(l1_3):
    verdict = bj_orthogonal(l1_3, v("1,0,0"), v("1/2,1/2,0"))
    assert verdict.orthogonal and verdict.method == "dual"
    f = verdict.witness
    assert sum(fc * xc for fc, xc in zip(f, v("1,0,0"))) == 1
    assert dual_norm(l1_3, f) == 1
    assert sum(fc * yc for fc, yc in zip(f, v("1/2,1/2,0"))) == 0


def test_worked_l1_example_not_orthogonal(l1_3):
    verdict = bj_orthogonal(l1_3, v("2,0,0"), v("1,1/2,0"))
    assert not verdict.orthogonal
    assert verdict.witness is None


def test_zero_vector_cases(l1_3):
    assert bj_orthogonal(l1_3, v("1,2,3"), v("0,0,0")).orthogonal
    assert bj_orthogonal(l1_3, v("0,0,0"), v("1,2,3")).orthogonal


def test_oracle_worked_examples(l1_3):
    assert bj_orthogonal_oracle(l1_3, v("1,0,0"), v("1/2,1/2,0")).orthogonal
    verdict = bj_orthogonal_oracle(l1_3, v("2,0,0"), v("1,1/2,0"))
    assert not verdict.orthogonal
    assert verdict.margin == 1  # ||x|| - min = 2 - 1


def test_l2_inner_product_orthogonality():
    space = __import__("bjlevel").l2(2)
    assert bj_orthogonal(space, v("1,0"), v("0,5")).orthogonal
    assert bj_orthogonal_oracle(space, v("1,0"), v("0,5")).orthogonal
    assert not bj_orthogonal(space, v("1,0"), v("1,5")).orthogonal


def test_subspace_orthogonal_basis_plane(l1_3):
    verdict = subspace_orthogonal(l1_3, v("1,0,0"), [v("0,1,0"), v("0,0,1")])
    assert verdict.orthogonal
    assert verdict.witness == (F(1), F(0), F(0))


def test_subspace_never_contains_x(l1_3):
    assert not subspace_orthogonal(l1_3, v("1,0,0"), [v("1,0,0")]).orthogonal


def test_subspace_witness_on_linf_diagonal(linf_2):
    verdict = subspace_orthogonal(linf_2, v("1,1"), [v("1,-1")])
    assert verdict.orthogonal
    assert verdict.witness == (F(1, 2), F(1, 2))


def test_subspace_witnesses_on_a_three_vertex_support_set_are_pinned():
    # J((1,1,1)) on the cube plus twice the cross-polytope has three vertices.
    space = polyhedral_space(cube_cross_vertices(3))
    assert subspace_orthogonal(space, v("1,1,1"), [v("1,-1,0")]).witness == v("1/4,1/4,1/2")
    assert subspace_orthogonal(space, v("1,1,1"), [v("1,-1,0"), v("0,1,-1")]).witness == v("1/3,1/3,1/3")


def test_subspace_rejects_dependent_basis(l1_3):
    with pytest.raises(InputError):
        subspace_orthogonal(l1_3, v("1,0,0"), [v("0,1,0"), v("0,2,0")])


@given(
    st.fractions(min_value=F(1, 7), max_value=5),
    st.fractions(min_value=F(1, 7), max_value=5),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_homogeneity_of_verdict(alpha, beta, flip_a, flip_b):
    space = l1(3)
    x, y = v("1,0,0"), v("1/2,1/2,0")
    a = -alpha if flip_a else alpha
    b = -beta if flip_b else beta
    scaled_x = tuple(a * c for c in x)
    scaled_y = tuple(b * c for c in y)
    assert bj_orthogonal(space, scaled_x, scaled_y).orthogonal == bj_orthogonal(space, x, y).orthogonal


def test_witness_soundness_on_random_pairs(l1_3, linf_3, hexagon):
    stream = RationalStream(31)
    for space in (l1_3, linf_3, hexagon):
        for _ in range(100):
            x = stream.next_nonzero_vector(space.dim)
            y = stream.next_nonzero_vector(space.dim)
            verdict = bj_orthogonal(space, x, y)
            if verdict.orthogonal:
                f = verdict.witness
                assert sum(fc * xc for fc, xc in zip(f, x)) == norm(space, x)
                assert dual_norm(space, f) == 1
                assert sum(fc * yc for fc, yc in zip(f, y)) == 0


# On l1^4 at x = (1, 1, 1, 0), min f(y) over J(x) is 1e16 + 2 - 1e16 = 2 for
# this y, so x is not orthogonal to y.  In floats 1e16 + 1 + 1 rounds to 1e16,
# the lower end reads 0, and x would read as orthogonal to y.
FLOAT_X = (1.0, 1.0, 1.0, 0.0)
FLOAT_Y = (1e16, 1.0, 1.0, 1e16)
EXACT_Y = tuple(F(c) for c in FLOAT_Y)


def test_bj_orthogonal_decides_float_input_on_an_exact_space_in_rationals():
    verdict = bj_orthogonal(l1(4), FLOAT_X, FLOAT_Y)
    assert verdict == bj_orthogonal(l1(4), (1, 1, 1, 0), EXACT_Y)
    assert (verdict.orthogonal, verdict.witness, verdict.margin) == (False, None, 2)
    assert type(verdict.margin) is F


def test_oracle_decides_float_input_on_an_exact_space_in_rationals():
    verdict = bj_orthogonal_oracle(l1(4), FLOAT_X, FLOAT_Y)
    assert verdict == bj_orthogonal_oracle(l1(4), (1, 1, 1, 0), EXACT_Y)
    assert not verdict.orthogonal
    assert verdict.margin == F(1, 5 * 10**15) and type(verdict.margin) is F


def test_subspace_orthogonal_decides_float_input_on_an_exact_space_in_rationals():
    assert not subspace_orthogonal(l1(4), FLOAT_X, [FLOAT_Y]).orthogonal
    verdict = subspace_orthogonal(l1(4), FLOAT_X, [(0.0, 0.5, -0.5, 1.0)])
    assert verdict.orthogonal
    assert all(type(c) is F for c in verdict.witness)


def test_bj_orthogonal_on_l1_lists_no_vertices_and_solves_no_lp(monkeypatch):
    # J(x) on l1^n is the box pinned to sgn(x_i) on the support of x, so its
    # extremes along y are read from x and y alone, even at e1 on l1^12,
    # where J(x) has 2^11 vertices.
    cases = []
    for n in range(1, 13):
        ys = ((F(1),) * n, tuple(F(k % 3 - 1, k + 1) for k in range(n)), unit(n, n - 1))
        for x in (unit(n, 0), tuple(F(k % 2) for k in range(n)), tuple(F(k % 3 - 1) or F(1) for k in range(n))):
            cases += [(l1(n), x, y, bj_orthogonal(l1(n), x, y)) for y in ys]

    def refuse(*args, **kwargs):
        raise AssertionError("listed J(x) or solved an LP")

    monkeypatch.setattr(spaces._CrossPolytope, "face_vertices", refuse)
    monkeypatch.setattr(simplex, "solve_standard_lp", refuse)
    assert [bj_orthogonal(space, x, y) for space, x, y, _ in cases] == [want for *_, want in cases]
    assert {want.orthogonal for *_, want in cases} == {True, False}
