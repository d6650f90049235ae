"""Level vectors, directional preservation, enumeration and the face bound."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from bjlevel import (
    InputError,
    InternalCheckError,
    RationalStream,
    SpaceSpec,
    diagonal_operator,
    dual_norm,
    enumerate_level_numbers,
    identity_operator,
    is_level_vector,
    kernel_condition,
    kernel_section_space,
    l1,
    l2,
    level_count_bound,
    level_number,
    linf,
    norm,
    operator,
    polyhedral_space,
    preserves_bj_at,
    preserves_bj_directional,
    search_non_level_vector,
    bj_orthogonal,
    ball_vertices,
    support_set,
    zero_operator,
)
from bjlevel import isometry, levels, linalg, simplex, spaces, support
from bjlevel.linalg import dot, integer_point, integer_rows, is_zero_vec, kernel_basis, mat_vec, transpose, unit, vec_scale

from ._util import HEXAGON_VERTICES, cube_cross_vertices, seeded_operator_kinds, sphere_ball, v

F = Fraction


def certificate_is_sound(op, cert):
    x, f, g = cert.x, cert.f, cert.g
    tx = op(x)
    scale = norm(op.codomain, tx) / norm(op.domain, x)
    assert mat_vec(transpose(op.matrix), g) == vec_scale(scale, f)
    assert dot(f, x) == norm(op.domain, x)
    assert dot(g, tx) == norm(op.codomain, tx)
    assert dual_norm(op.domain, f) == 1
    assert dual_norm(op.codomain, g) == 1
    assert cert.level_number == scale * scale


def test_diag211_level_vector_with_number_4(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    cert = is_level_vector(op, v("1,0,0"))
    assert cert is not None and cert.level_number == 4
    certificate_is_sound(op, cert)


def test_case3_point_is_not_level(linf_3):
    op = operator([["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]], linf_3)
    assert is_level_vector(op, v("1,1/2,0")) is None


def test_case2_point_is_level_with_number_1(linf_3):
    op = operator([["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]], linf_3)
    cert = is_level_vector(op, v("1,1,0"))
    assert cert is not None and cert.level_number == 1
    certificate_is_sound(op, cert)


def test_degenerate_certificate_when_image_vanishes(l1_3):
    op = diagonal_operator(l1_3, [0, 1, 1])
    cert = is_level_vector(op, v("1,0,0"))
    assert cert is not None
    assert cert.level_number == 0 and cert.f is None and cert.g is None


def test_level_number_examples(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    assert level_number(op, v("0,1")) == 1
    assert level_number(op, v("1,1")) == 4
    zero_image = diagonal_operator(linf_2, [0, 0])
    assert level_number(zero_image, v("1,1")) == 0


def test_level_number_requires_level_vector(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    with pytest.raises(InputError):
        level_number(op, v("3/4,1"))


def test_directional_preservation_examples(l1_3, linf_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    assert preserves_bj_directional(op, v("1,0,0"), v("1,0,0")).holds
    assert not preserves_bj_directional(op, v("1,0,0"), v("1,1,0")).holds
    s = diagonal_operator(linf_3, [1, 1, 2])
    assert preserves_bj_directional(s, v("1,0,0"), v("1,0,0")).holds


def test_directional_rejects_non_supporting_functional(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    with pytest.raises(InputError):
        preserves_bj_directional(op, v("1,0,0"), v("0,1,0"))


def test_directional_decides_a_float_functional_in_rationals():
    # f = (1.0, 1 - 2^-53) is not in J(x) at x = (1, 1) on l1(2), exactly:
    # f(x) = 2 - 2^-53, though the float sum rounds to ||x|| = 2.  It is
    # refused as the same f in Fractions is.
    op = identity_operator(l1(2))
    f = (1.0, 1.0 - 2.0**-53)
    for functional in (f, tuple(F(c) for c in f)):
        with pytest.raises(InputError) as err:
            preserves_bj_directional(op, (1, 1), functional)
        assert err.value.code == "not_supporting"
    assert preserves_bj_directional(op, (1, 1), (1.0, 1.0)).holds


def test_preservation_fails_for_diag211_with_verified_counterexample(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    report = preserves_bj_at(op, v("1,0,0"))
    assert not report.holds
    y, margin = report.counterexample
    assert margin >= 1
    assert bj_orthogonal(l1_3, v("1,0,0"), y).orthogonal
    assert not bj_orthogonal(l1_3, op(v("1,0,0")), op(y)).orthogonal


def test_lp_certificates_and_counterexamples_are_pinned(l1_3):
    """Exact outputs of the LP path: a level test with |J(Tx)| = 2, a
    directional witness between two vertices of J(Tx), and the diag(2,1,1)
    counterexample at e1.  There f = (1,-1,-1) fails, and y = (1, 1/2, 1/2)
    has f(y) = 1 - 1/2 - 1/2 = 0, while the vertices g = (1, +-1, +-1) of
    J(Te1) give g(Ty) = 2 +- 1/2 +- 1/2 >= 1, with equality at g = (1,-1,-1)."""
    op = diagonal_operator(l1_3, [1, 1, 2])
    cert = is_level_vector(op, v("1,1,0"))
    assert (cert.f, cert.g, cert.level_number) == (v("1,1,-1"), v("1,1,-1/2"), 1)
    assert preserves_bj_directional(op, v("1,1,0"), v("1,1,0")).witness == v("1,1,0")
    report = preserves_bj_at(diagonal_operator(l1_3, [2, 1, 1]), v("1,0,0"))
    assert report.failing_functional == v("1,-1,-1")
    assert report.counterexample == (v("1,1/2,1/2"), 1)


def test_the_exact_path_scans_the_polar_table_once_per_point(hexagon, monkeypatch):
    # ||x|| with J(x), and ||Tx|| with J(Tx), come from one polar scan each:
    # 2 scans per level test and per preservation check, holding or refuted,
    # and per directional check, whose f in J(x) is read against that ||x||.
    x = v("1/3,2/3")
    f = support_set(hexagon, x).vertices[0]
    scan = spaces._integer_norm_and_face
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(spaces, "_integer_norm_and_face", counted)
    monkeypatch.setattr(support, "_integer_norm_and_face", counted)
    rotation = operator([[F(1, 3), F(-1, 3)], [F(1, 3), 0]], hexagon)  # a third of a hexagon symmetry
    dense = operator([[F(1, 2), 1], [F(1, 3), -1]], hexagon)
    for op, holds in ((rotation, True), (dense, False)):
        del calls[:]
        assert (is_level_vector(op, x) is not None) == holds
        assert len(calls) == 2
        del calls[:]
        report = preserves_bj_at(op, x)
        assert report.holds == holds and (report.counterexample is None) == holds
        assert len(calls) == 2
        del calls[:]
        assert preserves_bj_directional(op, x, f).holds == holds
        assert len(calls) == 2
    # Tx = 0 reads no image; f is still tested against ||x||.
    del calls[:]
    assert preserves_bj_directional(zero_operator(hexagon), x, f) == levels.DirectionalPreservation(True, None)
    assert len(calls) == 1


def test_directional_checks_its_functional_before_it_decides(hexagon, linf_3):
    # zero_vector comes before not_supporting, and not_supporting is raised
    # whether Tx is zero or not.
    x, outside = v("1/3,2/3"), v("1,1")
    for op in (operator([[F(1, 2), 1], [F(1, 3), -1]], hexagon), zero_operator(hexagon)):
        with pytest.raises(InputError) as err:
            preserves_bj_directional(op, (0, 0), outside)
        assert err.value.code == "zero_vector"
        with pytest.raises(InputError) as err:
            preserves_bj_directional(op, x, outside)
        assert err.value.code == "not_supporting"
    with pytest.raises(InputError) as err:
        preserves_bj_directional(zero_operator(linf_3), v("1,1,0"), v("1,1,0"))
    assert err.value.code == "not_supporting"


def test_float_preservation_reads_each_support_set_once(l3_3, monkeypatch):
    # The failed float level test's J(x), J(Tx) and T^T g are reused for the
    # counterexample search, not recomputed.
    calls = []
    real = levels.support_set
    monkeypatch.setattr(levels, "support_set", lambda space, x: calls.append(x) or real(space, x))
    report = preserves_bj_at(diagonal_operator(l3_3, [2, 1, 1]), v("1,1,0"))
    assert not report.holds and report.counterexample[0] == v("1/2,-1/2,0")
    assert len(calls) == 2


def test_preservation_holds_for_diag123_on_linf(linf_3):
    op = diagonal_operator(linf_3, [1, 2, 3])
    assert preserves_bj_at(op, v("1,0,0")).holds


def test_identity_preserves_everywhere(l1_3):
    op = identity_operator(l1_3)
    stream = RationalStream(3)
    for _ in range(20):
        x = stream.next_nonzero_vector(3)
        assert preserves_bj_at(op, x).holds


def test_kernel_condition_examples(l1_3):
    op = diagonal_operator(l1_3, [1, 1, 0])
    assert kernel_condition(op, v("1,0,0"))
    assert not kernel_condition(op, v("1,0,1/2"))
    injective = diagonal_operator(l1_3, [1, 2, 3])
    assert kernel_condition(injective, v("1,1,1"))


def test_kernel_condition_on_a_line_lists_no_vertices_and_solves_no_lp(monkeypatch):
    # With ker T = span(b) on l1 or l-inf the condition is read from x and b
    # alone: no J(x) vertex list and no LP, even on l1^12 at e1, where J(x)
    # has 2^11 vertices.  A 2-D kernel still takes the subspace LP.
    cases = []
    for n in (2, 3, 5, 12):
        for space in (l1(n), linf(n)):
            for op in (diagonal_operator(space, [1] * (n - 1) + [0]), diagonal_operator(space, [0] + [2] * (n - 1))):
                (b,) = kernel_basis(op.matrix)
                for x in (unit(n, 0), tuple(F(k % 3 - 1, k + 1) for k in range(n)), (F(1),) * n):
                    cases.append((op, x, bj_orthogonal(space, x, b).orthogonal or not any(op(x))))

    def refuse(*args, **kwargs):
        raise AssertionError("listed J(x) or solved an LP")

    monkeypatch.setattr(support, "_exact_vertices", refuse)
    monkeypatch.setattr(simplex, "solve_standard_lp", refuse)
    assert [kernel_condition(op, x) for op, x, _ in cases] == [want for _, _, want in cases]
    assert {want for _, _, want in cases} == {True, False}
    with pytest.raises(AssertionError):
        kernel_condition(diagonal_operator(l1(3), [1, 0, 0]), v("1,1,1"))


def test_kernel_condition_on_an_exact_domain_decides_in_integers(monkeypatch, hexagon):
    # The 1-D kernel and injective paths read Tx = 0 and the kernel from the
    # integer matrix of T: no Fraction matrix-vector product, no Fraction
    # kernel basis and no LP.  A 2-D kernel still builds its Fraction basis
    # from the same elimination and reaches the subspace LP.
    cases = []
    for space in (l1(4), linf(4), polyhedral_space(cube_cross_vertices(3)), hexagon):
        n = space.dim
        for op in (
            operator([[F(1, 2), F(-1, 3)] + [0] * (n - 2)] + [unit(n, i) for i in range(2, n)] + [[0] * n], space),
            operator([[F(k + 1, i + 2) if k <= i else 0 for k in range(n)] for i in range(n)], space),  # injective
        ):
            basis = kernel_basis(op.matrix)
            for x in (unit(n, 0), tuple(F(k % 3 - 1, k + 1) for k in range(n)), (F(1),) * n, (0.5,) * n):
                if not basis or not any(op(x)):
                    want = True
                else:
                    want = bj_orthogonal(space, x, basis[0]).orthogonal
                cases.append((op, x, want))
    assert {want for _, _, want in cases} == {True, False}

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(what)

        return refused

    for module in (linalg, levels):
        monkeypatch.setattr(module, "mat_vec", refuse("formed Tx in Fractions"))
        monkeypatch.setattr(module, "kernel_basis", refuse("built the Fraction kernel"))
    monkeypatch.setattr(spaces.Operator, "__call__", refuse("formed Tx in Fractions"))
    monkeypatch.setattr(simplex, "solve_standard_lp", refuse("solved an LP"))
    assert [kernel_condition(op, x) for op, x, _ in cases] == [want for _, _, want in cases]
    two_d = diagonal_operator(l1(3), [1, 0, 0])
    with pytest.raises(AssertionError, match="^solved an LP$"):
        kernel_condition(two_d, v("1,1,1"))


def test_kernel_condition_holds_on_level_vectors(l1_3, linf_3):
    # Necessary condition: every positive level result passes it.
    stream = RationalStream(77)
    for space in (l1_3, linf_3):
        for _ in range(10):
            rows = [[stream.next_fraction() for _ in range(3)] for _ in range(3)]
            rows[2] = [F(0), F(0), F(0)]  # force a kernel
            op = operator(rows, space)
            for _ in range(20):
                x = stream.next_nonzero_vector(3)
                if is_level_vector(op, x) is not None:
                    assert kernel_condition(op, x)


def test_midpoints_of_a_face_need_not_be_level(linf_2):
    # Level vectors on the top edge of the square: only |a| <= 1/2 qualifies,
    # so the level set inside a relative interior is not all-or-nothing.
    op = diagonal_operator(linf_2, [2, 1])
    assert is_level_vector(op, v("2/3,1")) is None
    assert is_level_vector(op, v("1/2,1")) is not None
    assert is_level_vector(op, v("-1/3,1")) is not None


def test_enumerate_exam_not_same(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    report = enumerate_level_numbers(op, 5, 42)
    assert set(report.values) == {F(1), F(4)}
    assert report.under_approximation is True
    assert report.bound == 4
    assert len(report.values) <= report.bound


def test_enumerate_extreme_example(l1_3):
    op = diagonal_operator(l1_3, [1, 2, 3])
    report = enumerate_level_numbers(op, 5, 42)
    assert {F(1), F(4), F(9)} <= set(report.values)
    assert len(report.values) <= report.bound == 13


def test_enumerate_identity(linf_2):
    report = enumerate_level_numbers(identity_operator(linf_2), 3, 0)
    assert report.values == (F(1),)


def test_enumerate_is_deterministic(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    assert enumerate_level_numbers(op, 4, 9) == enumerate_level_numbers(op, 4, 9)


def test_level_count_bound_values(l1_3, linf_3):
    assert level_count_bound(l1_3, diagonal_operator(l1_3, [1, 2, 3])) == 13
    assert level_count_bound(linf_3, diagonal_operator(linf_3, [1, 2, 3])) == 13
    with_kernel = diagonal_operator(linf_3, [1, 1, 0])
    assert level_count_bound(linf_3, with_kernel) == F(26 - 2, 2) + 1 == 13


def test_kernel_section_space_is_a_segment(linf_3):
    basis = kernel_basis(diagonal_operator(linf_3, [1, 1, 0]).matrix)
    section = kernel_section_space(linf_3, basis)
    assert section.dim == 1
    assert set(section.ball_vertices) == {(F(1),), (F(-1),)}


def test_zero_operator_bound_is_one(linf_2):
    from bjlevel import zero_operator

    assert level_count_bound(linf_2, zero_operator(linf_2)) == 1


@pytest.mark.parametrize(
    "make_space",
    [lambda: l1(5), lambda: linf(4), lambda: polyhedral_space(cube_cross_vertices(3))],
    ids=["l1^5", "linf^4", "cube-cross"],
)
def test_zero_operator_bound_skips_the_kernel_section(make_space):
    # ker T is the whole ball, so no section is scanned: the C(32, 5)-subset
    # scan of l1^5's dual cube took seconds.
    space = make_space()
    op = zero_operator(space)
    start = time.process_time()
    assert level_count_bound(space, op) == 1
    assert time.process_time() - start < 0.1


def test_bound_with_skew_kernel(linf_3):
    skew = operator([["1", "-1", "0"], ["0", "0", "1"], ["0", "0", "0"]], linf_3)
    # ker = span{(1,1,0)}; its ball section is a segment, so |G_0| = 2.
    assert level_count_bound(linf_3, skew) == F(26 - 2, 2) + 1


def test_bound_with_two_dimensional_kernel(linf_3):
    op = operator([["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]], linf_3)
    # ker = span{e1, e2}; the section ball is a square with 8 proper faces.
    assert level_count_bound(linf_3, op) == F(26 - 8, 2) + 1


def test_rectangular_operator_level_vectors(l1_3, linf_2):
    down = operator([["2", "0", "0"], ["0", "1", "0"]], l1_3, codomain=linf_2)
    cert = is_level_vector(down, v("1,0,0"))
    assert cert is not None and cert.level_number == 4
    certificate_is_sound(down, cert)
    report = enumerate_level_numbers(down, 2, 3)
    assert report.bound is None
    assert F(4) in report.values


def test_homogeneity_in_x_and_operator(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    x = v("1,0,0")
    for alpha in (F(3), F(-2), F(1, 5)):
        scaled = tuple(alpha * c for c in x)
        cert = is_level_vector(op, scaled)
        assert cert is not None and cert.level_number == 4
    doubled = diagonal_operator(l1_3, [4, 2, 2])
    assert is_level_vector(doubled, x).level_number == 16


def test_search_non_level_vector_on_kernel_operator(l1_3):
    op = diagonal_operator(l1_3, [1, 1, 0])
    found = search_non_level_vector(op, 500, 7)
    assert found is not None
    assert is_level_vector(op, found) is None


def test_l2_level_vectors_are_right_singular_vectors():
    space = l2(3)
    op = diagonal_operator(space, [2, 1, 1])
    cert = is_level_vector(op, v("1,0,0"))
    assert cert is not None and cert.level_number == 4
    assert is_level_vector(op, v("1,1,0")) is None
    rotation = operator([["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]], space)
    for x in [v("1,1,0"), v("1,2,3"), v("-1,0,5")]:
        assert is_level_vector(rotation, x).level_number == 1


def test_enumeration_matches_is_level_vector(linf_3, l1_3, hexagon):
    # Solving each distinct level subproblem once per call must leave every
    # reported number equal to the point's own is_level_vector verdict.
    levels = misses = 0
    for space in (linf_3, l1_3, hexagon, polyhedral_space(cube_cross_vertices(3))):
        ops = [op for seed in range(1, 4) for op in seeded_operator_kinds(space, seed)]
        ops.append(diagonal_operator(space, [1] + [0] * (space.dim - 1)))  # Tx = 0 on some faces
        for seed, op in enumerate(ops):
            report = enumerate_level_numbers(op, 3, seed)
            found = set()
            for probe in report.per_face:
                for point, number in zip(probe.points, probe.level_numbers):
                    cert = is_level_vector(op, point)
                    if cert is None:
                        assert number is None
                        misses += 1
                    else:
                        assert number == cert.level_number
                        found.add(cert.level_number)
                        levels += 1
            assert report.values == tuple(sorted(found))
    assert levels > 0 and misses > 0


def test_enumeration_solves_one_problem_per_class_of_image_norm_and_support(monkeypatch):
    # Enumeration's memo is keyed on ints (`_image_key`).  Per face it must
    # solve one level problem for each distinct (||Tx||, J(Tx)) with J(Tx)
    # not a singleton over the face's probe points, computed here in
    # Fractions: the key neither merges nor splits these classes.  A smooth
    # image J(Tx) = {q} never reaches `_solve_level`; the call reads
    # ||T^T q||_* once for each distinct such q (the edge path's check of
    # its own certificate is not such a read).  The sphere ball's facets
    # have large denominators (D > 1); two of the operators are not square.
    sphere = polyhedral_space(sphere_ball(random.Random(8), 3, 5, scale=40))
    assert spaces._polar_rows(sphere)[1] > 1
    hexagon = polyhedral_space(HEXAGON_VERTICES)
    domains = (l1(3), linf(3), linf(4), hexagon, polyhedral_space(cube_cross_vertices(3)), sphere)
    ops = [op for space in domains for op in seeded_operator_kinds(space, 2)]
    stream = RationalStream(5)
    ops.append(operator([[stream.next_fraction() for _ in range(3)] for _ in range(2)], linf(3), hexagon))
    ops.append(operator([[stream.next_fraction() for _ in range(2)] for _ in range(3)], hexagon, sphere))
    solved, dual_norms, in_edge = [], [], []
    solve, adjoint_dual_norm, edge = levels._solve_level, levels._adjoint_dual_norm, levels._edge_certificate

    def counted(op, point):
        assert len(point.q_rows) > 1, "a smooth image reached the level LP"
        solved.append(_j_vertices(op.domain, point))
        return solve(op, point)

    def counted_dual_norm(*args):
        if not in_edge:
            dual_norms.append(args)
        return adjoint_dual_norm(*args)

    def marked_edge(*args):
        in_edge.append(True)
        try:
            return edge(*args)
        finally:
            in_edge.pop()

    monkeypatch.setattr(levels, "_solve_level", counted)
    monkeypatch.setattr(levels, "_adjoint_dual_norm", counted_dual_norm)
    monkeypatch.setattr(levels, "_edge_certificate", marked_edge)
    points = classes = shared_support = smooth_points = smooth_images = 0
    for op in ops:
        del solved[:], dual_norms[:]
        report = enumerate_level_numbers(op, 6, 3)
        smooth = set()
        for probe in report.per_face:
            pairs = set()
            for x in probe.points:
                tx = op(x)
                if is_zero_vec(tx):
                    continue
                image_support = support_set(op.codomain, tx).vertices
                if len(image_support) == 1:
                    smooth.add(image_support)
                    smooth_points += 1
                else:
                    pairs.add((norm(op.codomain, tx), image_support))
                    points += 1
            j_face = support_set(op.domain, probe.points[0]).vertices
            assert solved.count(j_face) == len(pairs), (op, probe.face_vertices)
            classes += len(pairs)
            shared_support += len(pairs) - len({j for _, j in pairs})
        assert len(dual_norms) == len(smooth), op
        smooth_images += len(smooth)
    # Classes repeat within faces, and some share J(Tx) at another ||Tx||;
    # smooth images repeat across the points of a call.
    assert points > classes and shared_support > 0
    assert smooth_points > smooth_images > 0


def test_the_smooth_table_is_per_functional_and_the_comparison_per_point():
    # One smooth J(Tx) = {q} is met at points of several faces, at several
    # ||Tx||: the call reads c_q = ||T^T q||_* once, and each point is level
    # exactly when its own ||Tx|| is c_q.  Some points of each such q are
    # level vectors and some are not, and every number must be the point's
    # is_level_vector verdict.  Codomains: the sphere ball (D_Q > 1), the
    # hexagon and l1; three of the operators are not square.
    sphere = polyhedral_space(sphere_ball(random.Random(8), 3, 5, scale=40))
    assert spaces._polar_rows(sphere)[1] > 1
    hexagon = polyhedral_space(HEXAGON_VERTICES)
    stream = RationalStream(5)

    def dense(rows, cols):
        return [[stream.next_fraction() for _ in range(cols)] for _ in range(rows)]

    ops = [
        operator(dense(3, 2), hexagon, sphere),
        operator(dense(3, 3), l1(3), sphere),
        operator(dense(2, 3), linf(3), hexagon),
        operator(dense(2, 3), sphere, l1(2)),
        *seeded_operator_kinds(sphere, 5),
    ]
    for op in ops:
        report = enumerate_level_numbers(op, 6, 5)
        by_q = {}
        for face, probe in enumerate(report.per_face):
            for x, number in zip(probe.points, probe.level_numbers):
                cert = is_level_vector(op, x)
                assert number == (None if cert is None else cert.level_number)
                tx = op(x)
                if is_zero_vec(tx):
                    continue
                image_support = support_set(op.codomain, tx).vertices
                if len(image_support) == 1:
                    faces, norms, verdicts = by_q.setdefault(image_support, (set(), set(), set()))
                    faces.add(face)
                    norms.add(norm(op.codomain, tx))
                    verdicts.add(cert is not None)
        assert any(
            len(faces) > 1 and len(norms) > 1 and verdicts == {True, False} for faces, norms, verdicts in by_q.values()
        ), op


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
def test_the_integer_smooth_image_test_is_the_dual_norm_test(make_space):
    # On a smooth image, x is a level vector iff ||T^T q||_* = scale, read
    # in integers on T^T q = image / den as a pair in lowest terms.  It must
    # be dual_norm's value, and the largest value on the ball's vertices', so
    # the verdict is theirs at equality and 10^-24 to either side of it, and
    # at a random scale, with den up to 10^12.
    space = make_space()
    rng = random.Random(space.dim + len(ball_vertices(space)))
    verdicts = []
    for _ in range(40):
        image = tuple(rng.randint(-(10**6), 10**6) for _ in range(space.dim))
        den = rng.randint(1, 10**12)
        f = tuple(F(c, den) for c in image)
        exact = max(dot(f, p) for p in ball_vertices(space))
        n, d = levels._adjoint_dual_norm(space, image, den)
        assert F(n, d) == dual_norm(space, f) == exact and (n, d) == (exact.numerator, exact.denominator)
        tiny = F(1, 10**24)
        for scale in (exact, exact + tiny, exact - tiny, F(rng.randint(1, 10**12), rng.randint(1, 10**12))):
            verdict = (n, d) == (scale.numerator, scale.denominator)
            assert verdict == (dual_norm(space, f) == scale) == (exact == scale)
            verdicts.append(verdict)
    assert verdicts.count(True) == 40 and len(verdicts) == 160


def _enumeration_spaces():
    """l-inf^2..4, l1^2..4, the hexagon and the 14-vertex cube+2*cross ball."""
    spaces = [linf(n) for n in (2, 3, 4)] + [l1(n) for n in (2, 3, 4)]
    return spaces + [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))]


def _enumeration_operators(space):
    """Nine operators: the three seeded kinds (scaled signed permutation,
    diagonal, dense), graded and plain diagonals, a rank-deficient one, zero,
    the identity and twice a signed permutation."""
    n = space.dim
    stream = RationalStream(17 + n)
    rank_deficient = [[stream.next_fraction() if r < n - 1 else 0 for _ in range(n)] for r in range(n)]
    flip = [[2 * (-1) ** r if c == n - 1 - r else 0 for c in range(n)] for r in range(n)]
    return [
        *seeded_operator_kinds(space, 1),
        diagonal_operator(space, [F(k + 1, 2) for k in range(n)]),
        diagonal_operator(space, [1 + k % 2 for k in range(n)]),
        operator(rank_deficient, space),
        zero_operator(space),
        identity_operator(space),
        operator(flip, space),
    ]


def test_probe_points_have_the_face_support_set_and_unit_norm():
    # Enumeration reads J(x) from its probe table and takes ||x|| = 1; both
    # must hold at every point it reports, sampled or not.
    rng = random.Random(4)
    spheres = [polyhedral_space(sphere_ball(rng, 2, 5)), polyhedral_space(sphere_ball(rng, 3, 6))]
    for space in _enumeration_spaces() + spheres:
        table = levels._probe_table(space)
        for seed in (0, 5):
            report = enumerate_level_numbers(identity_operator(space), 3, seed)
            assert len(report.per_face) == len(table)
            for probe, (face, first, j_face, *_) in zip(report.per_face, table):
                assert probe.face_vertices == face.vertices and probe.points[0] == first
                for x in probe.points:
                    assert norm(space, x) == 1
                    assert support_set(space, x).vertices == tuple(support._face_vertices(space, j_face))


def test_enumeration_reports_are_pinned():
    # Values, bound, every probe point and every level number of 144 reports,
    # as the point-by-point enumeration gave them before the probe table.
    reports = []
    for space in _enumeration_spaces():
        for op in _enumeration_operators(space):
            for samples in (0, 3):
                report = enumerate_level_numbers(op, samples, 11 + samples)
                reports.append([
                    [str(k) for k in report.values],
                    str(report.bound),
                    [
                        [[[str(c) for c in x] for x in probe.points], [str(k) for k in probe.level_numbers]]
                        for probe in report.per_face
                    ],
                ])
    assert len(reports) == 144
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "f0ea81e202c6ff1c21303fe19087277a3f5d0f2e4d531210eba7a12044fa7191"


def test_enumeration_checks_each_certificate_it_solves(linf_3, monkeypatch):
    # A smooth image's certificate (T^T q / c_q, q, c_q^2), built by the
    # call's table and not by `_solve_level`, is checked against
    # T^T g = ||Tx|| f when it is first built: a corrupted one raises.
    certificate = levels._smooth_certificate

    def corrupted(*args):
        f, *rest = certificate(*args)
        return (tuple(2 * c for c in f), *rest)

    def refused(op, point):
        assert len(point.q_rows) > 1, "a smooth image reached the level LP"
        return solve(op, point)

    solve = levels._solve_level
    monkeypatch.setattr(levels, "_solve_level", refused)
    op = diagonal_operator(linf_3, [3, 2, 1])
    assert enumerate_level_numbers(op, 0, 0).values == (1, 4, 9)
    monkeypatch.setattr(levels, "_smooth_certificate", corrupted)
    with pytest.raises(InternalCheckError):
        enumerate_level_numbers(op, 0, 0)


def test_the_exact_path_builds_no_fraction_transpose(hexagon, monkeypatch):
    # T^T g is read from the integer images M^T (D_Q g) alone, with D_T > 1
    # (a rational matrix) and D_Q > 1 (a codomain with non-integer facets).
    def refused(matrix):
        raise AssertionError("the exact path built T^T in Fractions")

    monkeypatch.setattr(levels, "transpose", refused)
    outcomes = set()
    for domain in (l1(3), linf(3), hexagon):
        n = domain.dim
        codomain = polyhedral_space(tuple(2 * c for c in u) for u in spaces.ball_vertices(domain))
        assert spaces._polar_rows(codomain)[1] > 1
        for matrix in (
            [[F(1, 2 + i) if i == j else 0 for j in range(n)] for i in range(n)],
            [[F(i + 1, 3) if i == j else F(j - i, 2) for j in range(n)] for i in range(n)],
        ):
            op = operator(matrix, domain, codomain)
            assert integer_rows(op.matrix)[0] > 1
            report = enumerate_level_numbers(op, 1, 3)
            for probe in report.per_face:
                for x, k in zip(probe.points, probe.level_numbers):
                    cert = is_level_vector(op, x)
                    assert (None if cert is None else cert.level_number) == k
                    if cert is not None:
                        certificate_is_sound(op, cert)
                    outcomes.add((cert is not None, preserves_bj_at(op, x).holds))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_enumeration_keeps_the_l1_support_guard():
    # J(Tx) on l1 has 2^z vertices for z zero coordinates of Tx, read here
    # from the integer image Mq; past MAX_CUBE_DIM zeros it is still refused.
    # The 14-D l1 codomain is built directly, past lp_space's own guard.
    wide = SpaceSpec("lp", 14, F(1))
    op = operator([[F(1, 3), 0]] + [[0, 0]] * 13, linf(2), wide)
    with pytest.raises(InputError) as err:
        enumerate_level_numbers(op, 0, 0)
    assert err.value.code == "dim_too_large"


@pytest.mark.parametrize("samples", [0, 2])
def test_a_certificate_failing_its_equation_is_refused(samples, hexagon, monkeypatch):
    # A certificate whose g fails T^T g = scale f, on a rational matrix and a
    # polyhedral codomain, raises from enumeration and from is_level_vector.
    solve = levels._solve_level

    def wrong_g(*args):
        found = solve(*args)
        return None if found is None else (found[0], tuple(-c for c in found[1]), found[2])

    monkeypatch.setattr(levels, "_solve_level", wrong_g)
    op = operator([[F(1, 2), 0], [0, F(1, 2)]], hexagon)  # every nonzero x is a level vector
    with pytest.raises(InternalCheckError):
        enumerate_level_numbers(op, samples, 1)
    with pytest.raises(InternalCheckError):
        is_level_vector(op, v("1,1"))


def _j_vertices(domain, point):
    """The vertex list of J(x), from the face a `levels._Point` names it by."""
    return tuple(support._face_vertices(domain, point.p_face))


def _image_vertices(op, point):
    """The vertex list of J(Tx), from the face of the key of a `levels._Point`."""
    return tuple(support._face_vertices(op.codomain, point.key[0]))


def _level_lp(op, point):
    """The level LP over the vertices of J(x) and J(Tx): (f, g, k) or None."""
    p_verts = _j_vertices(op.domain, point)
    negated = [vec_scale(-F(*point.scale), p) for p in p_verts]
    weights = simplex.convex_weights([negated, point.adj], (F(0),) * op.domain.dim)
    if weights is None:
        return None
    lam, mu = weights
    return linalg.combination(lam, p_verts), linalg.combination(mu, _image_vertices(op, point)), F(*point.scale) ** 2


def _edge_t_by_lp(op, point, sign):
    """The least (sign 1) or greatest (sign -1) t with (1 - t) q0 + t q1 in
    a level certificate, by the level LP with the objective min sign t, or
    None when it is infeasible."""
    negated = [vec_scale(-F(*point.scale), p) for p in _j_vertices(op.domain, point)]
    columns = negated + list(point.adj)
    rows = [[c[k] for c in columns] for k in range(op.domain.dim)]
    rows.append([F(1)] * len(negated) + [F(0), F(0)])
    rows.append([F(0)] * len(negated) + [F(1), F(1)])
    cost = [F(0)] * (len(negated) + 1) + [F(sign)]
    result = simplex.solve_standard_lp(rows, [F(0)] * op.domain.dim + [F(1), F(1)], cost)
    return None if result.x is None else result.x[-1]


def _edge_battery(seed, tries):
    """Operators and points with an edge image J(Tx), between l1, l-inf and
    polyhedral spaces of dimensions 2 and 3, square and not."""
    rng = random.Random(seed)
    hexagon, cube_cross = polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))
    spaces_ = (l1(2), l1(3), linf(2), linf(3), hexagon, cube_cross)
    for _ in range(tries):
        domain, codomain = rng.choice(spaces_), rng.choice(spaces_)
        matrix = [
            [F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(domain.dim)] for _ in range(codomain.dim)
        ]
        op = operator(matrix, domain, codomain)
        x = tuple(F(rng.randint(-2, 2)) for _ in range(domain.dim))
        if not any(x):
            continue
        point = levels._evaluate(op, x)
        if point is not None and len(point.q_rows) == 2:
            yield op, x, point


def _kind(space):
    return space.kind if space.kind == "polyhedral" else {1: "l1", "inf": "linf"}[space.p]


def test_the_edge_image_test_agrees_with_the_level_lp():
    # On J(Tx) = [q0, q1] the level test is one interval in t, with no LP:
    # its verdict is the LP's, its certificate verifies (T^T g = scale f,
    # ||f||_* = 1, g on the edge), and it sits at the least feasible t, which
    # the LP with the objective min t finds independently.  Every domain kind
    # meets t = 0, t inside (0, 1) and no feasible t; some operators are not
    # square, and some intervals have more than one point.
    seen, same_as_lp, wide = set(), 0, 0
    for op, x, point in _edge_battery(24, 6000):
        found = levels._checked(point.d_t, point.m_rows, point.scale, levels._solve_level(op, point))
        lp = _level_lp(op, point)
        assert (found is None) == (lp is None), (op, x)
        least = _edge_t_by_lp(op, point, 1)
        q0, q1 = _image_vertices(op, point)
        if found is None:
            assert least is None
            outcome = "none"
        else:
            f, g, k = found
            assert dual_norm(op.domain, f) == 1 and k == F(*point.scale) ** 2
            assert g == tuple((1 - least) * a + least * b for a, b in zip(q0, q1)), (op, x)
            outcome = "t=0" if least == 0 else "t=1" if least == 1 else "inside"
            same_as_lp += found == lp
            wide += _edge_t_by_lp(op, point, -1) > least
        seen.add((_kind(op.domain), outcome))
        if op.domain.dim != op.codomain.dim:
            seen.add((_kind(op.domain), "non-square"))
    # How many certificates equal the LP's is reported, not pinned: the LP
    # may return the other end of the interval.
    kinds = ("l1", "linf", "polyhedral")
    assert {(k, o) for k in kinds for o in ("t=0", "inside", "none", "non-square")} <= seen, (seen, same_as_lp)
    assert wide > 0, (seen, same_as_lp)


# One edge image per domain kind, each decided at a t inside (0, 1): the
# operator, its domain and codomain, x, the level number and g.
EDGE_CASES = (
    ([[1, 0], [0, -1]], "l1", "hexagon", "1,-1", F(1, 4), "1/2,1/2"),
    ([[0, -1], [1, 0]], "linf", "l1", "0,1", 1, "-1,0"),
    ([[0, 1], [1, 0]], "hexagon", "l1", "-1,0", 1, "0,-1"),
)


def _edge_case(hexagon, matrix, domain, codomain):
    spaces_ = {"l1": l1(2), "linf": linf(2), "hexagon": hexagon}
    return operator(matrix, spaces_[domain], spaces_[codomain])


@pytest.mark.parametrize("matrix, domain, codomain, x, k, g", EDGE_CASES)
def test_edge_image_certificates_are_pinned(matrix, domain, codomain, x, k, g, hexagon):
    op = _edge_case(hexagon, matrix, domain, codomain)
    assert len(support_set(op.codomain, op(v(x))).vertices) == 2
    cert = is_level_vector(op, v(x))
    assert (cert.level_number, cert.g) == (k, v(g))
    certificate_is_sound(op, cert)


def test_edge_images_are_decided_without_an_lp(hexagon, monkeypatch):
    # is_level_vector and enumeration decide edge images with the simplex
    # refused; every codomain is 2-D, so no J(Tx) has three vertices.  A
    # J(Tx) with three vertices still reaches the LP.
    ops = [_edge_case(hexagon, *case[:3]) for case in EDGE_CASES]
    ops += [op for space in (l1(2), linf(2), hexagon) for op in seeded_operator_kinds(space, 4)]
    stream = RationalStream(9)
    ops.append(operator([[stream.next_fraction() for _ in range(3)] for _ in range(2)], linf(3), hexagon))
    ops.append(operator([[stream.next_fraction() for _ in range(3)] for _ in range(2)], l1(3), linf(2)))
    reports = [enumerate_level_numbers(op, 4, 2) for op in ops]
    edges = []
    edge = levels._edge_certificate

    def counted(domain, point):
        edges.append(point)
        return edge(domain, point)

    def refused(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(simplex, "solve_standard_lp", refused)
    monkeypatch.setattr(levels, "_edge_certificate", counted)
    verdicts = set()
    for op, report in zip(ops, reports):
        assert enumerate_level_numbers(op, 4, 2) == report
        for probe in report.per_face:
            for x, k in zip(probe.points, probe.level_numbers):
                cert = is_level_vector(op, x)
                assert (None if cert is None else cert.level_number) == k
                verdicts.add(cert is not None)
    assert verdicts == {True, False} and len(edges) > 20
    with pytest.raises(AssertionError, match="the simplex ran"):
        is_level_vector(identity_operator(linf(3)), v("1,1,1"))


def test_an_edge_certificate_without_dual_norm_one_is_refused(hexagon, monkeypatch):
    # With its bounds dropped the interval is all of [0, 1], and the
    # certificate at t = 0 still satisfies T^T g = scale f, but its f has
    # ||f||_* > 1, outside J(x): the dual-norm check refuses it.
    matrix, domain, codomain, x, _, _ = EDGE_CASES[0]
    op = _edge_case(hexagon, matrix, domain, codomain)
    assert is_level_vector(op, v(x)) is not None
    monkeypatch.setattr(levels, "_edge_rows", lambda domain, a0, a1: (1, (), ()))
    with pytest.raises(InternalCheckError, match="dual norm"):
        is_level_vector(op, v(x))


def _full_list_preservation(op, x):
    """`preserves_bj_at` as it was with J(x) listed in full: every vertex of
    `support_set` in sorted order (sorted here, not taken on trust), the
    first failure's counterexample re-verified in Fractions on the two
    vertex lists."""
    point = levels._evaluate(op, x)
    if point is None:
        return levels.PreservationReport(True, None, None, "exact")
    p_verts = sorted(support_set(op.domain, x).vertices)
    for f in p_verts:
        _, z = levels._membership(point, *integer_point(f))
        if z is not None:
            y = levels._counterexample(point, *integer_point(f), *z)
            on_x = [dot(p, y) for p in p_verts]
            assert min(on_x) <= 0 <= max(on_x)
            margin = min(dot(g, op(y)) for g in support_set(op.codomain, op(x)).vertices)
            assert margin > 0
            return levels.PreservationReport(False, f, (y, margin), "exact")
    return levels.PreservationReport(True, None, None, "exact")


def _record_boxes(monkeypatch):
    """Patch the l1 box builder to record, per box asked for, its sign
    pattern and how many vertices were drawn, and to refuse a third."""
    box, drawn = support._box_vertices, []

    def recorded(x):
        record = [tuple(x), 0]
        drawn.append(record)
        for f in box(x):
            record[1] += 1
            if record[1] > 2:
                raise AssertionError("listed a J(x) box")
            yield f

    monkeypatch.setattr(support, "_box_vertices", recorded)
    return drawn


def test_smooth_and_edge_images_list_no_j_x(monkeypatch):
    # A smooth-image refutation at a vertex of l1^6, where J(x) is a box of
    # 32 vertices, draws at most two of them: the only member of the image is
    # T^T g, so the first vertex or the second fails.  is_level_vector on a
    # smooth or an edge image never asks for J(x).  The box builder refuses
    # a third vertex; a J(Tx) with three vertices still lists J(x) for the
    # level LP.
    rng = random.Random(25)
    space = l1(6)
    op = operator([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)] for _ in range(6)], space)
    vertices = ball_vertices(space)
    want = [preserves_bj_at(op, x) for x in vertices]
    assert want == [_full_list_preservation(op, x) for x in vertices]
    assert not any(r.holds for r in want)
    certified = isometry.certify_scalar_isometry_polyhedral(op)
    cases, kinds = [], set()
    for n in (4, 5):
        for codomain in (linf(2), linf(3), polyhedral_space(HEXAGON_VERTICES)):
            for _ in range(12):
                lop = operator([[rng.randint(-2, 2) for _ in range(n)] for _ in range(codomain.dim)], l1(n), codomain)
                for x in rng.sample(list(ball_vertices(l1(n))), 4) + [v("1,-1" + ",0" * (n - 2)), v("0,1,1" + ",0" * (n - 3))]:
                    tx = lop(x)
                    if is_zero_vec(tx) or len(support_set(codomain, tx).vertices) > 2:
                        continue
                    cert = is_level_vector(lop, x)
                    cases.append((lop, x, cert))
                    kinds.add((len(support_set(codomain, tx).vertices), cert is not None))
    assert kinds == {(1, True), (1, False), (2, True), (2, False)}
    drawn = _record_boxes(monkeypatch)
    assert [preserves_bj_at(op, x) for x in vertices] == want
    assert isometry.certify_scalar_isometry_polyhedral(op) == certified
    assert drawn and all(count <= 2 for _, count in drawn)
    assert any(count == 1 and face.count(0) == 5 for face, count in drawn)  # J(x), stopped at once
    del drawn[:]
    assert all(is_level_vector(lop, x) == cert for lop, x, cert in cases) and drawn == []
    reaches = operator([[1, 0, 0]] * 3, l1(3), linf(3))  # T e1 = (1, 1, 1): J(Tx) has three vertices
    with pytest.raises(AssertionError, match="listed a J"):
        is_level_vector(reaches, v("1,0,0"))


def test_preservation_reports_equal_the_full_list_loop():
    # The lazy walk of J(x) gives the reports of the loop over its full
    # vertex list: holds, failing functional, counterexample and margin, on
    # vertices and on points with zeros and ties, smooth images and not.
    seen = set()
    rng = random.Random(7)
    balls = [l1(n) for n in (3, 4, 5)] + [linf(n) for n in (3, 4, 5)]
    balls += [polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))]
    for space in balls:
        points = rng.sample(list(ball_vertices(space)), 6)
        points += [tuple(F(rng.randint(-1, 1)) for _ in range(space.dim)) for _ in range(6)]
        for op in [op for seed in (1, 2) for op in seeded_operator_kinds(space, seed)]:
            for x in points:
                if not any(x):
                    continue
                report = preserves_bj_at(op, x)
                assert report == _full_list_preservation(op, x), (op, x)
                seen.add((space, report.holds))
    assert seen == {(space, holds) for space in balls for holds in (True, False)}


def test_a_smooth_image_refutation_can_fail_at_the_second_vertex(l1_2):
    # J(Tx) = {(1, 1)} at x = (1, 0), scale 3: T^T (1, 1) / 3 = (1, -1) is the
    # first vertex of J(x), which is preserved, and (1, 1) fails.
    op = operator([[2, -1], [1, -2]], l1_2)
    x = v("1,0")
    assert support_set(l1_2, op(x)).vertices == (v("1,1"),)
    assert support_set(l1_2, x).vertices == (v("1,-1"), v("1,1"))
    report = preserves_bj_at(op, x)
    assert (report.holds, report.failing_functional, report.counterexample) == (False, v("1,1"), (v("1/6,-1/6"), 1))
    assert report == _full_list_preservation(op, x)


def _refused_stream(seed):
    raise AssertionError("sampling started")


def test_enumeration_caps_faces_times_samples_before_sampling(monkeypatch):
    # linf^4 has 40 antipodal face pairs; the cap is 500,000 probe points
    # there, so 12,500 samples a face pass the guard and 12,501 do not.
    op = diagonal_operator(linf(4), [1, 2, 3, 4])
    monkeypatch.setattr(levels, "RationalStream", _refused_stream)
    with pytest.raises(AssertionError, match="sampling started"):
        enumerate_level_numbers(op, 12_500, 1)
    for samples in (12_501, 10**9):
        with pytest.raises(InputError) as err:
            enumerate_level_numbers(op, samples, 1)
        assert err.value.code == "too_many_samples" and "guard of 500,000" in str(err.value)
    # In 7-D the cap is 20,000,000 / 7^2 = 408,163 points over 1,093 faces.
    op = identity_operator(linf(7))
    with pytest.raises(AssertionError, match="sampling started"):
        enumerate_level_numbers(op, 373, 1)
    with pytest.raises(InputError, match="guard of 408,163"):
        enumerate_level_numbers(op, 374, 1)


def _refused_probe(*args):
    raise AssertionError("a face was probed")


def test_enumeration_meets_the_bound_guard_before_probing_a_face(monkeypatch):
    # ker T is 4-D, and the kernel section of the l1^6 ball is the polar of
    # the 64 sign vectors restricted to it: C(64, 4) subsets, past the polar
    # guard.  The bound is evaluated before any draw, so no face is probed
    # and no stream is started before the guard raises.
    rows = [[-2, 1, -1, 2, 0, -2], [0, -1, -2, 2, 1, 0]] + [[0] * 6] * 4
    op = operator(rows, l1(6))
    monkeypatch.setattr(levels, "_face_level_number", _refused_probe)
    monkeypatch.setattr(levels, "RationalStream", _refused_stream)
    with pytest.raises(InputError) as err:
        enumerate_level_numbers(op, 1, 1)
    assert err.value.code == "too_many_vertices" and "C(64,4)" in str(err.value)


def test_smooth_and_edge_images_build_no_fraction_list_of_j_tx(hexagon, monkeypatch):
    # J(Tx) is read as the integer rows of its face: with every Fraction
    # lister of a support set refused, preservation and the level test on
    # smooth and edge images (2-D codomains), and bj_orthogonal on l1 and
    # l-inf, still decide, with the reports they give unrefused.
    ops = [_edge_case(hexagon, *case[:3]) for case in EDGE_CASES]
    ops += [op for space in (l1(2), linf(2), hexagon) for op in seeded_operator_kinds(space, 6)]
    stream = RationalStream(12)
    ops.append(operator([[stream.next_fraction() for _ in range(4)] for _ in range(2)], l1(4), linf(2)))
    ops.append(operator([[stream.next_fraction() for _ in range(3)] for _ in range(2)], linf(3), hexagon))
    points = {op: [x for x in (*ball_vertices(op.domain)[:4], stream.next_nonzero_vector(op.domain.dim)) if any(op(x))] for op in ops}
    want = {(op, x): (preserves_bj_at(op, x), is_level_vector(op, x)) for op in ops for x in points[op]}
    pairs = [(space, stream.next_nonzero_vector(n), stream.next_nonzero_vector(n)) for n in (2, 5, 9) for space in (l1(n), linf(n))]
    pairs += [(space, unit(space.dim, 0), (F(0),) + (F(1),) * (space.dim - 1)) for space in (l1(6), linf(6))]
    verdicts = [bj_orthogonal(space, x, y) for space, x, y in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("listed a support set in Fractions")

    for module, name in ((support, "_face_vertices"), (support, "_exact_vertices"), (support, "_norm_and_face"),
                         (support, "_vertex_extremes"), (levels, "support_set"), (levels, "_face_vertices")):
        monkeypatch.setattr(module, name, refuse)
    sizes = set()
    for (op, x), report in want.items():
        assert (preserves_bj_at(op, x), is_level_vector(op, x)) == report, (op, x)
        sizes.add(len(levels._evaluate(op, x).q_rows))
    assert sizes == {1, 2}
    assert [bj_orthogonal(space, x, y) for space, x, y in pairs] == verdicts
    assert {r.holds for r, _ in want.values()} == {True, False} == {c is not None for _, c in want.values()}
