"""Isometry certification, grid probing, the identity test and adjoint transfer."""

from fractions import Fraction

import pytest

from bjlevel import (
    InputError,
    adjoint,
    adjoint_level_transfer,
    bj_orthogonal,
    bj_orthogonal_oracle,
    certify_scalar_isometry_polyhedral,
    diagonal_operator,
    extreme_points,
    identity_operator,
    is_level_vector,
    l1,
    l2,
    linf,
    norm,
    operator,
    polyhedral_space,
    preserves_bj_at,
    preserves_bj_directional,
    probe_scalar_isometry_grid,
    sample_sphere,
    scalar_identity_test,
    zero_operator,
)

from ._util import HEXAGON_VERTICES, cube_cross_vertices, isometry_group, seeded_operator_kinds, v

F = Fraction


def test_certify_refutes_diag123_on_l1(l1_3):
    op = diagonal_operator(l1_3, [1, 2, 3])
    report = certify_scalar_isometry_polyhedral(op)
    assert report.verdict == "refuted"
    x, y = report.witness
    assert bj_orthogonal(l1_3, x, y).orthogonal
    assert not bj_orthogonal(l1_3, op(x), op(y)).orthogonal


def test_level_at_extremes_does_not_imply_isometry(l1_3):
    # All six extreme points are level vectors, yet certification refutes.
    op = diagonal_operator(l1_3, [1, 2, 3])
    numbers = set()
    for u in [v("1,0,0"), v("-1,0,0"), v("0,1,0"), v("0,-1,0"), v("0,0,1"), v("0,0,-1")]:
        cert = is_level_vector(op, u)
        assert cert is not None
        numbers.add(cert.level_number)
    assert numbers == {F(1), F(4), F(9)}
    assert certify_scalar_isometry_polyhedral(op).verdict == "refuted"


def test_certify_signed_permutation_on_linf4():
    space = linf(4)
    perm = operator(
        [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        space,
    )
    report = certify_scalar_isometry_polyhedral(perm)
    assert report.verdict == "certified" and report.scale == 1


def test_certify_scaled_identity(l1_3):
    report = certify_scalar_isometry_polyhedral(diagonal_operator(l1_3, [3, 3, 3]))
    assert report.verdict == "certified" and report.scale == 3


def test_certify_zero_operator(l1_3):
    report = certify_scalar_isometry_polyhedral(zero_operator(l1_3))
    assert report.verdict == "certified" and report.scale == 0


def test_probe_orthogonal_matrix_on_l2_is_inconclusive_positive():
    space = l2(3)
    rotation = operator([["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]], space)
    report = probe_scalar_isometry_grid(rotation, space, 200, 5)
    assert report.verdict == "inconclusive"
    assert report.scale == pytest.approx(1.0, rel=1e-9)


def test_probe_refutes_diag211_on_l1(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    report = probe_scalar_isometry_grid(op, l1_3, 200, 5)
    assert report.verdict == "refuted"
    assert report.witness is not None
    x, y = report.witness
    assert bj_orthogonal(l1_3, x, y).orthogonal
    assert not bj_orthogonal(l1_3, op(x), op(y)).orthogonal


def test_probe_zero_operator_certified(l2_3):
    report = probe_scalar_isometry_grid(zero_operator(l2_3), l2_3, 10, 1)
    assert report.verdict == "certified" and report.scale == 0


CASE_T = [["3", "-2", "0"], ["1", "0", "0"], ["0", "0", "1"]]
CASE_S_12 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]


@pytest.mark.parametrize(
    "matrix,candidates,expected_failure",
    [
        (CASE_S_12, ["1,0,0", "1,1/2,0", "1,0,1/2"], "i"),
        (CASE_T, ["1,1,0", "1,1/2,0", "1,1,1/2"], "ii"),
        (CASE_T, ["1,1/2,0", "1,1,0", "1,1,1/2"], "iii"),
        (CASE_S_12, ["1,0,0", "1,1/2,0", "0,0,1"], "iv"),
    ],
)
def test_scalar_identity_paper_cases(linf_3, matrix, candidates, expected_failure):
    op = operator(matrix, linf_3)
    report = scalar_identity_test(op, [v(c) for c in candidates])
    assert report.failed_conditions == (expected_failure,)
    assert not report.certified
    assert report.independent


def test_scalar_identity_certifies_doubled_identity(linf_3):
    op = diagonal_operator(linf_3, [2, 2, 2])
    report = scalar_identity_test(op, [v("1,1/2,1/4"), v("1/2,1,1/4"), v("1/4,1/2,1")])
    assert report.certified and report.eigenvalue == 2


def test_scalar_identity_input_errors(linf_3):
    op = diagonal_operator(linf_3, [2, 2, 2])
    with pytest.raises(InputError):
        scalar_identity_test(op, [v("1,0,0"), v("0,1,0")])
    with pytest.raises(InputError):
        scalar_identity_test(op, [v("1,0,0"), v("0,1,0"), v("0,0,1/2")])


def test_scalar_identity_decides_float_candidates_on_an_exact_space_in_rationals():
    # T(1/2, 1/2) = (1/2 + 2^-61, 1/2) is not a multiple of (1/2, 1/2), but
    # in floats 1/2 + 2^-61 rounds to 1/2.
    op = operator([[1, F(1, 2**60)], [0, 1]], l1(2))
    exact = scalar_identity_test(op, [(F(1, 2), F(1, 2)), (F(1), F(0))])
    floats = scalar_identity_test(op, [(0.5, 0.5), (1.0, 0.0)])
    assert not exact.eigenvectors
    assert floats == exact


def test_adjoint_transfer_decides_float_input_on_an_exact_space_in_rationals():
    # 2^-1100 underflows to 0.0 in floats, so T(1.0, 0.0) read as Tx = 0.
    op = diagonal_operator(l1(2), [F(1, 2**1100)] * 2)
    record = adjoint_level_transfer(op, (1.0, 0.0))
    assert record.level_number == F(1, 2**2200)
    assert record == adjoint_level_transfer(op, (F(1), F(0)))


def test_adjoint_transfer_diag123_linf(linf_3):
    op = diagonal_operator(linf_3, [1, 2, 3])
    record = adjoint_level_transfer(op, v("1,0,0"))
    assert record.psi == v("1,0,0")
    assert record.level_number == 1
    assert record.dual_certificate.level_number == 1


def test_adjoint_transfer_identity(l1_3):
    record = adjoint_level_transfer(identity_operator(l1_3), v("1,0,0"))
    assert record.level_number == 1


def test_adjoint_transfer_diag21_linf2(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    record = adjoint_level_transfer(op, v("1,1"))
    assert record.psi == v("1,0")
    assert record.level_number == 4
    assert record.dual_certificate.level_number == 4


def test_adjoint_transfer_errors(linf_2):
    op = diagonal_operator(linf_2, [2, 1])
    with pytest.raises(InputError):
        adjoint_level_transfer(op, v("1/2,1/2"))  # not unit
    with pytest.raises(InputError):
        adjoint_level_transfer(op, v("3/4,1"))  # not a level vector
    with pytest.raises(InputError):
        adjoint_level_transfer(diagonal_operator(linf_2, [0, 0]), v("1,1"))


def test_transfer_passes_directional_preservation_on_dual_side(linf_3, linf_2):
    for op, x in [
        (diagonal_operator(linf_3, [1, 2, 3]), v("1,0,0")),
        (diagonal_operator(linf_2, [2, 1]), v("1,1")),
    ]:
        record = adjoint_level_transfer(op, x)
        dual_op = adjoint(op)
        check = preserves_bj_directional(dual_op, tuple(record.psi), record.dual_certificate.f)
        assert check.holds


def test_full_preservation_does_not_transfer_to_adjoint(linf_3):
    # diag(1,2,3) preserves orthogonality at (0,1,0), but its adjoint on l1^3
    # does not preserve it at psi = (0,1,0): the middle coefficient shrinks
    # relative to the first under the adjoint's orthogonality inequality.
    op = diagonal_operator(linf_3, [1, 2, 3])
    x = v("0,1,0")
    assert preserves_bj_at(op, x).holds
    dual_op = adjoint(op)
    report = preserves_bj_at(dual_op, v("0,1,0"))
    assert not report.holds
    y, _ = report.counterexample
    assert bj_orthogonal(dual_op.domain, v("0,1,0"), y).orthogonal
    assert not bj_orthogonal(dual_op.codomain, dual_op(v("0,1,0")), dual_op(y)).orthogonal


def test_isometry_forward_direction_small(l1_3):
    # A scaled signed permutation: every sampled vector must be a level vector.
    op = operator([["0", "3/2", "0"], ["-3/2", "0", "0"], ["0", "0", "3/2"]], l1_3)
    for x in sample_sphere(l1_3, 50, 11):
        cert = is_level_vector(op, x)
        assert cert is not None and cert.level_number == F(9, 4)
    report = certify_scalar_isometry_polyhedral(op)
    assert report.verdict == "certified" and report.scale == F(3, 2)


def test_probe_refutation_witness_verifies_on_l2(l2_3):
    op = diagonal_operator(l2_3, [2, 1, 1])
    report = probe_scalar_isometry_grid(op, l2_3, 50, 3)
    assert report.verdict == "refuted"
    x, y = report.witness
    assert bj_orthogonal(l2_3, x, y).orthogonal
    assert not bj_orthogonal(l2_3, op(x), op(y)).orthogonal


def test_adjoint_transfer_on_l2_rotation(l2_3):
    rot = operator([["3/5", "-4/5", "0"], ["4/5", "3/5", "0"], ["0", "0", "1"]], l2_3)
    record = adjoint_level_transfer(rot, (F(3, 5), F(4, 5), F(0)))
    assert record.level_number == 1
    assert record.dual_certificate.level_number == 1


def test_certify_agrees_with_probe_on_battery(l1_3, linf_3):
    # Certification and a 500-sample probe must tell the same story: certified
    # operators survive probing, refuted ones are caught by it.
    from ._util import random_operator_battery

    battery = []
    for space in (l1_3, linf_3):
        battery.extend(random_operator_battery(space, 25, 1000 + space.dim))
        battery.append(diagonal_operator(space, [1, 2, 3]))
        battery.append(diagonal_operator(space, [2, 2, 2]))
        battery.append(
            operator([["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "-1"]], space)
        )
    for op in battery:
        certified = certify_scalar_isometry_polyhedral(op).verdict == "certified"
        probe = probe_scalar_isometry_grid(op, op.domain, 500, 17)
        assert certified == (probe.verdict != "refuted")


def _reference_certification(op):
    """Preservation checked at every extreme point in order, no point skipped."""
    checked = []
    for x in extreme_points(op.domain):
        checked.append(x)
        report = preserves_bj_at(op, x)
        if not report.holds:
            return "refuted", None, (x, report.counterexample[0]), tuple(checked)
    scales = {norm(op.codomain, op(x)) / norm(op.domain, x) for x in checked}
    assert len(scales) == 1
    return "certified", scales.pop(), None, tuple(checked)


def test_certification_matches_per_point_reference(linf_3, l1_3, hexagon):
    # One preservation check per antipodal pair must give the report of the
    # full per-point loop: verdict, scale, witness and every visited point.
    # The pair of the i-th sorted extreme point is the (N-1-i)-th, so only
    # the first N/2 are decided; the l1^2 diagonal fails only at the last of
    # them.  The 3 -> 4 operators are not square, one of them an isometric
    # embedding of l1^3 into l-inf^4.
    cube_cross = polyhedral_space(cube_cross_vertices(3))
    balls = (linf_3, l1_3, hexagon, l1(4), linf(4), cube_cross)
    for space in balls + (l1(2),):
        points = extreme_points(space)
        assert all(points[len(points) - 1 - i] == tuple(-c for c in p) for i, p in enumerate(points))
    cases = [(space, op) for space in balls for seed in range(1, 5) for op in seeded_operator_kinds(space, seed)]
    cases.append((hexagon, operator([["1", "-1"], ["1", "0"]], hexagon)))  # permutes the six vertices: an isometry
    cases.append((l1(2), diagonal_operator(l1(2), [1, 2])))
    embedding = [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
    cases += [(l1_3, operator(m, l1_3, linf(4))) for m in (embedding, [[1, 2, 0], [0, 1, -1], [3, 0, 1], [1, 1, 1]])]
    verdicts, last_decided = [], 0
    for space, op in cases:
        report = certify_scalar_isometry_polyhedral(op)
        got = (report.verdict, report.scale, report.witness, report.checked_points)
        assert got == _reference_certification(op)
        verdicts.append((space, report.verdict, op.codomain == space))
        last_decided += report.verdict == "refuted" and 2 * len(report.checked_points) == len(extreme_points(space))
    for space in balls:
        assert (space, "certified", True) in verdicts and (space, "refuted", True) in verdicts
    assert (l1_3, "certified", False) in verdicts and (l1_3, "refuted", False) in verdicts
    assert last_decided > 0


def test_probe_sample_count_is_capped_before_sampling(l1_3, monkeypatch):
    # 5,000 samples pass the guard and 5,001 do not, before the sample list
    # is drawn.
    from bjlevel import oracle

    def refused(seed):
        raise AssertionError("sampling started")

    monkeypatch.setattr(oracle, "RationalStream", refused)
    op = diagonal_operator(l1_3, [1, 2, 3])
    with pytest.raises(AssertionError, match="sampling started"):
        probe_scalar_isometry_grid(op, l1_3, 5_000, 1)
    for samples in (5_001, 10**8):
        with pytest.raises(InputError) as err:
            probe_scalar_isometry_grid(op, l1_3, samples, 1)
        assert err.value.code == "too_many_samples" and "guard of 5,000" in str(err.value)


@pytest.mark.parametrize(
    "make_space, order",
    [
        (lambda: polyhedral_space(HEXAGON_VERTICES), 12),
        (lambda: linf(3), 48),
        (lambda: l1(3), 48),
        (lambda: polyhedral_space(cube_cross_vertices(3)), 48),
    ],
    ids=["hexagon", "linf_3", "l1_3", "cube-cross"],
)
def test_every_isometry_certifies_and_every_perturbed_one_is_refuted(make_space, order):
    # The complete isometry group of each ball, from the vertex-map
    # enumerator: every element certifies with scale 1, and adding 1/1000 to
    # one entry (a different one from element to element) refutes it with a
    # witness that the norm-minimizing oracle verifies.
    space = make_space()
    group = isometry_group(space)
    assert len(group) == len(set(group)) == order
    n = space.dim
    for index, matrix in enumerate(group):
        report = certify_scalar_isometry_polyhedral(operator(matrix, space))
        assert report.verdict == "certified" and report.scale == 1
        perturbed = [list(row) for row in matrix]
        perturbed[index % n][index // n % n] += F(1, 1000)
        op = operator(perturbed, space)
        report = certify_scalar_isometry_polyhedral(op)
        assert report.verdict == "refuted"
        x, y = report.witness
        assert bj_orthogonal_oracle(space, x, y).orthogonal
        assert not bj_orthogonal_oracle(space, op(x), op(y)).orthogonal
