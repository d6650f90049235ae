"""Sampling determinism, the 1-D minimizer and direct preservation checks."""

from fractions import Fraction

import pytest

from bjlevel import (
    InputError,
    RationalStream,
    SampleCheckReport,
    ball_vertices,
    diagonal_operator,
    identity_operator,
    l1,
    linf,
    minimize_norm_1d,
    norm,
    polyhedral_space,
    preservation_sample_check,
    sample_sphere,
    support_set,
)
from bjlevel.faces import convex_combination
from bjlevel.linalg import kernel_basis, vec_add, vec_scale

from ._util import HEXAGON_VERTICES, cube_cross_vertices, random_operator, v

F = Fraction


def test_minimizer_paper_value(l1_3):
    assert minimize_norm_1d(l1_3, v("2,0,0"), v("1,1/2,0")) == (-2, 1)


def test_minimizer_decides_float_input_on_an_exact_space_in_rationals():
    # On l1^4 the minimum of ||x + t y|| is 3 - 1/(5 10^15), at t = -10^-16.
    # Computed in floats it read (-1e-16, 3.0): x looked orthogonal to y.
    x, y = (1.0, 1.0, 1.0, 0.0), (1e16, 1.0, 1.0, 1e16)
    t, value = minimize_norm_1d(l1(4), x, y)
    assert (t, value) == (F(-1, 10**16), 3 - F(1, 5 * 10**15))
    assert type(t) is type(value) is F
    assert (t, value) == minimize_norm_1d(l1(4), tuple(map(F, x)), tuple(map(F, y)))


def test_minimizer_flat_segment(l1_3):
    lam, value = minimize_norm_1d(l1_3, v("1,0,0"), v("1/2,1/2,0"))
    assert value == 1
    assert -2 <= lam <= 0


def test_minimizer_l2():
    # sqrt(1 + t^2) is flat to machine precision near 0, so the float-path
    # minimizer is pinned much more loosely than the minimum value.
    space = __import__("bjlevel").l2(2)
    lam, value = minimize_norm_1d(space, v("1,0"), v("0,1"))
    assert lam == pytest.approx(0.0, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_minimizer_never_beaten_by_grid(l1_3, linf_3, hexagon):
    stream = RationalStream(51)
    for space in (l1_3, linf_3, hexagon):
        for _ in range(40):
            x = stream.next_nonzero_vector(space.dim)
            y = stream.next_nonzero_vector(space.dim)
            _, best = minimize_norm_1d(space, x, y)
            bracket = 2 * norm(space, x) / norm(space, y)
            for k in range(41):
                t = -bracket + Fraction(k, 20) * bracket
                assert norm(space, vec_add(x, vec_scale(t, y))) >= best


def test_sampled_norm_map_is_midpoint_convex(l1_3, linf_2):
    stream = RationalStream(53)
    for space in (l1_3, linf_2):
        for _ in range(100):
            x = stream.next_nonzero_vector(space.dim)
            y = stream.next_nonzero_vector(space.dim)
            ts = [Fraction(k - 20, 10) for k in range(41)]
            values = [norm(space, vec_add(x, vec_scale(t, y))) for t in ts]
            for a in range(0, 39, 2):
                mid = a + 1
                assert values[mid] <= (values[a] + values[a + 2]) / 2


def test_sample_sphere_exact_normalization(l1_2, linf_3):
    for x in sample_sphere(l1_2, 5, 7):
        assert sum(abs(c) for c in x) == 1
    for x in sample_sphere(linf_3, 3, 1):
        assert max(abs(c) for c in x) == 1


def test_sample_sphere_float_normalization(l2_3):
    for x in sample_sphere(l2_3, 2, 9):
        assert abs(norm(l2_3, x) - 1.0) <= 1e-12


def test_sample_determinism(l1_3, l2_3):
    for space in (l1_3, l2_3):
        assert sample_sphere(space, 10, 4) == sample_sphere(space, 10, 4)
        assert sample_sphere(space, 10, 4) != sample_sphere(space, 10, 5)


def test_preservation_check_finds_violation(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    report = preservation_sample_check(op, v("1,0,0"), 100, 3)
    assert len(report.violations) > 0
    y, margin = report.violations[0]
    assert margin > 0


def test_preservation_check_clean_for_identity(l1_3):
    report = preservation_sample_check(identity_operator(l1_3), v("1,1/2,0"), 50, 3)
    assert report.violations == ()


def test_preservation_check_clean_for_diag123_linf(linf_3):
    op = diagonal_operator(linf_3, [1, 2, 3])
    report = preservation_sample_check(op, v("1,0,0"), 100, 3)
    assert report.violations == ()


def test_preservation_check_deterministic(l1_3):
    op = diagonal_operator(l1_3, [2, 1, 1])
    assert preservation_sample_check(op, v("1,0,0"), 40, 12) == preservation_sample_check(
        op, v("1,0,0"), 40, 12
    )


def _refused_stream(seed):
    raise AssertionError("sampling started")


def test_preservation_sample_counts_are_guarded_before_sampling(l1_3, monkeypatch):
    # A negative count is refused, as sample_sphere refuses one below 1, and
    # the cap, 2,500 samples at a point with one supporting functional, and
    # 3,600,000 / (|J(x)| n) with more, is checked before the first draw.
    from bjlevel import oracle

    op = diagonal_operator(l1_3, [2, 1, 1])
    assert preservation_sample_check(op, v("1,0,0"), 0, 1).checked == 0
    monkeypatch.setattr(oracle, "RationalStream", _refused_stream)
    with pytest.raises(InputError) as err:
        preservation_sample_check(op, v("1,0,0"), -3, 1)
    assert err.value.code == "bad_count"
    smooth, e1 = v("1/2,1/4,1/4"), v("1,0,0")  # |J(x)| = 1 and 4
    for x, limit in ((smooth, 2_500), (e1, 2_500), (v("1,0,0,0,0,0,0,0,0,0,0,0"), 146)):
        op = identity_operator(l1(len(x)))
        with pytest.raises(AssertionError, match="sampling started"):
            preservation_sample_check(op, x, limit, 1)
        with pytest.raises(InputError) as err:
            preservation_sample_check(op, x, limit + 1, 1)
        assert err.value.code == "too_many_samples" and f"guard of {limit:,}" in str(err.value)


def _fraction_sample_check(op, x, n, seed):
    """`preservation_sample_check` on an exact space as it was with each
    functional averaged in Fractions (`faces.convex_combination`)."""
    stream = RationalStream(seed)
    vertices = support_set(op.domain, x).vertices
    tx, violations = op(x), []
    for _ in range(n):
        f = convex_combination(vertices, [stream.next_positive_fraction() for _ in vertices])
        basis = kernel_basis((f,))
        y = None
        while y is None:
            coeffs = [stream.next_fraction() for _ in basis]
            candidate = tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(op.domain.dim))
            if any(candidate):
                y = candidate
        ty = op(y)
        if not any(ty):
            continue
        margin = norm(op.codomain, tx) - minimize_norm_1d(op.codomain, tx, ty)[1]
        if margin > 0:
            violations.append((y, margin))
    return SampleCheckReport(n, tuple(violations), seed, "exact")


def test_integer_sampled_functionals_equal_the_fraction_average():
    # Each sample's functional is summed in integers over the vertex rows of
    # J(x) and divided once per coordinate: the reports, and so the stream's
    # draws, equal the Fraction average's, at smooth points, at vertices
    # where J(x) is a box (e1 on l1^12: 2^11 vertices), on polyhedral balls
    # with rational facets and with a rank-deficient operator.
    hexagon, cube_cross = polyhedral_space(HEXAGON_VERTICES), polyhedral_space(cube_cross_vertices(3))
    stream = RationalStream(31)
    cases = [
        (diagonal_operator(l1(12), [2] + [1] * 11), (F(1),) + (F(0),) * 11, 3),
        (diagonal_operator(l1(3), [2, 1, 1]), v("1,0,0"), 40),
        (diagonal_operator(l1(3), [2, 1, 0]), v("1,1/2,0"), 40),
        (identity_operator(l1(5)), v("1/2,0,0,-1/2,0"), 20),
    ]
    for space in (linf(3), linf(4), hexagon, cube_cross):
        op = random_operator(space, stream)
        vertex = ball_vertices(space)[0]
        cases += [(op, vertex, 30), (op, stream.next_nonzero_vector(space.dim), 30)]
    found = 0
    for op, x, n in cases:
        for seed in (1, 8):
            report = preservation_sample_check(op, x, n, seed)
            assert report == _fraction_sample_check(op, x, n, seed), (op, x, seed)
            found += bool(report.violations)
    assert found >= len(cases)
