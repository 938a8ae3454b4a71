from dataclasses import replace
from fractions import Fraction

from gaudin.algebra import ModuleSpec
from gaudin.betheop import (
    build_bethe_operator,
    check_polynomiality,
    commutativity_check,
    exact_sample_points,
    expected_leading_symbol,
    first_coefficient_residual,
    leading_symbol,
    weight_blocks_preserved,
)
from gaudin.linalg import Matrix
from gaudin.polynomials import Poly
from gaudin.ratfun import RatFun

F = Fraction


def test_sample_points_avoid_poles():
    pts = exact_sample_points([F(2), F(5)], 5)
    assert pts == [F(3), F(4), F(6), F(7), F(8)]


def test_single_row_operator():
    spec = ModuleSpec(1, ("2",), ((1,),), ("3",), (1,))
    op = build_bethe_operator(spec)
    assert op.operator.order == 1
    b1 = op.coefficient(1)
    # B_1 = -K - 1/(u-b)
    for pt in (F(5), F(9)):
        assert b1.evaluate(pt).get(0, 0) == -2 - 1 / (pt - 3)


def test_first_coefficient_identity_family(exact_family_ops):
    for op in exact_family_ops:
        assert first_coefficient_residual(op).is_zero()


def test_leading_symbol_family(exact_family_ops):
    for op in exact_family_ops:
        assert leading_symbol(op) == expected_leading_symbol(op)


def test_first_coefficient_block_formula(golden_op):
    # B_1 block = -(K_1+K_2) - (1/u + 1/(u-1)) times the identity
    b1 = golden_op.block(1)
    for pt in (F(3), F(5), F(11)):
        expect = -(F(0) + F(1)) - (1 / pt + 1 / (pt - 1))
        got = b1.evaluate(pt)
        assert got.scalar_of_identity() == expect


def test_polynomiality_family(exact_family_ops):
    for op in exact_family_ops:
        report = check_polynomiality(op)
        assert report.ok, report.failures
        n = op.spec.size
        assert all(d <= n for d in report.degrees)
        for (i, s), order in report.pole_orders.items():
            assert order <= min(i, op.spec.factor_sizes[s])


def test_commutativity_family(exact_family_ops):
    for op in exact_family_ops:
        assert commutativity_check(op)


def test_weight_blocks(exact_family_ops):
    for op in exact_family_ops:
        assert weight_blocks_preserved(op)


def _mutant(op, i, extra: RatFun):
    """A copy of op with B_i replaced by B_i + extra."""
    coeffs = list(op.coefficients)
    coeffs[i - 1] = coeffs[i - 1] + extra
    return replace(op, coefficients=coeffs)


def _unit(dim, i, j):
    m = [[F(0)] * dim for _ in range(dim)]
    m[i][j] = F(1)
    return Matrix(m)


def test_checks_detect_a_mutant_hidden_from_sample_points(golden_op):
    """B_2 + q(u) X / P, with q vanishing at the first five sample points and
    X = e_{0,1} joining two weight blocks, agrees with B_2 at every point a
    sampled check would use; the identities on the cleared coefficients
    still see X."""
    spec = golden_op.spec
    q = Poly.from_roots(exact_sample_points(spec.points, 5))
    X = _unit(golden_op.module.dim, 0, 1)
    mutant = _mutant(golden_op, 2, RatFun(Poly([c * X for c in q.coeffs]), spec.pole_polynomial()))
    for pt in exact_sample_points(spec.points, 5):
        assert mutant.coefficient(2).evaluate(pt) == golden_op.coefficient(2).evaluate(pt)
    assert not commutativity_check(mutant)
    assert not weight_blocks_preserved(mutant)
    # deg A_2 = 5 > n = 2: B_2 grows at infinity
    assert leading_symbol(mutant) != expected_leading_symbol(mutant)


def test_checks_fail_without_raising_on_a_pole_off_the_points(golden_op):
    """B_1 + I/(u - 7) cannot be cleared by the pole polynomial."""
    dim = golden_op.module.dim
    extra = RatFun(Poly([Matrix.identity(dim)]), Poly([F(-7), F(1)]))
    mutant = _mutant(golden_op, 1, extra)
    assert not commutativity_check(mutant)
    assert not weight_blocks_preserved(mutant)
    assert leading_symbol(mutant) != expected_leading_symbol(mutant)
    assert not check_polynomiality(mutant).ok


def test_weyl_style_full_tensor_polynomiality():
    """On the full tensor power of vector representations, clearing by the
    product over points of (u - z_s) already yields matrix polynomials."""
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,), (1,)), ("0", "1", "2"), (2, 1))
    op = build_bethe_operator(spec)
    pole = spec.pole_polynomial()
    for i in (1, 2):
        prod = op.coefficient(i) * RatFun(pole)
        assert prod.den.degree == 0


def test_block_evaluate_matches_full_evaluation(exact_family_ops):
    """A_i|block / P at a point is B_i at that point cut to the block."""
    for op in exact_family_ops:
        idx = op.module.weight_indices(op.spec.weight)
        for pt in exact_sample_points(op.spec.points, 3, start=-2):
            for i in range(1, op.rank + 1):
                assert op.block_evaluate(i, pt) == op.coefficient(i).evaluate(pt).submatrix(idx, idx)


def test_cleared_equals_reduced_product(exact_family_ops):
    """num * (P / den) is the numerator of the reduced product B_i * P."""
    for op in exact_family_ops:
        pole = op.spec.pole_polynomial()
        for i in range(1, op.rank + 1):
            assert op.cleared[i - 1] == (op.coefficient(i) * RatFun(pole)).num
