import pathlib
from fractions import Fraction

import numpy as np
import pytest

from gaudin.algebra import EmbeddedModule, ModuleSpec, build_embedded_module
from gaudin.betheop import (
    build_bethe_operator,
    check_polynomiality,
    commutativity_check,
    eigenvector_points,
    exact_sample_points,
    expected_leading_symbol,
    first_coefficient_residual,
    leading_symbol,
    weight_blocks_preserved,
)
from gaudin.harness import InstanceConfig
from gaudin.linalg import MatrixPoly
from gaudin.polynomials import Poly

from conftest import COUNT_FAMILY, EXACT_FAMILY, make_spec, mutant_operator, unit_matrix
from oracles import Matrix, constant, full_module_cleared, submatrix, unstacked

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_sample_points_avoid_poles():
    pts = exact_sample_points([F(2), F(5)], 5)
    assert pts == [F(3), F(4), F(6), F(7), F(8)]


def test_single_row_operator():
    spec = ModuleSpec(1, ("2",), ((1,),), ("3",), (1,))
    op = build_bethe_operator(spec)
    assert len(op.numerators) == 1
    # B_1 = -K - 1/(u-b)
    for pt in (F(5), F(9)):
        assert constant(op.block_evaluate(1, [pt])[0]).get(0, 0) == -2 - 1 / (pt - 3)


def test_first_coefficient_identity_family(exact_family_ops):
    for op in exact_family_ops:
        assert first_coefficient_residual(op).is_zero()


def test_leading_symbol_family(exact_family_ops):
    for op in exact_family_ops:
        assert leading_symbol(op) == expected_leading_symbol(op)


def test_leading_symbol_is_a_scalar_polynomial(golden_op):
    """The symbol at infinity is prod_i (a - K_i) as a scalar Poly; a u^n
    coefficient of some A_i that is not scalar leaves it undefined."""
    assert leading_symbol(golden_op) == Poly.from_roots(golden_op.spec.exponents)
    mutant = mutant_operator(golden_op, 1, unit_matrix(golden_op.dim, 0, 1), Poly([F(1)]))  # B_1 + e_01
    assert leading_symbol(mutant) is None


def test_first_coefficient_block_formula(golden_op):
    # B_1 block = -(K_1+K_2) - (1/u + 1/(u-1)) times the identity
    for pt in (F(3), F(5), F(11)):
        expect = -(F(0) + F(1)) - (1 / pt + 1 / (pt - 1))
        got = constant(golden_op.block_evaluate(1, [pt])[0])
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


def _oracle_specs():
    specs = [(f"exact{k}", make_spec(d)) for k, d in enumerate(EXACT_FAMILY)]
    specs += [(f"count{k}", make_spec(d)) for k, d in enumerate(COUNT_FAMILY)]
    specs += [(p.stem, InstanceConfig.from_file(p).spec) for p in sorted(FIXTURES.glob("*.json"))]
    return specs


@pytest.mark.parametrize("spec", [s for _, s in _oracle_specs()], ids=[n for n, _ in _oracle_specs()])
def test_block_build_matches_full_module_oracle(spec):
    """The cleared A_i of the graded block build are, exactly, the cleared
    A_i of the permutation expansion on the whole module cut to the block."""
    module = build_embedded_module(spec)
    op = build_bethe_operator(spec, module)
    idx = module.weight_indices(spec.weight)
    full = full_module_cleared(spec, module)
    assert [unstacked(a) for a in op.cleared] == [Poly([submatrix(c, idx, idx) for c in a.coeffs]) for a in full]


def test_n4_four_points_block_passes_every_exact_check():
    """N = 4, b = 0..3, lam = (1,1,1,1): a 256-dim module, built on its
    24-dim block only."""
    spec = ModuleSpec(4, ("0", "1", "5/2", "9/2"), ((1,),) * 4, ("0", "1", "2", "3"), (1, 1, 1, 1))
    op = build_bethe_operator(spec)
    assert op.module.dim == 256 and op.dim == 24
    assert first_coefficient_residual(op).is_zero()
    assert leading_symbol(op) == expected_leading_symbol(op)
    report = check_polynomiality(op)
    assert report.ok, report.failures
    assert all(d <= spec.size for d in report.degrees)
    assert commutativity_check(op)
    assert weight_blocks_preserved(op)


# --- mutants --------------------------------------------------------------
#
# Each case takes the checks as predicates that are True when a check
# passes, so that it can also be run against a stubbed always-True check.

CHECKS = {
    "first-coefficient": lambda op: first_coefficient_residual(op).is_zero(),
    "commutativity": commutativity_check,
    "weight-blocks": weight_blocks_preserved,
    "leading-symbol": lambda op: leading_symbol(op) == expected_leading_symbol(op),
    "polynomiality": lambda op: check_polynomiality(op).ok,
}


class _LeakyModule(EmbeddedModule):
    """Gives each image of e_ij in a factor an extra coefficient on a basis vector of another weight.

    Every factor of golden is V, whose basis vectors e_1 and e_2 have
    different weights: the extra coefficient sits on the one the image misses.
    """

    def factor_action(self, mu, i, j):
        num, den = super().factor_action(mu, i, j)
        leaky = num.copy()
        for b, a in zip(*np.nonzero(num)):
            leaky[1 - b, a] += 1
        return leaky, den


def _leaky_module_case(checks, golden_op):
    """A module whose generator images leak into another weight."""
    spec = golden_op.spec
    op = build_bethe_operator(spec, _LeakyModule(spec))
    assert op.module.leaks
    assert not checks["weight-blocks"](op)
    assert not checks["commutativity"](op)


def _hidden_mutant_case(checks, golden_op):
    """B_2 + q(u) X / P on the block, with q vanishing at the first five
    sample points and X = e_{0,1} not commuting with B_2: it agrees with B_2
    at every point a sampled check would use."""
    spec = golden_op.spec
    q = Poly.from_roots(exact_sample_points(spec.points, 5))
    X = unit_matrix(golden_op.dim, 0, 1)
    mutant = mutant_operator(golden_op, 2, q * X, spec.pole_polynomial())
    for pt in exact_sample_points(spec.points, 5):
        assert mutant.block_evaluate(2, [pt])[0] == golden_op.block_evaluate(2, [pt])[0]
    assert not checks["commutativity"](mutant)
    # deg A_2 = 5 > n = 2: B_2 grows at infinity
    assert not checks["leading-symbol"](mutant)


def _pole_mutant_case(checks, golden_op):
    """B_1 + I/(u - 7) cannot be cleared by the pole polynomial."""
    mutant = mutant_operator(golden_op, 1, MatrixPoly.identity(golden_op.dim), Poly([F(-7), F(1)]))
    for name in ("first-coefficient", "commutativity", "weight-blocks", "leading-symbol", "polynomiality"):
        assert not checks[name](mutant), name


def _shifted_first_coefficient_case(checks, golden_op):
    """B_1 + I: still a cleared, commuting, scalar-shifted operator, but
    B_1 is no longer -sum_i (K_i + e_ii(u)) and its constant term at
    infinity moves."""
    mutant = mutant_operator(golden_op, 1, MatrixPoly.identity(golden_op.dim), Poly([F(1)]))
    assert checks["commutativity"](mutant) and checks["polynomiality"](mutant)
    assert not checks["first-coefficient"](mutant)
    assert not checks["leading-symbol"](mutant)


def test_checks_detect_a_leaky_module(golden_op):
    _leaky_module_case(CHECKS, golden_op)


def test_checks_detect_a_mutant_hidden_from_sample_points(golden_op):
    _hidden_mutant_case(CHECKS, golden_op)


def test_checks_fail_without_raising_on_a_pole_off_the_points(golden_op):
    _pole_mutant_case(CHECKS, golden_op)


def test_checks_detect_a_shifted_first_coefficient(golden_op):
    _shifted_first_coefficient_case(CHECKS, golden_op)


@pytest.mark.parametrize(
    "case, names",
    [
        (_leaky_module_case, ["weight-blocks", "commutativity"]),
        (_hidden_mutant_case, ["commutativity", "leading-symbol"]),
        (_pole_mutant_case, ["first-coefficient", "commutativity", "weight-blocks", "leading-symbol", "polynomiality"]),
        (_shifted_first_coefficient_case, ["first-coefficient", "leading-symbol"]),
    ],
    ids=["leaky-module", "hidden-mutant", "pole-off-points", "first-coefficient-shifted"],
)
def test_mutant_cases_fail_against_an_always_true_check(golden_op, case, names):
    """Each check a mutant case relies on is load-bearing: with that one
    check replaced by a stub that always passes, the case fails."""
    for name in names:
        with pytest.raises(AssertionError):
            case({**CHECKS, name: lambda op: True}, golden_op)


def test_weyl_style_full_tensor_polynomiality():
    """On the full tensor power of vector representations, clearing by the
    product over points of (u - z_s) already yields matrix polynomials."""
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,), (1,)), ("0", "1", "2"), (2, 1))
    cleared = full_module_cleared(spec, build_embedded_module(spec))  # raises if not polynomial
    assert all(a.degree <= spec.size for a in cleared)


def test_block_evaluate_matches_full_evaluation(exact_family_ops):
    """A_i|block / P at a point is B_i of the whole module at that point cut to the block."""
    for op in exact_family_ops:
        idx = op.module.weight_indices(op.spec.weight)
        full = full_module_cleared(op.spec, op.module)
        pole = op.spec.pole_polynomial()
        for pt in exact_sample_points(op.spec.points, 3, start=-2):
            for i in range(1, op.rank + 1):
                value = full[i - 1](pt) / pole(pt) if not full[i - 1].is_zero() else Matrix.zeros(op.module.dim, op.module.dim)
                assert constant(op.block_evaluate(i, [pt])[0]) == submatrix(value, idx, idx)


def test_eigenvector_blocks_are_kept_per_operator(golden_op):
    """eigenvector_blocks evaluates once per operator, read-only; an operator
    made by ``dataclasses.replace`` after that evaluates its own values."""
    first, scales = golden_op.eigenvector_blocks
    points = eigenvector_points(golden_op.spec)
    assert first.shape == (len(points), golden_op.rank, golden_op.dim, golden_op.dim)
    assert golden_op.eigenvector_blocks[0] is first
    assert not first.flags.writeable and not scales.flags.writeable
    for p, pt in enumerate(points):
        for i in range(1, golden_op.rank + 1):
            block = golden_op.block_evaluate(i, [pt])[0].to_complex(1)[0]
            assert (first[p, i - 1] == block).all()
            assert scales[p, i - 1] == pytest.approx(max(1.0, np.linalg.norm(block)), rel=1e-14)
    shifted = mutant_operator(golden_op, 1, MatrixPoly.identity(golden_op.dim), Poly([F(1)]))  # B_1 + I
    own = shifted.eigenvector_blocks[0]
    assert own is not first
    assert np.allclose(own[:, 0], first[:, 0] + np.eye(golden_op.dim), rtol=0, atol=1e-14)
    assert (own[:, 1:] == first[:, 1:]).all()
    assert golden_op.eigenvector_blocks[0] is first


def _vectors(N, K, points, weight):
    return ModuleSpec(N, K, ((1,),) * points, tuple(str(b) for b in range(points)), weight)


def test_cleared_equals_reduced_product(exact_family_ops):
    """A_i is B_i times the pole polynomial: A_i den = N_i P, also over denominators other than P1^N.

    The mutants add X = e_01 to A_1, as B_1 + X / P, and X P, as
    B_1 + X (u - 13) / (u - 13), over den = P1^N P and P1^N (u - 13).
    """
    ops = list(exact_family_ops)
    ops += [build_bethe_operator(_vectors(3, ("0", "1", "5/2"), 5, (2, 2, 1))),
            build_bethe_operator(_vectors(2, ("0", "1/2"), 7, (4, 3))),
            # n_0 = 3 > N: P1^N vanishes to order 2 only at b_0, so P / gcd(P, P1^N) = u - b_0
            build_bethe_operator(ModuleSpec(2, ("0", "1/2"), ((2, 1), (1,)), ("0", "1"), (2, 2)))]
    for op in [ops[1], ops[4]] + ops[-3:]:  # golden, the N=3 family member and the three above
        pole, X = op.spec.pole_polynomial(), unit_matrix(op.dim, 0, 1)
        off = Poly([F(-13), F(1)])
        for mutant, added in ((mutant_operator(op, 1, X, pole), X), (mutant_operator(op, 1, X * off, off), X * pole)):
            assert mutant.cleared[0] == op.cleared[0] + added and mutant.cleared[1:] == op.cleared[1:]
            ops.append(mutant)
    for op in ops:
        pole = op.spec.pole_polynomial()
        for i in range(1, op.rank + 1):
            assert op.cleared[i - 1] * op.denominator == op.numerators[i - 1] * pole


def test_mutants_over_a_wider_denominator_fail_their_checks(golden_op):
    """B_2 + X/(u - 13) cannot be cleared: the same ValueError, and a failed
    polynomiality; B_1 + I/(u - b_0) fails the first-coefficient identity."""
    X = unit_matrix(golden_op.dim, 0, 1)
    off = mutant_operator(golden_op, 2, X, Poly([F(-13), F(1)]))
    with pytest.raises(ValueError, match=r"^B_2 \* pole polynomial is not polynomial$"):
        off.cleared
    report = check_polynomiality(off)
    assert not report.polynomial and report.failures == ["B_2 * pole polynomial is not polynomial"]
    b0 = golden_op.spec.points[0]
    at_point = mutant_operator(golden_op, 1, MatrixPoly.identity(golden_op.dim), Poly([-b0, F(1)]))
    assert check_polynomiality(at_point).polynomial
    assert not first_coefficient_residual(at_point).is_zero()
