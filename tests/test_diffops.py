"""The derivative table of quasi-exponentials and the oracles' operator class.

A quasi-exponential e^{k u} p(u) is the pair (k, p); the Wronskian of a
family is e^{(sum of k) u} times the determinant of its derivative table.
"""

import cmath
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.polynomials import Poly
from oracles import Matrix, PoleOp, numeric_wronskian, poly_det, rdet, shifted_derivative_polys

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def _wr(funcs) -> Poly:
    """Polynomial part of the Wronskian: the determinant of the derivative table."""
    return poly_det([shifted_derivative_polys(k, p, len(funcs) - 1) for k, p in funcs])


def _is_wronskian(funcs, poly, exponent) -> bool:
    """e^{exponent u} poly(u) is the classical Wronskian of funcs at two points."""
    for point in (F(1, 2), F(3)):
        direct = numeric_wronskian(funcs, complex(point))
        ours = complex(poly(point)) * cmath.exp(complex(exponent) * complex(point))
        if abs(direct - ours) > 1e-9 * max(1.0, abs(direct)):
            return False
    return True


def test_wronskian_two_exponentials():
    a, b = F(2), F(5)
    funcs = [(a, P(1)), (b, P(1))]
    wr = _wr(funcs)
    assert _is_wronskian(funcs, wr, a + b)
    assert wr == P(b - a)


def test_wronskian_single():
    f = (F(3), P(1, 2))
    wr = _wr([f])
    assert _is_wronskian([f], wr, f[0]) and wr == f[1]


def test_wronskian_u_and_one():
    wr = _wr([(F(0), P(0, 1)), (F(0), P(1))])
    assert wr == P(-1)


def test_wronskian_alternation_and_repeats():
    f = (F(1), P(3, 1))
    g = (F(0), P(1, 0, 1))
    assert _wr([f, g]) == -_wr([g, f])
    assert _wr([f, f]).is_zero()


def test_wronskian_matches_numeric():
    funcs = [(F(1), P(1, 1)), (F(0), P(0, 0, 1)), (F(-2), P(2))]
    assert _is_wronskian(funcs, _wr(funcs), sum(k for k, _ in funcs))


# --- the oracles' operator class ------------------------------------------
#
# PoleOp is sum_k nums[k] / p1^m (d/du)^k; the row determinant and the
# factorized operator of the oracles are built on its Leibniz composition.

ONE = P(1)
U = P(0, 1)


def _const(*coeffs):
    """sum_k coeffs[k] (d/du)^k with constant scalar coefficients."""
    return PoleOp([P(c) for c in coeffs], 0, ONE)


def _same(a, b) -> bool:
    return all(n.is_zero() for n in (a + -b).nums)


def _coeff_is(op, k, num, den=ONE) -> bool:
    """The (d/du)^k coefficient of op is num / den."""
    a = op.nums[k] if k < len(op.nums) else Poly()
    return a * den == num * op.p1 ** op.m


def _apply(op, k, p):
    """Polynomial part, over p1^m, of op applied to e^{k u} p."""
    parts = shifted_derivative_polys(k, p, len(op.nums) - 1)
    return sum((a * q for a, q in zip(op.nums, parts)), Poly())


def test_compose_basic():
    dd = PoleOp([Poly(), ONE], 0, U)
    assert len(dd.compose(dd).nums) == 3
    # (d - 1/u) after d has no zero-order term on the right factor
    left = PoleOp([P(-1), U], 1, U)
    out = left.compose(dd)
    assert len(out.nums) == 3
    assert out.nums[0].is_zero()
    assert _coeff_is(out, 1, P(-1), U)


def test_compose_first_order_leibniz():
    # (a d + c)(b d + e) = ab d^2 + (a b' + a e + c b) d + (a e' + c e)
    # with a = 2, c = 1/u, b = u, e = u + 3
    left = PoleOp([P(1), P(0, 2)], 1, U)
    right = PoleOp([P(3, 1), U], 0, U)
    out = left.compose(right)
    assert _coeff_is(out, 2, P(0, 2))
    assert _coeff_is(out, 1, P(9, 2))  # 2 + 2(u + 3) + 1
    assert _coeff_is(out, 0, P(3, 3), U)  # 2 + (u + 3)/u


def test_compose_agrees_with_sequential_application():
    rng = random.Random(5)

    def random_first_order():
        return PoleOp([Poly([F(rng.randint(-4, 4)), F(rng.randint(-4, 4))]), ONE], 0, ONE)

    tests = [
        (F(0), P(1)),
        (F(0), P(0, 1)),
        (F(0), P(0, 0, 1)),
        (F(1), P(1)),
        (F(1), P(0, 1)),
    ]
    for _ in range(6):
        ops = [random_first_order() for _ in range(3)]
        composed = ops[0].compose(ops[1]).compose(ops[2])
        for k, p in tests:
            # apply right to left, carrying polynomial parts exactly
            poly = p
            for op in reversed(ops):
                c0, c1 = op.nums
                poly = c1 * (poly.scale(k) + poly.derivative()) + c0 * poly
            assert _apply(composed, k, p) == poly


def test_rdet_diagonal():
    entries = [
        [_const(-3, 1), _const(0)],
        [_const(0), _const(-7, 1)],
    ]
    out = rdet(entries)
    assert _same(out, entries[0][0].compose(entries[1][1]))


def test_rdet_one_by_one():
    entry = PoleOp([P(-2), U], 1, U)
    assert _same(rdet([[entry]]), entry)


def test_rdet_constant_two_by_two():
    a, b, c, d = F(2), F(3), F(5), F(7)
    entries = [
        [_const(-a, 1), _const(-c)],
        [_const(-d), _const(-b, 1)],
    ]
    out = rdet(entries)
    assert _coeff_is(out, 2, P(1))
    assert _coeff_is(out, 1, P(-(a + b)))
    assert _coeff_is(out, 0, P(a * b - d * c))


def test_apply_kernel_and_powers():
    k = F(3)
    assert _apply(_const(-k, 1), k, P(1)).is_zero()
    dd = _const(0, 1).compose(_const(0, 1))
    assert _apply(dd, F(0), P(0, 0, 1)) == P(2)


def _random_matrix_poly(rng, dim=2):
    return Poly(
        [
            Matrix([[F(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)])
            for _ in range(2)
        ]
    )


def test_matrix_composition_order_sensitive_but_consistent():
    rng = random.Random(11)
    ident = Poly([Matrix.identity(2)])
    for _ in range(4):
        A = PoleOp([_random_matrix_poly(rng), ident], 0, ONE)
        B = PoleOp([_random_matrix_poly(rng), ident], 0, ONE)
        AB, BA = A.compose(B), B.compose(A)
        assert not _same(AB, BA)  # generically order matters
        # both agree with sequential application on a vector quasi-exponential
        col = Poly([Matrix([[F(1)], [F(2)]]), Matrix([[F(0)], [F(1)]])])
        k = F(1)
        for first, second, combined in ((B, A, AB), (A, B, BA)):
            mid = _apply(first, k, col)
            assert _apply(combined, k, col) == _apply(second, k, mid)


small = st.integers(-5, 5).map(F)


@settings(max_examples=30, deadline=None)
@given(st.lists(small, min_size=1, max_size=3), st.lists(small, min_size=1, max_size=3))
def test_wronskian_swap_property(c1, c2):
    f = (F(0), Poly(c1))
    g = (F(2), Poly(c2))
    if f[1].is_zero() or g[1].is_zero():
        return
    assert _wr([f, g]) == -_wr([g, f])
