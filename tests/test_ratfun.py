from fractions import Fraction

import pytest

from gaudin.linalg import Matrix
from gaudin.polynomials import Poly, poly_gcd
from gaudin.ratfun import RatFun, ratfun_pole_order

from oracles import DegreeBoundError, rational_reconstruct

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_reduction_keeps_num_den_coprime():
    f = RatFun(P(-1, 0, 1), P(-1, 1))  # (u^2-1)/(u-1) -> u+1
    assert f.num == P(1, 1)
    assert f.den == P(1)
    g = RatFun(P(0, 1), P(0, 0, 1))  # u/u^2 -> 1/u
    assert g.num == P(1) and g.den == P(0, 1)


def test_matrix_valued_ratfun_is_kept_as_built():
    """No gcd is taken for matrix numerators: the common factor (u - 2)
    stays, and equality is decided by cross-multiplication."""
    row = Matrix([[F(1), F(-3)]])
    f = RatFun(Poly([row * F(-2), row]), P(2, -3, 1))  # row (u - 2) / ((u - 1)(u - 2))
    assert f.den == P(2, -3, 1)
    assert f == RatFun(Poly([row]), P(-1, 1))


def test_arithmetic_and_coprimality():
    a = RatFun(P(1), P(0, 1))          # 1/u
    b = RatFun(P(1), P(-1, 1))         # 1/(u-1)
    s = a + b
    assert s.num == P(-1, 2)
    assert s.den == P(0, -1, 1)
    assert poly_gcd(s.num, s.den).degree == 0
    prod = a * b
    assert prod.den == P(0, -1, 1)
    q = prod / a
    assert q == b
    d = a.derivative()
    assert d.num == P(-1) and d.den == P(0, 0, 1)


def test_evaluate():
    f = RatFun(P(1, 1), P(-2, 1))
    assert f.evaluate(F(3)) == F(4)


def test_pole_order():
    f = RatFun(P(1), P(0, 1) * P(0, 1) * P(-1, 1))
    assert ratfun_pole_order(f, F(0)) == 2
    assert ratfun_pole_order(f, F(1)) == 1
    assert ratfun_pole_order(f, F(5)) == 0


def test_expand_at_infinity():
    # 1/(u-1) = u^-1 + u^-2 + ...
    f = RatFun(P(1), P(-1, 1))
    assert f.expand_at_infinity(3) == [F(0), F(1), F(1)]
    g = RatFun(P(1, 2), P(3, 1))  # (2u+1)/(u+3) -> 2 - 5/u + ...
    assert g.expand_at_infinity(2) == [F(2), F(-5)]
    with pytest.raises(ValueError):
        RatFun(P(0, 0, 1), P(0, 1), reduce=False).expand_at_infinity(1)


def test_rational_reconstruct_trivial():
    den = P(-1, 1)
    samples = [(F(2), F(1) / (F(2) - 1)), (F(3), F(1) / (F(3) - 1))]
    rec = rational_reconstruct(samples, 0, den)
    assert rec.num == P(1)


def test_rational_reconstruct_poly_over_u():
    den = P(0, 1)
    samples = [(F(u), (F(u) ** 2 + 1) / F(u)) for u in (1, 2, 3)]
    rec = rational_reconstruct(samples, 2, den)
    assert rec.num == P(1, 0, 1)


def test_rational_reconstruct_degree_bound_violation():
    den = P(1)
    # samples of u^2 cannot fit a degree-1 numerator
    samples = [(F(u), F(u) ** 2) for u in (0, 1, 2, 5)]
    with pytest.raises(DegreeBoundError):
        rational_reconstruct(samples, 1, den)
