import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.linalg import entries, point_table
from gaudin.polynomials import (
    Poly,
    falling_product,
    indicial_coefficients,
    poly_gcd,
)
from gaudin.scalars import GaussianRational

from oracles import indicial_polynomial, newton_interpolate, poly_det

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_multiplication_example():
    assert P(1, 0, 1) * P(-1, 1) == P(-1, 1, -1, 1)  # (u^2+1)(u-1)


def test_derivative_example():
    assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)


def test_gcd_example():
    assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)


def shift(p, b, count):
    """The first count coefficients of p in powers of (u - b), from the exact ``point_table`` of b."""
    return list(entries(point_table((b,), (count,), p.degree), exact=True) @ np.array(p.coeffs, dtype=object))


def test_indicial_polynomial_rank_one():
    """u d/du - 1 at 0: G_0 = u vanishes to order 1, exponent a = 1 (kernel u)."""
    taylors = [shift(P(0, 1), F(0), 2), shift(P(-1), F(0), 2)]
    assert indicial_polynomial(taylors, 1) == P(-1, 1)
    # a coefficient past the end of its list counts as zero
    assert indicial_polynomial([[F(0), F(1)], []], 1) == P(0, 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("n_s", [0, 1, 2, 5])
def test_indicial_coefficients_match_the_term_by_term_sum(N, n_s):
    """The stacked indicial routine equals the sum formed term by term: exactly
    on an exact table, and row by row on a stack of complex tables."""
    rng = np.random.default_rng(10 * N + n_s)
    tables = [[[F(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n_s + 1)]
               for _ in range(N + 1)] for _ in range(3)]
    expected = [indicial_polynomial(t, n_s) for t in tables]
    assert Poly(indicial_coefficients(np.array(tables[0], dtype=object), n_s)) == expected[0]
    stacked = indicial_coefficients(np.array(tables, dtype=complex), n_s)
    assert stacked.shape == (3, N + 1)
    for row, chi in zip(stacked, expected):
        assert np.allclose(row, [complex(chi.coeff(k)) for k in range(N + 1)], rtol=1e-14, atol=1e-14)


def test_divmod_exactness():
    num = P(2, 3, 1) * P(-5, 1) + P(7)
    q, r = num.divmod(P(-5, 1))
    assert q == P(2, 3, 1)
    assert r == P(7)
    with pytest.raises(ValueError):
        num.exact_div(P(-5, 1))


def test_shift_and_taylor():
    p = P(0, 0, 1)  # u^2
    assert Poly(shift(p, F(1), 3)) == P(1, 2, 1)  # p(u + 1)
    assert shift(p, F(3), 4) == [F(9), F(6), F(1), F(0)]


def _taylor_by_products(b, degree, count):
    """The Taylor table C(j, k) b^(j - k) from products in the field of b."""
    powers = [b ** 0]
    for _ in range(degree):
        powers.append(powers[-1] * b)
    zero = powers[0] * 0
    rows = [[math.comb(j, k) * powers[j - k] if j >= k else zero for j in range(degree + 1)] for k in range(count)]
    return np.array(rows).reshape(count, degree + 1)


@pytest.mark.parametrize("b", [3, -2, 0, Fraction(3), Fraction(-7, 3), Fraction(1, 1000), Fraction(0),
                               GaussianRational(F(1, 2), F(-3)), 2.5 - 1j, complex(3)], ids=repr)
@pytest.mark.parametrize("degree, count", [(5, 6), (0, 1), (3, 5), (6, 2)])
def test_taylor_matrix_is_the_table_of_products(b, degree, count):
    """The ``point_table`` of b over its denominator equals the table of
    products entry by entry: exactly for an exact b, Fractions for a real
    one; for a complex b, whose products are exact in floating point here,
    the float table of its exact value bit for bit."""
    want = _taylor_by_products(b, degree, count)
    if isinstance(b, complex):
        got = entries(point_table((GaussianRational(F(b.real), F(b.imag)),), (count,), degree), exact=False)
        assert got.shape == want.shape and [_bits(x) for x in got.flat] == [_bits(y) for y in want.flat]
        return
    got = entries(point_table((b,), (count,), degree), exact=True)
    field = (Fraction, GaussianRational) if isinstance(b, GaussianRational) else Fraction
    assert got.shape == want.shape and all(isinstance(x, field) for x in got.flat)
    assert got.tolist() == want.tolist()


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


exact_points = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
    st.builds(GaussianRational, st.fractions(-5, 5, max_denominator=9), st.fractions(-5, 5, max_denominator=9)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(exact_points, min_size=0, max_size=4, unique=True), st.integers(0, 12), st.integers(1, 13))
def test_float_point_table_is_the_exact_table_correctly_rounded(points, degree, count):
    """Each part of each float entry is the nearest float to that part of the exact entry."""
    table = point_table(tuple(points), (count,) * len(points), degree)
    exact, rounded = entries(table, exact=True), entries(table, exact=False)
    parts = [(x.re, x.im) if isinstance(x, GaussianRational) else (x, 0) for x in exact.flat]
    assert rounded.shape == exact.shape
    assert [_bits(z) for z in rounded.flat] == [_bits(complex(float(x), float(y))) for x, y in parts]


def test_evaluate_horner():
    p = P(1, -2, 1)
    assert p(F(3)) == F(4)
    assert Poly()(F(5)) == 0


def test_interpolation_roundtrip():
    pts = [F(0), F(1), F(2), F(3)]
    p = P(2, -1, 0, 1)
    q = newton_interpolate(pts, [p(x) for x in pts])
    assert q == p


def test_poly_det_matches_expansion():
    m = [[P(1, 1), P(0, 1)], [P(2), P(1)]]
    assert poly_det(m) == P(1, 1) * P(1) - P(0, 1) * P(2)


def test_falling_product():
    # a(a-1)(a-2)
    assert falling_product(3) == P(0, 2, -3, 1)


small_fracs = st.integers(-8, 8).map(F)
polys = st.lists(small_fracs, min_size=0, max_size=5).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_divmod_invariant(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_gcd_divides(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    for p in (a, b):
        if not p.is_zero():
            assert (p % g).is_zero()
