"""The rational reconstruction oracle: a numerator over a known denominator from samples."""

from fractions import Fraction

import pytest

from gaudin.polynomials import Poly

from oracles import DegreeBoundError, rational_reconstruct

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_rational_reconstruct_trivial():
    den = P(-1, 1)
    samples = [(F(2), F(1) / (F(2) - 1)), (F(3), F(1) / (F(3) - 1))]
    rec = rational_reconstruct(samples, 0, den)
    assert rec == P(1)


def test_rational_reconstruct_poly_over_u():
    den = P(0, 1)
    samples = [(F(u), (F(u) ** 2 + 1) / F(u)) for u in (1, 2, 3)]
    rec = rational_reconstruct(samples, 2, den)
    assert rec == P(1, 0, 1)


def test_rational_reconstruct_degree_bound_violation():
    den = P(1)
    # samples of u^2 cannot fit a degree-1 numerator
    samples = [(F(u), F(u) ** 2) for u in (0, 1, 2, 5)]
    with pytest.raises(DegreeBoundError):
        rational_reconstruct(samples, 1, den)
