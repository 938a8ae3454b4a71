"""Quasi-exponentials and Wronskians.

A quasi-exponential is e^{k u} p(u) with p a polynomial.
"""

from __future__ import annotations

from .polynomials import Poly, poly_det


class QuasiExp:
    """e^{exponent * u} * poly(u)."""

    __slots__ = ("exponent", "poly")

    def __init__(self, exponent, poly: Poly):
        self.exponent = exponent
        self.poly = poly

    def derivative(self) -> "QuasiExp":
        return QuasiExp(self.exponent, self.poly.scale(self.exponent) + self.poly.derivative())

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, QuasiExp):
            return NotImplemented
        if self.poly.is_zero() and other.poly.is_zero():
            return True
        return self.exponent == other.exponent and self.poly == other.poly

    def __repr__(self):
        return f"QuasiExp({self.exponent!r}, {self.poly!r})"

    def __str__(self):
        if self.exponent == 0:
            return str(self.poly)
        return f"exp({self.exponent}*u)*({self.poly})"


def shifted_derivative_powers(f: QuasiExp, top: int):
    """Polynomial parts of f, f', ..., f^(top); (k + d/du) applied repeatedly."""
    out = [f.poly]
    for _ in range(top):
        p = out[-1]
        out.append(p.scale(f.exponent) + p.derivative())
    return out


def wronskian(fs) -> QuasiExp:
    """Wronskian of quasi-exponentials, computed as an exact determinant.

    The exponential factor e^{(sum of exponents) u} is pulled out and the
    remaining polynomial determinant is expanded directly.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("wronskian of an empty family")
    m = len(fs)
    rows = [shifted_derivative_powers(f, m - 1) for f in fs]
    det = poly_det(rows)
    total = fs[0].exponent * 0
    for f in fs:
        total = total + f.exponent
    return QuasiExp(total, det)
