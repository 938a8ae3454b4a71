"""Rational functions with scalar monic denominators.

Numerators may be scalar or matrix polynomials; denominators are always
scalar, which matches every operator in this problem (poles sit at the
evaluation points with scalar multiplicity).  Reduction by gcd happens only
for exact scalar numerators; matrix-valued and float-valued rational
functions are kept as built and compared by cross-multiplication or
evaluation.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix
from .polynomials import Poly, poly_gcd
from .scalars import is_exact


def _is_exact_poly(p: Poly) -> bool:
    """Exact scalar coefficients (matrix coefficients do not count)."""
    return p.is_zero() or is_exact(p.coeffs[0])


class RatFun:
    """num / den with den a monic scalar polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        if den is None:
            den = Poly([Fraction(1)])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = Poly()
            self.den = Poly([Fraction(1)])
            return
        if reduce and _is_exact_poly(num) and _is_exact_poly(den):
            num, den = self._reduced(num, den)
        lead = den.leading
        if lead != 1:
            den = den.monic()
            num = num.map(lambda c: c / lead)
        self.num = num
        self.den = den

    @staticmethod
    def _reduced(num, den):
        g = poly_gcd(num, den)
        if g.degree <= 0:
            return num, den
        return num.exact_div(g), den.exact_div(g)

    @staticmethod
    def constant(c):
        return RatFun(Poly([c]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_matrix_valued(self) -> bool:
        return not self.num.is_zero() and isinstance(self.num.coeffs[0], Matrix)

    def __add__(self, other):
        if isinstance(other, Poly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if isinstance(other, Poly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RatFun(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, Poly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.is_matrix_valued():
            raise ValueError("division by a matrix-valued rational function")
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def scale(self, c):
        return RatFun(self.num.scale(c), self.den)

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFun(other)
        if isinstance(other, RatFun):
            return (self.num * other.den) == (other.num * self.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self):
        n = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFun(n, self.den * self.den)

    def evaluate(self, x):
        d = self.den(x)
        return self.num(x) / d

    __call__ = evaluate

    def expand_at_infinity(self, count: int):
        """First ``count`` coefficients of the expansion in powers of 1/u.

        Requires deg num <= deg den; raises ValueError otherwise.
        """
        if self.num.is_zero():
            return [Fraction(0)] * count
        d = self.den.degree
        if self.num.degree > d:
            raise ValueError("rational function grows at infinity")
        zero = self.num.coeffs[0] * 0
        num_rev = [self.num.coeff(d - k) if d - k >= 0 else zero for k in range(count)]
        den_rev = [self.den.coeff(d - k) if d - k >= 0 else Fraction(0) for k in range(count)]
        out = []
        for m in range(count):
            acc = num_rev[m]
            for r in range(m):
                acc = acc - out[r] * den_rev[m - r]
            out.append(acc / den_rev[0])
        return out

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"


def ratfun_pole_order(f: RatFun, point) -> int:
    """Order of the pole of the (reduced) rational function at the point."""
    order = 0
    den = f.den
    lin = Poly([-point, point * 0 + 1])
    while not den.is_zero():
        q, r = den.divmod(lin)
        if not r.is_zero():
            break
        order += 1
        den = q
    return order
