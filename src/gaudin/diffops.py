"""Quasi-exponentials, linear differential operators, and Wronskians.

A quasi-exponential is e^{k u} p(u) with p a polynomial.  Operators are
stored as lists of rational-function coefficients by power of d/du; the
coefficients may be matrix-valued, in which case composition keeps the
written order of every product.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly, binomial, poly_det
from .ratfun import RatFun


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


class DiffOp:
    """Sum of coeff_k(u) (d/du)^k; coefficients ascending in k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, RatFun) else RatFun(c) if isinstance(c, Poly) else RatFun.constant(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_leading(coeffs_desc):
        """Build from coefficients listed leading-first (h_0, h_1, ..., h_N)."""
        return DiffOp(list(reversed(coeffs_desc)))

    @staticmethod
    def derivative_op(one=Fraction(1)):
        return DiffOp([RatFun.constant(one * 0), RatFun.constant(one)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k) -> RatFun:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun(Poly())

    def coeff_of_dpower_from_top(self, i) -> RatFun:
        """h_i in the monic normal form: coefficient of (d/du)^(order - i)."""
        return self.coeff(self.order - i)

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            if k < len(self.coeffs) and k < len(other.coeffs):
                out.append(self.coeffs[k] + other.coeffs[k])
            elif k < len(self.coeffs):
                out.append(self.coeffs[k])
            else:
                out.append(other.coeffs[k])
        return DiffOp(out)

    def __neg__(self):
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return DiffOp([f.scale(c) for f in self.coeffs])

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other, with the Leibniz rule expanded.

        (a d^i) (b d^j) = sum_r C(i, r) a b^(r) d^(i + j - r); the left
        coefficient always multiplies from the left, so matrix-valued
        coefficients compose correctly.
        """
        if self.is_zero() or other.is_zero():
            return DiffOp([])
        acc = {}
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                b_der = b
                for r in range(i + 1):
                    term = a * b_der if r == 0 else (a * b_der).scale(Fraction(binomial(i, r)))
                    k = i + j - r
                    acc[k] = term if k not in acc else acc[k] + term
                    if r < i:
                        b_der = b_der.derivative()
        top = max(acc)
        return DiffOp([acc.get(k, RatFun(Poly())) for k in range(top + 1)])

    def apply(self, f: QuasiExp):
        """Apply to a quasi-exponential; returns (exponent, rational part).

        The result is e^{k u} R(u) with R a rational function; R is zero
        exactly when f lies in the kernel.
        """
        if self.is_zero():
            return f.exponent, RatFun(Poly())
        parts = shifted_derivative_powers(f, self.order)
        total = None
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = c * RatFun(parts[k])
            total = term if total is None else total + term
        if total is None:
            total = RatFun(Poly())
        return f.exponent, total

    def annihilates(self, f: QuasiExp) -> bool:
        _, rat = self.apply(f)
        return rat.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"DiffOp({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in reversed(range(len(self.coeffs))):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c})")
            else:
                dpow = "D" if k == 1 else f"D^{k}"
                if c.den.degree == 0 and c.num == Poly([Fraction(1)]):
                    parts.append(dpow)
                else:
                    parts.append(f"({c})*{dpow}")
        return " + ".join(parts)


def compose_chain(ops) -> DiffOp:
    """Compose operators left to right: ops[0] ops[1] ... ops[-1]."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty composition")
    out = ops[0]
    for op in ops[1:]:
        out = out.compose(op)
    return out

