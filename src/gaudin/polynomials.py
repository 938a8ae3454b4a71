"""Dense univariate polynomials with scalar coefficients.

Coefficients are exact scalars (``Fraction``, ``GaussianRational``) or
complex floats.  Matrix-valued polynomials are ``linalg.MatrixPoly``.  The
indicial polynomial of both sides is formed here, from Taylor coefficients
at the points that both sides read off one ``linalg.point_table``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np


class Poly:
    """Polynomial c_0 + c_1 u + ... + c_d u^d, stored in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_roots(roots):
        """Monic polynomial with the given roots."""
        one = Fraction(1)
        p = Poly([one])
        for r in roots:
            p = p * Poly([-r * one, one])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero()

    def _zero(self):
        if self.coeffs:
            return self.coeffs[0] * 0
        return Fraction(0)

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):]))

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                term = ca * cb
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        if any(c is None for c in out):
            zero = a[0] * 0 * b[0]
            out = [zero if c is None else c for c in out]
        return Poly(out)

    def scale(self, c):
        """Multiply every coefficient by c."""
        return Poly([c * a for a in self.coeffs])

    def __rmul__(self, c):
        # c * p for a scalar c
        return self.scale(c)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        one = Fraction(1) if not self.coeffs else self.coeffs[0] ** 0
        out = Poly([one])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __call__(self, x):
        if not self.coeffs:
            return x * 0
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    def derivative(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        """Quotient and remainder; requires invertible leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        d = other.degree
        lead = other.leading
        if len(num) <= d:
            return Poly(), self
        quot = [self._zero()] * (len(num) - d)
        for k in reversed(range(len(quot))):
            c = num[k + d] / lead
            quot[k] = c
            if c == 0:
                continue
            for j, oc in enumerate(other.coeffs):
                num[k + j] = num[k + j] - c * oc
        return Poly(quot), Poly(num[:d])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.leading
        return Poly([c / lead for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a scalar field (exact coefficients only)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def format_poly(p: Poly, var: str = "u") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in reversed(range(len(p.coeffs))):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = f"{c}"
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if c == 1 else (f"-{power}" if c == -1 else f"{c}*{power}")
        parts.append(body)
    out = parts[0]
    for body in parts[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out


@cache
def falling_product(alpha_count: int) -> Poly:
    """The polynomial a(a-1)...(a-alpha_count+1) in the variable a, built once per count.

    Its int coefficients keep a product with a Taylor coefficient in that
    coefficient's field, exact or complex.
    """
    p = Poly([1])
    for j in range(alpha_count):
        p = p * Poly([-j, 1])
    return p


def indicial_coefficients(table, n_s: int) -> np.ndarray:
    """sum_i t_{i, n_s - i} a(a-1)...(a-(N-i-1)), ascending in a, for the operator sum_i G_i (d/du)^{N-i}.

    table[..., i, j] = t_{i, j}, for i = 0..N and j = 0..n_s at least, is the
    (u - b)^j Taylor coefficient of G_i at a point b where G_0 vanishes to
    order n_s; leading axes stack operators.  Exact (``dtype=object``) or
    complex.  The indicial polynomial of both sides:
    ``betheop.check_polynomiality`` and ``spaces.membership_test`` call it.
    """
    N = table.shape[-2] - 1
    terms = np.arange(min(n_s, N) + 1)
    falling = np.array([falling_product(N - i).coeffs + (0,) * i for i in terms.tolist()])
    return table[..., terms, n_s - terms] @ falling
