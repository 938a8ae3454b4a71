"""Exact dense matrices over Q or Q(i).

A Matrix stores its entries as whole arrays over one denominator: a numpy
``dtype=object`` array of Python ``int`` numerators for the real parts, a
second such array for the imaginary parts when the matrix is over Q(i)
(``None`` over Q), and one positive ``int`` denominator.  The triple is kept
reduced, meaning the gcd of the denominator and every numerator is 1, so
equal matrices have equal arrays and equal hashes.  Sums, products, scalar
multiples and the zero and identity tests are a few whole-array operations
on Python ints (a product runs in int64 when a bound on its operands rules
out overflow); a Fraction is built only when ``get`` reads one entry.

The Matrix class doubles as a coefficient ring for matrix-valued
polynomials: products keep operand order and never assume commutativity.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational


def _split(c):
    """Integers (re, im, den) with c = (re + i*im)/den, im None over Q; None if c is not exact."""
    if isinstance(c, GaussianRational):
        den = math.lcm(c.re.denominator, c.im.denominator)
        return (
            c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator),
            den,
        )
    if isinstance(c, (int, Fraction)):
        return c.numerator, None, c.denominator
    return None


def _ints(rows, cols, values):
    out = np.empty(rows * cols, dtype=object)
    out[:] = values
    return out.reshape(rows, cols)


def _matmul(x, y):
    """Exact product of int arrays; in int64 when no sum of products can overflow it."""
    if x.size and y.size:
        bound = max(x.max(), -x.min()) * max(y.max(), -y.min()) * x.shape[1]
        if bound < 2**63:
            return (x.astype(np.int64) @ y.astype(np.int64)).astype(object)
    return x @ y


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=object)


def _or_zeros(a, like):
    return a if a is not None else _zeros(*like.shape)


class Matrix:
    """Immutable exact matrix over Q or Q(i): (re + i*im) / den with int arrays."""

    __slots__ = ("rows", "cols", "re", "im", "den")

    def __init__(self, data):
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged matrix")
        parts = [_split(a) for row in data for a in row]
        if any(p is None for p in parts):
            raise TypeError("matrix entries must be exact scalars")
        den = math.lcm(*(d for _, _, d in parts))
        re = _ints(rows, cols, [r * (den // d) for r, _, d in parts])
        im = None
        if any(i is not None for _, i, _ in parts):
            im = _ints(rows, cols, [(i or 0) * (den // d) for _, i, d in parts])
        self._set(re, im, den)

    def _set(self, re, im, den):
        if den != 1:
            g = math.gcd(den, *re.flat, *(im.flat if im is not None else ()))
            if g != 1:
                re = re // g
                im = im // g if im is not None else None
                den //= g
        self.rows, self.cols = re.shape
        self.re, self.im, self.den = re, im, den

    @classmethod
    def _of(cls, re, im, den):
        """The reduced matrix (re + i*im) / den; im is None over Q."""
        out = cls.__new__(cls)
        out._set(re, im, den)
        return out

    @staticmethod
    def zeros(rows, cols, zero=Fraction(0)):
        im = _zeros(rows, cols) if isinstance(zero, GaussianRational) else None
        return Matrix._of(_zeros(rows, cols), im, 1)

    @staticmethod
    def identity(n, one=Fraction(1)):
        return Matrix._of(np.identity(n, dtype=object), None, 1) * one

    def get(self, i, j):
        re = Fraction(self.re[i, j], self.den)
        if self.im is None:
            return re
        return GaussianRational(re, Fraction(self.im[i, j], self.den))

    def _combine(self, other, sign):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        re = self.re * a + other.re * b
        im = None
        if self.im is not None or other.im is not None:
            im = _or_zeros(self.im, self.re) * a + _or_zeros(other.im, other.re) * b
        return Matrix._of(re, im, den)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return Matrix._of(-self.re, -self.im if self.im is not None else None, self.den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            a, b, c, d = self.re, self.im, other.re, other.im
            if b is None and d is None:
                re, im = _matmul(a, c), None
            elif d is None:
                re, im = _matmul(a, c), _matmul(b, c)
            elif b is None:
                re, im = _matmul(a, c), _matmul(a, d)
            else:
                # (a + ib)(c + id) with three products
                ac, bd = _matmul(a, c), _matmul(b, d)
                re, im = ac - bd, _matmul(a + b, c + d) - ac - bd
            return Matrix._of(re, im, self.den * other.den)
        return self._scaled(other)

    def _scaled(self, scalar):
        parts = _split(scalar)
        if parts is None:
            return NotImplemented
        s_re, s_im, s_den = parts
        if s_im is None and s_re == s_den == 1:
            return self
        if s_im is None:
            re = self.re * s_re
            im = self.im * s_re if self.im is not None else None
        elif self.im is None:
            re, im = self.re * s_re, self.re * s_im
        else:
            re = self.re * s_re - self.im * s_im
            im = self.re * s_im + self.im * s_re
        return Matrix._of(re, im, self.den * s_den)

    def __rmul__(self, other):
        # scalars commute with matrices
        return self._scaled(other)

    def __truediv__(self, scalar):
        if _split(scalar) is None:
            return NotImplemented
        return self._scaled(Fraction(1) / scalar)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols, self.den) != (other.rows, other.cols, other.den):
            return False
        if not np.array_equal(self.re, other.re):
            return False
        if self.im is None or other.im is None:
            im = self.im if other.im is None else other.im
            return im is None or not im.any()
        return np.array_equal(self.im, other.im)

    def __hash__(self):
        key = (self.rows, self.cols, self.den, tuple(self.re.flat))
        if self.im is not None and self.im.any():
            key += tuple(self.im.flat)
        return hash(key)

    def is_zero(self) -> bool:
        return not self.re.any() and (self.im is None or not self.im.any())

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scalar_of_identity(self):
        """Return c when the matrix equals c*I, else None (also for 0x0)."""
        if not self.is_square() or not self.rows:
            return None
        eye = np.identity(self.rows, dtype=object)
        for part in (self.re, self.im):
            if part is not None and not np.array_equal(part, part[0, 0] * eye):
                return None
        return self.get(0, 0)

    def to_complex_array(self) -> np.ndarray:
        out = (self.re / self.den).astype(complex)
        if self.im is not None:
            out = out + 1j * (self.im / self.den).astype(float)
        return out

    def commutator(self, other):
        return self * other - other * self

    def __repr__(self):
        entries = [[self.get(i, j) for j in range(self.cols)] for i in range(self.rows)]
        return f"Matrix({entries!r})"

