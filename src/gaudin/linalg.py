"""Exact matrix polynomials over Q or Q(i), one integer stack each.

A MatrixPoly C_0 + C_1 u + ... + C_d u^d with rows x cols coefficients is
stored as whole arrays over one denominator: an integer array ``re`` of
numerators of shape (d + 1, rows, cols), a second such array ``im`` for the
imaginary parts (``None`` when they are all zero), and one positive ``int``
``den``.  The triple is kept reduced: the top coefficient is nonzero, and
the gcd of the denominator and every numerator is 1, so equal polynomials
have equal arrays.  A single matrix is a polynomial of degree at most 0; the
zero polynomial has no coefficients, and neither has any polynomial with an
empty (0-row or 0-column) block.

An array is int64 when every entry is below 2**62 in absolute value, and
holds Python ints (``dtype=object``) otherwise.  Every operation bounds its
result in Python ints first and runs in int64 when the bound stays below
2**62, so no int64 operation can overflow; otherwise it runs on Python
ints.

Sums, negation and exact scalar multiples are whole-array operations.  A
product is one block matmul of every pair of coefficients, then one shifted
add per degree.  Every linear map along the degree axis is one contraction
with an exact scalar matrix: a scalar polynomial multiple (a Toeplitz
matrix), the derivative, the quotient by a monic scalar polynomial, and the
expansion at many points, where one integer ``point_table`` holds the
Taylor shift at every point (binomials times powers of the point, over one
common denominator) and its rows k = 0 evaluate (``BetheOperator.block_evaluate``).
It is the package's only Taylor shift and evaluation: ``entries`` gives its
values exactly or correctly rounded to complex floats, for scalar
polynomials (``spaces.membership_test``).
Products keep operand order and never assume that the coefficients commute.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polynomials import Poly
from .scalars import GaussianRational

# An int64 array holds entries below this in absolute value, so that a sum
# or difference of two of them still fits int64.
_LIMIT = 2**62


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


def _bound(a) -> int:
    """max |a| of an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _as_int64(a):
    """a as int64, or None when an entry does not fit."""
    if a.dtype == np.int64:
        return a
    try:
        return a.astype(np.int64)
    except OverflowError:
        return None


def _canonical(a):
    """The integer array a as int64 when every entry is below _LIMIT in absolute value, else as Python ints."""
    a64 = _as_int64(a)
    if a64 is not None and _bound(a64) < _LIMIT:
        return a64
    return a.astype(object)


def _scalars(values, shape):
    """Integer arrays (re, im, den) of exact scalars over one denominator; im None if all real."""
    parts = [_split(c) for c in values]
    if any(p is None for p in parts):
        raise TypeError("exact scalars expected")
    den = math.lcm(*(d for _, _, d in parts))
    re = np.empty(len(parts), dtype=object)
    re[:] = [r * (den // d) for r, _, d in parts]
    im = None
    if any(i for _, i, _ in parts):
        im = np.empty(len(parts), dtype=object)
        im[:] = [(i or 0) * (den // d) for _, i, d in parts]
        im = _canonical(im.reshape(shape))
    return _canonical(re.reshape(shape)), im, den


def _common(points):
    """Gaussian integers (a_s, c_s) and the lcm L of the denominators, with b_s = (a_s + i c_s) / L."""
    parts = [_split(b) for b in points]
    L = math.lcm(1, *(e for _, _, e in parts))
    return [(a * (L // e), (c or 0) * (L // e)) for a, c, e in parts], L


def _exact(re, im, den):
    """The exact scalar (re + i*im) / den of integers; a Fraction when im is None."""
    value = Fraction(int(re), den)
    return value if im is None else GaussianRational(value, Fraction(int(im), den))


@lru_cache(maxsize=256)
def point_table(points: tuple, counts: tuple, degree: int) -> tuple:
    """Read-only integer arrays (re, im, den): row (s, k), k < counts[s], holds C(j, k) b_s^(j - k), j <= degree.

    With b_s = z_s / L, entry (s, k, j) is C(j, k) z_s^(j - k) L^(degree - j + k)
    over L^degree, in Gaussian integers (im None when every b_s is real): one
    contraction expands a polynomial at every point; the rows k = 0 evaluate it.
    """
    zs, L = _common(points)
    rows = []
    for (a, c), count in zip(zs, counts):
        powers = [(L**degree, 0)]  # z^m L^(degree - m)
        for _ in range(degree):
            x, y = powers[-1]
            powers.append(((x * a - y * c) // L, (x * c + y * a) // L))
        rows += [[tuple(math.comb(j, k) * part for part in powers[j - k]) if j >= k else (0, 0)
                  for j in range(degree + 1)] for k in range(count)]
    table = np.array(rows, dtype=object).reshape(len(rows), degree + 1, 2)
    re, im = _canonical(table[..., 0]), _canonical(table[..., 1]) if table[..., 1].any() else None
    for part in (re, im) if im is not None else (re,):
        part.flags.writeable = False
    return re, im, L**degree


@lru_cache(maxsize=256)
def root_products(roots: tuple) -> tuple:
    """P = prod_r (u - x_r) as a Poly, and (re, im, den) whose column s over den holds the coefficients
    of prod_{r != s} (u - x_r), ascending, unreduced: with x_r = z_r / L, products of the integer factors
    L u - z_r (L in place of the own one), all over L^len(roots).  Built once per roots.
    """
    zs, L = _common(roots)
    n, cols = len(zs), []
    for s in range(n + 1):
        col = [(1, 0)]  # Gaussian integer coefficients, ascending
        for r, (a, c) in enumerate(zs):  # times L, or L u - (a + ic)
            col = ([(L * x, L * y) for x, y in col] if r == s else
                   [(L * x1 - a * x0 + c * y0, L * y1 - a * y0 - c * x0)
                    for (x0, y0), (x1, y1) in zip(col + [(0, 0)], [(0, 0)] + col)])
        cols.append(col)
    gauss = any(c for _, c in zs)
    p = Poly([_exact(x, y if gauss else None, L**n) for x, y in cols[n]])
    table = np.array(cols[:n], dtype=object).reshape(n, n, 2).transpose(1, 0, 2)
    return p, (_canonical(table[..., 0]), _canonical(table[..., 1]) if gauss else None, L**n)


def divide_out_points(p: Poly, points: tuple, caps: tuple) -> tuple:
    """(orders, q): orders[s] = min(caps[s], the vanishing order of p at points[s]) and the exact quotient
    q = p / prod_s (u - x_s)^orders[s], for a nonzero p with exact coefficients.

    With x_s = z_s / L and p = sum_k n_k u^k / den in Gaussian integers, the
    integer polynomial sum_k n_k L^(d - k) v^k, that is L^d den p(v / L), is
    divided by v - z_s by synthetic division for as long as the remainder
    vanishes, at most caps[s] times; no gcd and no Fraction is formed until
    q's coefficients.
    """
    parts = [_split(c) for c in p.coeffs]
    den = math.lcm(*(e for _, _, e in parts))
    zs, L = _common(points)
    work = [(r * (den // e) * L**j, (i or 0) * (den // e) * L**j) for j, (r, i, e) in enumerate(reversed(parts))]
    orders = []
    for (a, c), cap in zip(zs, caps):
        order = 0
        while order < cap:
            acc, quot = (0, 0), []  # Horner from the top: each partial sum is the next quotient coefficient
            for x, y in work:
                acc = (x + a * acc[0] - c * acc[1], y + a * acc[1] + c * acc[0])
                quot.append(acc)
            if quot.pop() != (0, 0):
                break
            work, order = quot, order + 1
        orders.append(order)
    gauss = any(c for _, c in zs) or any(i for _, i, _ in parts)
    e = len(work) - 1  # the quotient's degree; work holds its coefficients from the top
    q = [_exact(x, y if gauss else None, den * L**(e - k)) for k, (x, y) in enumerate(reversed(work))]
    return tuple(orders), Poly(q)


def _lincomb(pairs):
    """sum of c * a over pairs of a Python int c and an integer array a (all one shape), exactly."""
    fast = all(a.dtype == np.int64 and abs(c) < _LIMIT for c, a in pairs)
    fast = fast and sum(abs(c) * _bound(a) for c, a in pairs) < _LIMIT
    out = None
    for c, a in pairs:
        term = a * c if fast else a.astype(object) * c
        out = term if out is None else out + term
    return out


def _matmul(x, y, terms=1):
    """x @ y of integer arrays (broadcast over leading axes), exactly.

    In int64 when terms sums of such products stay below _LIMIT, judged by
    max|x| * max|y| * inner * terms in Python ints; otherwise on Python ints.
    """
    x64, y64 = _as_int64(x), _as_int64(y)
    if x64 is not None and y64 is not None and _bound(x64) * _bound(y64) * x.shape[-1] * terms < _LIMIT:
        return x64 @ y64
    return x.astype(object) @ y.astype(object)


def _convolve(x, y):
    """Coefficients of the product of two stacked matrix polynomials (degree axis first)."""
    pairs = _matmul(x[:, None], y[None, :], terms=min(len(x), len(y)))
    out = np.zeros((len(x) + len(y) - 1,) + pairs.shape[2:], dtype=pairs.dtype)
    for i, row in enumerate(pairs):
        out[i:i + len(y)] += row
    return out


def _contract(t, x):
    """t @ x along the degree axis: t is (m, k), x is (k, rows, cols)."""
    return _matmul(t, x.reshape(len(x), -1)).reshape((t.shape[0],) + x.shape[1:])


def _complex(product, a, b, c, d):
    """(a + ib)(c + id) for a bilinear product; b or d None stands for zero."""
    if b is None and d is None:
        return product(a, c), None
    if d is None:
        return product(a, c), product(b, c)
    if b is None:
        return product(a, c), product(a, d)
    ac, bd = product(a, c), product(b, d)  # three products, not four
    cross = product(_lincomb([(1, a), (1, b)]), _lincomb([(1, c), (1, d)]))
    return _lincomb([(1, ac), (-1, bd)]), _lincomb([(1, cross), (-1, ac), (-1, bd)])


def _gcd(a) -> int:
    if a.dtype == np.int64:
        return int(np.gcd.reduce(a, axis=None)) if a.size else 0
    return math.gcd(*a.flat)


def _padded(a, length):
    if len(a) == length:
        return a
    return np.concatenate([a, np.zeros((length - len(a),) + a.shape[1:], dtype=a.dtype)])


def _floats(a, den) -> np.ndarray:
    """The quotients a / den, each correctly rounded (as Python's int / int)."""
    return (a.astype(object) / den).astype(float)


def entries(table, exact: bool) -> np.ndarray:
    """The entries (re + i*im) / den of an integer table (re, im, den), such as a ``point_table``:
    exact scalars in an object array, or complex floats with each part correctly rounded."""
    re, im, den = table
    if exact:
        return np.frompyfunc(lambda x, y: _exact(x, y, den), 2, 1)(re, im)
    out = np.zeros(re.shape, dtype=complex)
    out.real = _floats(re, den)
    if im is not None:
        out.imag = _floats(im, den)
    return out


@lru_cache(maxsize=256)
def _reciprocal(monic: Poly, steps: int) -> tuple:
    """Read-only integer arrays (re, im, den) of the first steps terms of 1/(x^e D(1/x)) = sum_m c_m x^m,
    D = monic of degree e, banded: row k holds c_0, c_1, ... from column k on (im None over Q)."""
    e, rev = monic.degree, monic.coeffs[::-1]
    c = [Fraction(1)]
    for m in range(1, steps):
        c.append(-sum((rev[j] * c[m - j] for j in range(1, min(m, e) + 1)), Fraction(0)))
    c_re, c_im, c_den = _scalars(c, (steps,))
    parts = [_banded(part, steps, steps).T if part is not None else None for part in (c_re, c_im)]
    for part in parts:
        if part is not None:
            part.flags.writeable = False
    return (*parts, c_den)


def _banded(values, rows: int, cols: int):
    """T[i + j, i] = values[j] for every i < cols and j < len(values), cut to rows rows."""
    t = np.zeros((rows, cols), dtype=values.dtype)
    for i in range(cols):
        t[i:i + len(values), i] = values[:rows - i]
    return t


def pairwise_commute(re, im=None) -> bool:
    """C_j C_k = C_k C_j for every pair of matrices C_k = re[k] + i*im[k] of one (count, n, n) stack."""
    for k in range(len(re) - 1):
        a, b = re[k], im[k] if im is not None else None
        c, d = re[k + 1:], im[k + 1:] if im is not None else None
        left = _complex(_matmul, a, b, c, d)
        right = _complex(_matmul, c, d, a, b)
        if any(np.any(x != y) for x, y in zip(left, right) if x is not None):
            return False
    return True


class MatrixPoly:
    """Immutable exact matrix polynomial: sum_k (re[k] + i*im[k]) / den * u^k."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im=None, den=1):
        re = _canonical(np.asarray(re))
        im = _canonical(np.asarray(im)) if im is not None else None
        top = len(re)
        while top and not re[top - 1].any() and (im is None or not im[top - 1].any()):
            top -= 1
        re = re[:top]
        if im is not None:
            im = im[:top] if im[:top].any() else None
        if den != 1 and top:
            g = math.gcd(den, _gcd(re), _gcd(im) if im is not None else 0)
            if g != 1:
                re = _canonical(re // g)
                im = _canonical(im // g) if im is not None else None
                den //= g
        self.re, self.im, self.den = re, im, den if top else 1

    @staticmethod
    def zero(rows: int, cols: int) -> MatrixPoly:
        return MatrixPoly(np.zeros((0, rows, cols), dtype=np.int64))

    @staticmethod
    def identity(n: int) -> MatrixPoly:
        return MatrixPoly(np.identity(n, dtype=np.int64)[None])

    @staticmethod
    def combination(table, stack, den=1) -> MatrixPoly:
        """sum_s p_s * stack[s] / den for scalar polynomials p_s = sum_k (re[k, s] + i*im[k, s]) / t_den u^k."""
        if not len(stack):
            return MatrixPoly.zero(*stack.shape[1:])
        t_re, t_im, t_den = table
        re, im = _complex(_contract, t_re, t_im, stack, None)
        return MatrixPoly(re, im, t_den * den)

    @property
    def shape(self) -> tuple:
        return self.re.shape[1:]

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not len(self.re)

    def __len__(self) -> int:
        """The number of coefficients, degree + 1."""
        return len(self.re)

    def _combine(self, other, sign):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix polynomial addition")
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign == 1 else -other
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        length = max(len(self.re), len(other.re))
        re = _lincomb([(a, _padded(self.re, length)), (b, _padded(other.re, length))])
        im = None
        if self.im is not None or other.im is not None:
            im = _lincomb([(c, _padded(part, length)) for c, part in ((a, self.im), (b, other.im)) if part is not None])
        return MatrixPoly(re, im, den)

    def __add__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return MatrixPoly(-self.re, -self.im if self.im is not None else None, self.den)

    def __mul__(self, other):
        if isinstance(other, MatrixPoly):
            if self.shape[1] != other.shape[0]:
                raise ValueError("shape mismatch in matrix polynomial product")
            if self.is_zero() or other.is_zero():
                return MatrixPoly.zero(self.shape[0], other.shape[1])
            re, im = _complex(_convolve, self.re, self.im, other.re, other.im)
            return MatrixPoly(re, im, self.den * other.den)
        if isinstance(other, Poly):
            return self._times_poly(other)
        return self._scaled(other)

    def __rmul__(self, other):
        # scalars and scalar polynomials commute with matrices
        if isinstance(other, Poly):
            return self._times_poly(other)
        return self._scaled(other)

    def _scaled(self, scalar):
        """The product with an exact scalar (c + i*d) / e: the Gaussian product on the numerators."""
        parts = _split(scalar)
        if parts is None:
            return NotImplemented
        c, d, e = parts
        re, im = [(c, self.re)], [(d, self.re)] if d else []
        if self.im is not None:
            re.append((-(d or 0), self.im))
            im.append((c, self.im))
        return MatrixPoly(_lincomb(re), _lincomb(im) if im else None, e * self.den)

    def contract(self, t_re, t_im, t_den):
        """The stack contracted along the degree axis with the first len(self) columns of the exact
        scalar matrix (t_re + i*t_im) / t_den, such as a ``point_table``."""
        if self.is_zero():
            return self
        cols = len(self.re)
        re, im = _complex(_contract, t_re[:, :cols], None if t_im is None else t_im[:, :cols], self.re, self.im)
        return MatrixPoly(re, im, t_den * self.den)

    def _times_poly(self, p: Poly):
        """The product with a scalar polynomial: one Toeplitz contraction."""
        if self.is_zero() or p.is_zero():
            return MatrixPoly.zero(*self.shape)
        rows, cols = len(self.re) + p.degree, len(self.re)
        p_re, p_im, p_den = _scalars(p.coeffs, (p.degree + 1,))
        t_im = _banded(p_im, rows, cols) if p_im is not None else None
        return self.contract(_banded(p_re, rows, cols), t_im, p_den)

    def derivative(self) -> MatrixPoly:
        if len(self.re) < 2:
            return MatrixPoly.zero(*self.shape)
        d = len(self.re) - 1
        t = np.zeros((d, d + 1), dtype=np.int64)
        t[np.arange(d), np.arange(1, d + 1)] = np.arange(1, d + 1)
        return self.contract(t, None, 1)

    def exact_div(self, monic: Poly) -> MatrixPoly:
        """The quotient by a monic scalar polynomial with exact coefficients.

        With D = monic of degree e and 1/(x^e D(1/x)) = sum_m c_m x^m, the
        quotient coefficient of u^k is sum_{j >= k + e} c_{j - k - e} C_j:
        one contraction of the top len(self) - e coefficients, the only ones
        it reads, against the series built once per (D, length).  Raises
        ValueError when the remainder self - quotient * D is not zero.
        """
        e = monic.degree
        if e < 0 or monic.leading != 1:
            raise ValueError("division by a monic scalar polynomial only")
        steps = len(self.re) - e
        if steps <= 0:
            if not self.is_zero():
                raise ValueError("inexact polynomial division")
            return self
        t_re, t_im, c_den = _reciprocal(monic, steps)
        re, im = _complex(_contract, t_re, t_im, self.re[e:], None if self.im is None else self.im[e:])
        quot = MatrixPoly(re, im, c_den * self.den)
        if quot * monic != self:
            raise ValueError("inexact polynomial division")
        return quot

    def scalars(self) -> list:
        """Per degree of a square polynomial, c when the coefficient is c times the identity, else None."""
        diag = np.arange(self.shape[0])
        scalar = np.ones(len(self.re), dtype=bool)
        for part in (self.re, self.im):
            if part is not None:
                off = part.copy()
                off[:, diag, diag] = 0
                values = part[:, diag, diag]
                scalar &= ~np.any(off != 0, axis=(1, 2)) & np.all(values == values[:, :1], axis=1)
        return [_exact(self.re[k, 0, 0], None if self.im is None else self.im[k, 0, 0], self.den) if ok else None
                for k, ok in enumerate(scalar)]

    def to_complex(self, count: int) -> np.ndarray:
        """The first count coefficients as one complex array of shape (count, rows, cols)."""
        out = np.zeros((count,) + self.shape, dtype=complex)
        k = min(count, len(self.re))
        out[:k] = entries((self.re[:k], None if self.im is None else self.im[:k], self.den), exact=False)
        return out

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        if self.re.shape != other.re.shape or self.den != other.den:
            return False
        if (self.im is None) != (other.im is None):
            return False
        return np.array_equal(self.re, other.re) and (self.im is None or np.array_equal(self.im, other.im))

    def __repr__(self):
        im = None if self.im is None else self.im.tolist()
        return f"MatrixPoly(re={self.re.tolist()!r}, im={im!r}, den={self.den})"
