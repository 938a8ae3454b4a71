"""Exact scalars: rationals and Gaussian rationals, plus parsing helpers.

All construction-phase arithmetic in this package runs over an exact field,
either Q (``fractions.Fraction``) or Q(i) (:class:`GaussianRational`).
Floating point enters only in the spectral stage.
"""

from __future__ import annotations

import re
from fractions import Fraction


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return GaussianRational(self.re + coerced.re, self.im + coerced.im)

    __radd__ = __add__

    def __sub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return GaussianRational(self.re - coerced.re, self.im - coerced.im)

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return other - complex(self)
            return NotImplemented
        return coerced - self

    def __mul__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return GaussianRational(
            self.re * coerced.re - self.im * coerced.im,
            self.re * coerced.im + self.im * coerced.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        n = coerced.re * coerced.re + coerced.im * coerced.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * coerced.re + self.im * coerced.im) / n,
            (self.im * coerced.re - self.re * coerced.im) / n,
        )

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return coerced / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        return abs(complex(self))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(i)?$")


def parse_scalar(text):
    """Parse an exact scalar string like ``-3/2``, ``1/2+3/4i`` or ``-i``.

    Returns a Fraction when purely real and a GaussianRational otherwise.
    """
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, (Fraction, GaussianRational)):
        return text
    if not isinstance(text, str):
        raise ValueError(f"exact scalar expected, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into sign-prefixed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse scalar {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse scalar term {term!r} in {text!r}")
        sign, body, imag = m.groups()
        if body is None and not imag:
            raise ValueError(f"cannot parse scalar term {term!r} in {text!r}")
        try:
            value = Fraction(body) if body is not None else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
        if sign == "-":
            value = -value
        if imag:
            im_part += value
        else:
            re_part += value
    if im_part == 0:
        return re_part
    return GaussianRational(re_part, im_part)


def format_scalar(x):
    """Inverse of :func:`parse_scalar`, lossless for exact scalars."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        im = f"{x.im}i" if abs(x.im) != 1 else ("i" if x.im > 0 else "-i")
        if x.re == 0:
            return im
        sign = "+" if x.im > 0 and not im.startswith("-") else ""
        return f"{x.re}{sign}{im}"
    raise ValueError(f"not an exact scalar: {x!r}")


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def to_complex(x) -> complex:
    return complex(x)


def promote_field(values):
    """Return the input scalars, lifted to Q(i) if any has an imaginary part."""
    values = [parse_scalar(v) if isinstance(v, (str, int)) else v for v in values]
    if any(isinstance(v, GaussianRational) and v.im != 0 for v in values):
        return [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
    return [v.re if isinstance(v, GaussianRational) else v for v in values]
