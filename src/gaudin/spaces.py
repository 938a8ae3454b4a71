"""Spaces of quasi-exponentials: Wronskians, fundamental operators, exponents.

A space is an N-dimensional span of e^{K_i u} p_i(u) with distinct
exponents and polynomial parts whose degrees realize a partition.
Everything on this side is read from one table, the polynomial parts
(K_i + d/du)^m p_i of the derivatives of the basis (:func:`shifted_derivatives`):
the Wronskian is the determinant of its first N columns, the fundamental
operator comes from its N+1 maximal minors, and the trailing Wronskians of
the Bethe roots are determinants of its trailing sub-tables, all by
:func:`trailing_minors`, for a stack of spaces at once.  The fundamental
operator sum_i F_i (d/du)^(N-i), F_0 = 1, is kept as the array row
[G_0, ..., G_N] of :func:`cleared_operators`, F_i = G_i / G_0 and G_0 the
monic Wronskian part, so no rational function is ever formed.  The tables
and minors work over exact scalars and complex floats alike; the membership
test, which ``gaudin wronski`` runs on a supplied space, is exact only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import ModuleSpec, Partition
from .linalg import entries, point_table
from .polynomials import Poly, indicial_coefficients, poly_gcd
from .scalars import is_exact


class DegenerateSpaceError(ValueError):
    """The putative basis is linearly dependent (identically zero Wronskian)."""


def shifted_derivatives(k, p, top: int) -> np.ndarray:
    """(..., top + 1, width): the coefficients of (k + d/du)^m p for m = 0..top, ascending, for a stack p
    (..., width) of coefficient arrays; the polynomial parts of the derivatives of e^{k u} p."""
    steps = np.arange(1, p.shape[-1]).astype(p.dtype)
    out = [p]
    for _ in range(top):
        x = k * out[-1]
        x[..., :-1] += out[-1][..., 1:] * steps
        out.append(x)
    return np.stack(out, axis=-2)


@dataclass(frozen=True)
class QuasiExpSpace:
    """Exponents K plus nonzero polynomial parts p_i of non-increasing degrees lam_i."""

    exponents: tuple
    polys: tuple

    def __init__(self, exponents, polys):
        exponents = tuple(exponents)
        polys = tuple(polys)
        if len(set(exponents)) != len(exponents):
            raise ValueError("exponents must be pairwise distinct")
        if len(exponents) != len(polys):
            raise ValueError("need one polynomial part per exponent")
        degrees = [p.degree for p in polys]
        if any(d < 0 for d in degrees):
            raise ValueError("polynomial parts must be nonzero")
        if any(degrees[i] < degrees[i + 1] for i in range(len(degrees) - 1)):
            raise ValueError("degrees must be non-increasing")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "polys", polys)

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def degrees(self) -> tuple:
        return tuple(p.degree for p in self.polys)

    @property
    def weight(self) -> Partition:
        return Partition(self.degrees)

    @property
    def size(self) -> int:
        return sum(self.degrees)

    def stacked(self) -> list:
        """The parts as a stack of one space: per exponent an object array (1, lam_i + 1), ascending."""
        return [np.array([p.coeffs], dtype=object) for p in self.polys]


def trailing_minors(exponents, parts):
    """det(cols), for a tuple of columns: the determinants of the last len(cols) rows of the N x (N + 1)
    derivative tables of a stack of spaces over those columns, as (spaces, degree + 1) coefficients.
    ``parts[i]`` (spaces, lam_i + 1) holds the coefficients of p_i, complex or exact (``dtype=object``).
    Each determinant is a Laplace expansion along its first row, formed once and shared."""
    N = len(exponents)
    table = [shifted_derivatives(k, p, N) for k, p in zip(exponents, parts)]
    dets = {(c,): table[-1][:, c] for c in range(N + 1)}  # the last row's entries

    def det(cols):
        if cols not in dets:
            row = table[N - len(cols)]
            for t, c in enumerate(cols):
                minor, a = det(cols[:t] + cols[t + 1:]), row[:, c]
                term = np.zeros((len(a), a.shape[-1] + minor.shape[-1] - 1), np.result_type(a, minor))
                for j in range(a.shape[-1]):  # the product a * minor, in Poly's order
                    term[:, j:j + minor.shape[-1]] += a[:, j, None] * minor
                dets[cols] = term if not t else dets[cols] - term if t % 2 else dets[cols] + term
        return dets[cols]

    return det


def cleared_operators(exponents, parts) -> np.ndarray:
    """(spaces, N + 1, n + 1): [G_0, ..., G_N] of a stack of spaces (as in ``trailing_minors``), G_i the
    maximal minor without column N - i times (-1)^i over the leading coefficient of the Wronskian, the
    minor without column N: G_0 is monic, and no division by a polynomial happens, exact or float."""
    N, det = len(exponents), trailing_minors(exponents, parts)
    minors = np.stack([det(tuple(c for c in range(N + 1) if c != k)) for k in range(N, -1, -1)], axis=1)
    wr = minors[:, 0, ::-1] != 0
    if not wr.any(axis=1).all():
        raise DegenerateSpaceError("degenerate space: zero Wronskian")
    gs = minors / minors[np.arange(len(minors)), 0, -1 - np.argmax(wr, axis=1)][:, None, None]
    gs[:, 1::2] = -gs[:, 1::2]
    return gs


def operator_text(row) -> str:
    """sum_i (G_i / G_0) D^(N-i) as text, highest order first, for one
    (N + 1, width) row [G_0, ..., G_N] of ``cleared_operators``.

    Over exact scalars each quotient is first reduced by its gcd; a
    denominator is made monic, and a coefficient equal to 1 is left out.
    """
    gs = [Poly(g) for g in row.tolist()]
    N = len(gs) - 1
    exact = all(is_exact(c) for g in gs for c in g.coeffs)
    parts = ["D" if N == 1 else f"D^{N}"]
    for i, num in enumerate(gs[1:], 1):
        if num.is_zero():
            continue
        den = gs[0]
        if exact:
            g = poly_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
        lead = den.leading
        if lead != 1:
            num, den = Poly([c / lead for c in num.coeffs]), den.monic()
        coeff = str(num) if den.degree == 0 else f"({num})/({den})"
        dpow = "D" if N - i == 1 else f"D^{N - i}"
        if i == N:
            parts.append(f"({coeff})")
        elif den.degree == 0 and num == Poly([Fraction(1)]):
            parts.append(dpow)
        else:
            parts.append(f"({coeff})*{dpow}")
    return " + ".join(parts)


@dataclass(frozen=True)
class IndicialData:
    """Indicial polynomial at a point and its root multiset."""

    polynomial: Poly
    exponents: tuple | None  # sorted integer roots, or None if not all integral


def _integer_roots(poly: Poly, low: int, high: int):
    """The roots of a nonzero exact poly in [low, high], sorted with multiplicity,
    or None unless every root is one of them.  The multiplicity at c is the
    number of leading zero Taylor coefficients at c, all read from one
    ``point_table`` contraction (over 1, since the points are integers)."""
    candidates = range(low, high + 1)
    shift, _, _ = point_table(tuple(candidates), (len(poly.coeffs),) * len(candidates), poly.degree)
    nonzero = (shift @ np.array(poly.coeffs, dtype=object)).reshape(len(candidates), -1) != 0
    roots = [c for c, k in zip(candidates, nonzero.argmax(axis=1).tolist()) for _ in range(k)]
    return tuple(roots) if len(roots) == poly.degree else None


def expected_exponents(partition: Partition, N: int) -> tuple:
    """lam_N, lam_{N-1}+1, ..., lam_1+N-1 as a sorted tuple."""
    padded = partition.padded(N)
    return tuple(sorted(padded[j] + N - (j + 1) for j in range(N)))


@dataclass
class MembershipCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class MembershipReport:
    ok: bool
    checks: list = field(default_factory=list)
    read_indicial: object = field(default=dict, repr=False, compare=False)  # () -> the ``indicial`` dict
    indicial = property(lambda self: self.read_indicial(), doc="{s: IndicialData} per point, formed when read")


def membership_test(stack, spec: ModuleSpec) -> list:
    """For each gs in the stack: does the space with cleared operator ``gs``
    lie over the prescribed points with prescribed exponents?  One
    MembershipReport per operator, in stack order, of an exact array
    (operators, N + 1, width) of ``dtype=object``, such as
    ``cleared_operators`` gives an exact space.

    Every check reads one Taylor table: row (s, i) holds the coefficients of
    G_i in powers of (u - b_s), the coefficient rows of gs times T, the
    exact ``linalg.point_table`` of the points (the table ``betheop``
    expands the block side with), whose entries are C(j, k) b_s^(j - k):
    one product for the whole stack at every point, and the checks run per
    group of points with equal n_s.  A value passes as zero only when it is
    exactly zero; no float is formed.  The leading zeros of row (s, 0), up
    to n_s, give the order to which the monic G_0 vanishes at b_s.  The
    checks:

    - ``wronskian-matches-pole-polynomial``: G_0 is the pole polynomial
      prod_s (u - b_s)^{n_s}, that is deg G_0 = n and each order is n_s
      (the detail prints G_0);
    - ``poles-confined-to-points``: the orders add up to at least deg G_0,
      so G_0 has no root off the points;
    - ``indicial-exponents-at-point-s``: G_i vanishes to order n_s - i for
      i < n_s (regularity), and the indicial polynomial of the table,
      sum_i t_{i, n_s - i} a(a-1)...(a-(N-i-1)) (``indicial_coefficients``,
      the routine ``betheop.check_polynomiality`` uses, for the whole stack
      at once), equals ``spec.indicial_target(s)``, whose roots are the
      shifted partition; a report forms its ``indicial`` data when read.
    """
    if not len(stack):
        return []
    N, n = spec.rank, spec.size
    # table[c, s, i, j]: the (u - b_s)^j coefficient of G_i of operator c, j <= n, all points in one product
    sizes = spec.factor_sizes
    shift = entries(point_table(spec.points, (n + 1,) * len(sizes), stack.shape[-1] - 1), exact=True)
    table = (stack @ shift.T).reshape(len(stack), N + 1, len(sizes), n + 1).swapaxes(1, 2)
    orders, regular, chi_ok = (np.zeros((len(stack), len(sizes)), dtype=t) for t in (int, bool, bool))
    chis = np.zeros((len(stack), len(sizes), N + 1), dtype=object)
    for m in set(sizes):  # the points with n_s = m at once
        group = [s for s, n_s in enumerate(sizes) if n_s == m]
        local = table[:, group]
        vanish = local[..., :m] == 0
        orders[:, group] = np.cumprod(vanish[:, :, 0], axis=2).sum(axis=2)  # leading zeros of row 0
        required = np.arange(m) < m - np.arange(N + 1)[:, None]  # rows i < n_s vanish to order n_s - i
        regular[:, group] = np.all(vanish | ~required, axis=(2, 3))
        chi = chis[:, group] = indicial_coefficients(local, m)
        target = np.array([spec.indicial_target(s).coeffs for s in group], dtype=object)
        chi_ok[:, group] = regular[:, group] & (chi - target == 0).all(axis=2)

    expected = [expected_exponents(part, N) for part in spec.partitions]
    totals, regular, chi_ok = orders.sum(axis=1).tolist(), regular.tolist(), chi_ok.tolist()

    def indicial(c, s, chi) -> IndicialData:
        if chi_ok[c][s]:
            return IndicialData(chi, expected[s])
        # a space that fails reads off the exponents it has instead
        return IndicialData(chi, _integer_roots(chi, -1, n + N + 2) if regular[c][s] and not chi.is_zero() else None)

    names = [(f"indicial-exponents-at-point-{s}", f"expected exponents {exps}") for s, exps in enumerate(expected)]
    reports = []
    for c, g0 in enumerate(stack[:, 0].tolist()):
        g0, total = Poly(g0), totals[c]
        wr_ok = g0.degree == n == total
        poles_ok = total >= g0.degree
        checks = [
            MembershipCheck("wronskian-matches-pole-polynomial", wr_ok, f"got {g0}"),
            MembershipCheck("poles-confined-to-points", poles_ok, "" if poles_ok else "pole outside b"),
        ] + [MembershipCheck(name, ok, detail) for (name, detail), ok in zip(names, chi_ok[c])]
        reports.append(MembershipReport(all(ch.passed for ch in checks), checks, lambda c=c: {
            s: indicial(c, s, Poly(chi)) for s, chi in enumerate(chis[c].tolist())}))
    return reports
