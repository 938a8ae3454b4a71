"""Spaces of quasi-exponentials: Wronskians, fundamental operators, exponents.

A space is an N-dimensional span of e^{K_i u} p_i(u) with distinct
exponents and monic polynomial parts whose degrees realize a partition.
Everything on this side is read from one table, the polynomial parts
(K_i + d/du)^m p_i of the derivatives of the basis
(:func:`shifted_derivative_powers`): the Wronskian is the determinant of
its first N columns, the fundamental operator comes from its N+1 maximal
minors, and the trailing Wronskians of the Bethe roots are determinants of
its trailing sub-tables.  The fundamental operator sum_i F_i (d/du)^(N-i),
F_0 = 1, is kept as the polynomial list [G_0, ..., G_N] with F_i = G_i / G_0
and G_0 the monic Wronskian part, so no rational function is ever formed.
Everything here works over exact scalars and, with a tolerance, over
complex floats (for spaces recovered from numerical spectra).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ModuleSpec, Partition
from .polynomials import Poly, falling_product, indicial_polynomial, poly_det, poly_gcd
from .scalars import is_exact, to_complex


class DegenerateSpaceError(ValueError):
    """The putative basis is linearly dependent (identically zero Wronskian)."""


def shifted_derivative_powers(k, p: Poly, top: int) -> list:
    """Polynomial parts of f, f', ..., f^(top) for f = e^{k u} p: (k + d/du)
    applied repeatedly to p."""
    out = [p]
    for _ in range(top):
        out.append(out[-1].scale(k) + out[-1].derivative())
    return out


@dataclass(frozen=True)
class QuasiExpSpace:
    """Exponents K plus monic polynomial parts p_i of degree lam_i."""

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

    def is_exact_space(self) -> bool:
        return all(is_exact(k) for k in self.exponents) and all(
            all(is_exact(c) for c in p.coeffs) for p in self.polys
        )

    def derivatives(self, top: int) -> list:
        """The derivative table: row i holds the polynomial parts of the
        derivatives 0..top of e^{K_i u} p_i."""
        return [shifted_derivative_powers(k, p, top) for k, p in zip(self.exponents, self.polys)]


@dataclass(frozen=True)
class WronskiData:
    """Normalized Wronskian: prefactor, monic polynomial part, Wronski map image."""

    prefactor: object
    poly: Poly
    coefficients: tuple  # a_s with u^n + sum (-1)^s a_s u^{n-s}


def exponent_prefactor(exponents) -> object:
    out = None
    for i in range(len(exponents)):
        for j in range(i + 1, len(exponents)):
            term = exponents[j] - exponents[i]
            out = term if out is None else out * term
    return out if out is not None else Fraction(1)


def wronskian_of_space(space: QuasiExpSpace) -> WronskiData:
    """Strip the exponential and the alternant prefactor; read off the map.

    The Wronskian's polynomial part is the determinant of the N x N
    derivative table.  The monic polynomial part has degree exactly
    n = |lam|; a_s is the signed coefficient of u^{n-s}.
    """
    wr = poly_det(space.derivatives(space.rank - 1))
    if wr.is_zero():
        raise DegenerateSpaceError("degenerate space: zero Wronskian")
    prefactor = exponent_prefactor(space.exponents)
    n = space.size
    if wr.degree != n:
        raise DegenerateSpaceError(
            f"Wronskian degree {wr.degree}, expected {n}: degenerate space"
        )
    poly = Poly([c / prefactor for c in wr.coeffs])
    coefficients = tuple((-1) ** s * poly.coeff(n - s) for s in range(1, n + 1))
    return WronskiData(prefactor=prefactor, poly=poly, coefficients=coefficients)


def cleared_operator_polys(space: QuasiExpSpace) -> list:
    """Polynomials G_0..G_N with G_i = (monic Wronskian part) * F_i.

    Computed as signed maximal minors of the N x (N+1) derivative table,
    normalized so G_0 is monic; no rational-function division happens, so
    the same code serves exact and float spaces.
    """
    N = space.rank
    rows = space.derivatives(N)
    minors = []
    for c in range(N + 1):
        cols = [r for r in range(N + 1) if r != c]
        minors.append(poly_det([[row[r] for r in cols] for row in rows]))
    g0 = minors[N]
    if g0.is_zero():
        raise DegenerateSpaceError("degenerate space: zero Wronskian")
    lead = g0.leading
    out = []
    for i in range(N + 1):
        raw = minors[N - i]
        if i % 2 == 1:
            raw = -raw
        out.append(Poly([c / lead for c in raw.coeffs]))
    return out


def fundamental_operator(space: QuasiExpSpace) -> list:
    """[G_0, ..., G_N]: the monic order-N operator annihilating the space is
    sum_i (G_i / G_0) (d/du)^(N-i).

    For exact spaces two polynomial identities are asserted on the spot:
    G_1 = -(G_0' + sum_i K_i G_0), which is F_1 = -Wr'/Wr, and
    sum_i G_i f^(N-i) = 0 for each basis element f.
    """
    gs = cleared_operator_polys(space)
    if space.is_exact_space():
        g0, N = gs[0], space.rank
        total = sum(space.exponents[1:], space.exponents[0])
        if gs[1] != -shifted_derivative_powers(total, g0, 1)[1]:
            raise AssertionError("first coefficient does not match -Wr'/Wr")
        for parts in space.derivatives(N):
            if not sum((g * parts[N - i] for i, g in enumerate(gs)), Poly()).is_zero():
                raise AssertionError("fundamental operator misses its kernel")
    return gs


def operator_text(gs) -> str:
    """sum_i (G_i / G_0) D^(N-i) as text, highest order first.

    Over exact scalars each quotient is first reduced by its gcd; a
    denominator is made monic, and a coefficient equal to 1 is left out.
    """
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


def _at_infinity(gs) -> list:
    """(c_0, c_1) of F_i = G_i / G_0 = c_0 + c_1 / u + ... for i = 0..N.

    Read from the u^d and u^(d-1) coefficients, d = deg G_0; raises
    ValueError when some G_i has degree above d, i.e. the operator is not of
    quasi-exponential type.
    """
    g0 = gs[0]
    d, lead = g0.degree, g0.leading
    if any(g.degree > d for g in gs):
        raise ValueError("not of quasi-exponential type")
    out = []
    for g in gs:
        c0 = g.coeff(d) / lead
        out.append((c0, (g.coeff(d - 1) - g0.coeff(d - 1) * c0) / lead))
    return out


def char_at_infinity(gs) -> Poly:
    """Monic degree-N polynomial sum_i F_{i0} a^(N-i) from the u -> infinity constant terms."""
    return Poly([c0 for c0, _ in reversed(_at_infinity(gs))])


def second_symbol(gs) -> Poly:
    """The polynomial sum_i F_{i1} a^(N-i) from the 1/u terms at infinity."""
    return Poly([c1 for _, c1 in reversed(_at_infinity(gs))])


@dataclass(frozen=True)
class IndicialData:
    """Indicial polynomial at a point and its root multiset."""

    point: object
    polynomial: Poly
    exponents: tuple | None  # sorted integer roots, or None if not all integral
    repeated: bool


def _integer_roots(poly: Poly, low: int, high: int):
    roots = []
    work = poly
    for cand in range(low, high + 1):
        c = Fraction(cand)
        while work.degree > 0 and work(c) == 0:
            roots.append(cand)
            work = work.exact_div(Poly([-c, Fraction(1)]))
    if work.degree > 0:
        return None, False
    return tuple(sorted(roots)), len(set(roots)) != len(roots)


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
    indicial: dict = field(default_factory=dict)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _poly_close(a: Poly, b: Poly, tol, floor=1.0) -> bool:
    if tol is None:
        return a == b
    top = max(a.degree, b.degree, 0)
    scale = max([abs(complex(c)) for c in a.coeffs + b.coeffs] + [floor])
    for k in range(top + 1):
        x = complex(a.coeff(k)) if a.degree >= k else 0.0
        y = complex(b.coeff(k)) if b.degree >= k else 0.0
        if abs(x - y) > tol * scale:
            return False
    return True


def _abs_taylor(g: Poly, b, count: int) -> list:
    """Taylor coefficients of |g| at |b|: entry j bounds the roundoff of g.taylor_at(b)[j]."""
    mags = Poly([abs(complex(c)) for c in g.coeffs])
    return mags.taylor_at(abs(complex(to_complex(b))), count)


def membership_test(gs: list, spec: ModuleSpec, tol=None) -> MembershipReport:
    """Does the space with ``gs = cleared_operator_polys(space)`` lie over the
    prescribed points with prescribed exponents?

    Verifies that the monic Wronskian part is exactly the pole polynomial of
    the spec (so the Wronski map lands on the point dictated by the
    evaluation points), that the fundamental operator has no finite
    singularity away from those points, and that the local exponents at
    each point match the shifted partition.  With ``tol`` the comparisons
    are numerical and every point is converted to complex once; otherwise
    they are exact.
    """
    checks = []
    indicial = {}
    N = spec.rank
    n = spec.size
    g0 = gs[0]
    target = spec.pole_polynomial()

    wr_ok = _poly_close(g0, target, tol)
    checks.append(
        MembershipCheck(
            "wronskian-matches-pole-polynomial",
            wr_ok,
            f"got {g0}",
        )
    )

    # pole confinement: deflate the Wronskian by the known roots
    gscale = max([abs(complex(c)) for c in g0.coeffs] + [1.0]) if tol is not None else None
    work = g0
    for b, n_s in zip(spec.points, spec.factor_sizes):
        if tol is not None:
            b = complex(to_complex(b))
        for _ in range(n_s):
            quot, rem = work.divmod(Poly([-b, b * 0 + 1]))
            rem_small = rem.is_zero() or (
                tol is not None and abs(complex(rem.coeff(0))) <= tol * gscale
            )
            if not rem_small:
                break
            work = quot
    poles_ok = work.degree <= 0
    checks.append(
        MembershipCheck(
            "poles-confined-to-points",
            poles_ok,
            "" if poles_ok else "pole outside b",
        )
    )

    for s, (b_s, n_s, part) in enumerate(zip(spec.points, spec.factor_sizes, spec.partitions)):
        # A complex coefficient times an exact b_s goes through complex(b_s)
        # anyway; converting once gives the same floats at native speed.
        shift = b_s if tol is None else complex(to_complex(b_s))
        taylors = [g.taylor_at(shift, n + 1) if not g.is_zero() else [] for g in gs]
        # A float Taylor coefficient at b_s carries the roundoff of the shift,
        # which the same shift applied to |g_i| at |b_s| bounds.  That bound is
        # the only floor of the indicial comparison: with close points both
        # indicial polynomials are tiny, and a floor of 1 would accept any.
        bounds = [_abs_taylor(g, shift, n + 1) for g in gs] if tol is not None else None
        regular = True
        for i in range(N + 1):
            tc = taylors[i]
            tscale = max([abs(complex(c)) for c in tc] + [1.0]) if tol is not None else None
            for j in range(min(n_s - i, len(tc))):
                cj = tc[j]
                small = (cj == 0) if tol is None else (
                    abs(complex(cj)) <= tol * max(tscale, bounds[i][j])
                )
                if not small:
                    regular = False
        chi = indicial_polynomial(taylors, n_s)
        chi_floor = None if tol is None else sum(
            bounds[i][n_s - i] * max(abs(c) for c in falling_product(N - i).coeffs)
            for i, tc in enumerate(taylors) if 0 <= n_s - i < len(tc)
        )
        chi_ok = regular and _poly_close(chi, spec.indicial_target(s), tol, chi_floor)
        exps = expected_exponents(part, N)
        repeated = False
        if tol is None and regular and not chi.is_zero():
            roots, repeated = _integer_roots(chi.monic(), -1, n + N + 2)
            if repeated:
                chi_ok = False
            got = roots
        else:
            got = exps if chi_ok else None
        indicial[s] = IndicialData(
            point=b_s, polynomial=chi, exponents=got, repeated=repeated
        )
        checks.append(
            MembershipCheck(
                f"indicial-exponents-at-point-{s}",
                chi_ok,
                f"expected exponents {exps}",
            )
        )

    return MembershipReport(ok=all(c.passed for c in checks), checks=checks, indicial=indicial)
