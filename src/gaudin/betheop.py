"""The universal differential operator on the target weight block.

The operator is the row determinant of the rank-N matrix whose diagonal
carries d/du - K_i - e_ii(u) and whose (i, j) entry off the diagonal is
-e_ji(u); note the transposed generator indexing.  Expanded on the
weight-lam block of a concrete module it is a monic operator of order N
whose coefficients B_i are exact matrix polynomials N_i over one known
scalar denominator, B_i = N_i / P1^N with P1 = prod_s (u - b_s), so every
pole sits at an evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .algebra import EmbeddedModule, ModuleSpec
from .linalg import Matrix
from .polynomials import Poly, indicial_polynomial


def exact_sample_points(avoid, count: int, start: int = 2):
    """Deterministic small integers avoiding the given exact points."""
    avoid = set(avoid)
    out = []
    candidate = start
    while len(out) < count:
        c = Fraction(candidate)
        if c not in avoid:
            out.append(c)
        candidate += 1
    return out


@dataclass
class BetheOperator:
    """Monic order-N operator on the block: B_i = numerators[i - 1] / denominator."""

    spec: ModuleSpec
    module: EmbeddedModule
    numerators: list  # N_1 .. N_N, exact matrix polynomials on the weight-lam block
    denominator: Poly  # scalar, P1^N from the build
    # (i, point) -> block_evaluate(i, point) as a complex array; not an init
    # field, so an operator made by ``dataclasses.replace`` starts empty
    _block_arrays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def dim(self) -> int:
        return len(self.module.weight_indices(self.spec.weight))

    @cached_property
    def cleared(self) -> list:
        """A_i = B_i * prod_s (u - b_s)^{n_s}, i = 1..N, as exact matrix polynomials.

        Each A_i is N_i times the pole polynomial divided exactly by the
        denominator; a nonzero remainder means B_i has a pole the evaluation
        points do not allow, and raises ValueError.
        """
        pole = self.spec.pole_polynomial()
        out = []
        for i, num in enumerate(self.numerators, 1):
            quot, rem = (num * pole).divmod(self.denominator)
            if not rem.is_zero():
                raise ValueError(f"B_{i} * pole polynomial is not polynomial")
            out.append(quot)
        return out

    def block_evaluate(self, i: int, point) -> Matrix:
        """Exact value of B_i on the target weight block at a point off the poles."""
        a = self.cleared[i - 1]
        if a.is_zero():
            return Matrix.zeros(self.dim, self.dim)
        return a(point) / self.spec.pole_polynomial()(point)

    def block_array(self, i: int, point) -> np.ndarray:
        """``block_evaluate(i, point)`` as a read-only complex array, evaluated once per (i, point)."""
        key = (i, point)
        if key not in self._block_arrays:
            arr = self.block_evaluate(i, point).to_complex_array()
            arr.flags.writeable = False
            self._block_arrays[key] = arr
        return self._block_arrays[key]


def _cofactors(p1: Poly, points) -> list:
    """prod_{r != s} (u - b_r) for each point b_s."""
    return [p1.exact_div(Poly([-b, b * 0 + 1])) for b in points]


def _series(module: EmbeddedModule, i: int, j: int, nu, cofactors: list) -> Poly:
    """G with e_ij(u) = G / P1 on the weight-nu columns: sum_s E_s prod_{r != s} (u - b_r)."""
    total = Poly()
    for rest, mat in zip(cofactors, module.generator_block(i, j, nu)):
        total = total + Poly([c * mat for c in rest.coeffs])
    return total


def build_bethe_operator(spec: ModuleSpec, module: EmbeddedModule = None) -> BetheOperator:
    """Expand the row determinant on the weight-lam block, graded by weight.

    The expansion runs from the bottom row up over memoized minors.  M(S),
    the row determinant of rows k..N-1 on the columns S (|S| = N - k), maps
    the weight-lam columns into the one weight
    nu_S = lam + sum_{j in S} e_j - sum_{i >= k} e_i, so it is a
    dim(nu_S) x dim(lam) matrix operator, and

        M(S + {j}) = sum_{j not in S} (-1)^{#{s in S : s < j}} a_{k-1,j} M(S),

    N 2^(N-1) compositions in all.  M(S) is kept as the numerators of its
    d/du-coefficients over P1^{|S|}, P1 = prod_s (u - b_s): an entry carries
    e(u) = G(u) / P1, and d/du takes N / P1^m to (N' P1 - m N P1') / P1^{m+1},
    so no gcd is ever taken.
    """
    if module is None:
        module = EmbeddedModule(spec)
    N = spec.rank
    lam = spec.weight.padded(N)
    p1 = Poly.from_roots(spec.points)
    dp1 = p1.derivative()
    cofactors = _cofactors(p1, spec.points)
    minors = {(): (lam, [Poly([Matrix.identity(len(module.weight_indices(lam)))])])}
    for k in reversed(range(N)):
        m = N - 1 - k  # every minor in hand is over P1^m
        extended = {}
        for S, (nu, nums) in minors.items():
            for j in range(N):
                if j in S:
                    continue
                target = list(nu)
                target[j] += 1
                target[k] -= 1
                target = tuple(target)
                if j != k and not module.weight_indices(target):
                    continue  # no members of that weight: the term is zero
                G = _series(module, j + 1, k + 1, nu, cofactors)  # -e_jk(u) sits at row k, column j
                if j == k:  # (d/du - K_k - G / P1) after M(S)
                    scalar = dp1.scale(m) + p1.scale(spec.exponents[k])
                    padded = nums + [Poly()]
                    term = [
                        a.derivative() * p1 - a * scalar - G * a + (padded[r - 1] * p1 if r else Poly())
                        for r, a in enumerate(padded)
                    ]
                else:
                    term = [-(G * a) for a in nums]
                if sum(s < j for s in S) % 2:
                    term = [-a for a in term]
                key = tuple(sorted(S + (j,)))
                if key in extended:
                    term = [a + b for a, b in zip_longest(extended[key][1], term, fillvalue=Poly())]
                extended[key] = (target, term)
        minors = extended
    _, nums = minors[tuple(range(N))]
    return BetheOperator(spec=spec, module=module, numerators=nums[N - 1::-1], denominator=p1 ** N)


def first_coefficient_residual(op: BetheOperator) -> Poly:
    """N_1 P1 + den (sum_i G_ii + P1 sum_i K_i) on the block, with e_ii(u) = G_ii / P1.

    Zero exactly when B_1 = -sum_i (K_i + e_ii(u)), which holds by construction.
    """
    spec = op.spec
    lam = spec.weight.padded(op.rank)
    p1 = Poly.from_roots(spec.points)
    cofactors = _cofactors(p1, spec.points)
    total = p1.scale(sum(spec.exponents[1:], spec.exponents[0])).scale(Matrix.identity(op.dim))
    for i in range(1, op.rank + 1):
        total = total + _series(op.module, i, i, lam, cofactors)
    return op.numerators[0] * p1 + total * op.denominator


def leading_symbol(op: BetheOperator):
    """Matrix polynomial sum_i B_{i0} a^{N-i} from the constant terms at infinity.

    B_{i0} is the u^n coefficient of A_i, since the pole polynomial is
    monic of degree n.  Equals prod_i (a - K_i) times the identity.  None
    when some B_i has a pole off the points or an A_i has degree above n,
    so that B_i has no constant term at infinity.
    """
    n = op.spec.size
    try:
        cleared = op.cleared
    except ValueError:
        return None
    if any(a.degree > n for a in cleared):
        return None
    dim = op.dim
    top = [a.coeffs[n] if a.degree == n else Matrix.zeros(dim, dim) for a in cleared]
    return Poly(top[::-1] + [Matrix.identity(dim)])


def expected_leading_symbol(op: BetheOperator) -> Poly:
    dim = op.dim
    scalar = Poly.from_roots(op.spec.exponents)
    return Poly([c * Matrix.identity(dim) for c in scalar.coeffs])


@dataclass
class PolynomialityReport:
    """Local structure of the cleared coefficients A_i = B_i * prod_s (u - b_s)^{n_s}."""

    degrees: list
    pole_orders: dict  # (i, s) -> observed pole order of B_i at b_s
    scalar_values: dict  # (i, s) -> leading local coefficient as a scalar
    indicial_ok: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.indicial_ok and not self.failures


def check_polynomiality(op: BetheOperator) -> PolynomialityReport:
    """Clear the poles of every B_i and verify the local structure.

    Checks, exactly: the cleared products are matrix polynomials of degree
    at most n; the leading local coefficient of each B_i at each point is a
    scalar matrix; and the indicial identity at each point b_s,

        sum_i C_{i, n_s - i, s} * a(a-1)...(a-(N-i-1))
            = prod_{r != s} (b_s - b_r)^{n_r} * prod_l (a - lam^(s)_l - N + l),

    where C_{i, j, s} is the (u - b_s)^j Taylor coefficient of the cleared
    A_i (A_0 = P), missing ones zero: ``indicial_polynomial`` against
    ``spec.indicial_target(s)``.
    """
    spec = op.spec
    N = spec.rank
    dim = op.dim
    n = spec.size
    pole = spec.pole_polynomial()
    failures = []
    pole_orders = {}
    scalar_values = {}
    zero = Matrix.zeros(dim, dim)

    try:
        cleared = op.cleared
    except ValueError as exc:
        return PolynomialityReport([], {}, {}, False, [str(exc)])
    degrees = [a.degree for a in cleared]
    for i, d in enumerate(degrees, 1):
        if d > n:
            failures.append(f"cleared A_{i} has degree {d} > {n}")

    indicial_ok = True
    for s, (b_s, n_s) in enumerate(zip(spec.points, spec.factor_sizes)):
        taylors = [[c * Matrix.identity(dim) for c in pole.taylor_at(b_s, n + 1)]]
        for i in range(1, N + 1):
            ai = cleared[i - 1]
            tc = ai.taylor_at(b_s, n + 1) if not ai.is_zero() else [zero] * (n + 1)
            taylors.append(tc)
            # observed pole order of B_i at b_s = n_s - vanishing order of A_i
            vanish = 0
            while vanish < len(tc) and tc[vanish].is_zero():
                vanish += 1
            pole_orders[i, s] = max(0, n_s - vanish)
            j = n_s - i
            local = tc[j] if 0 <= j < len(tc) else zero
            c = local.scalar_of_identity()
            if c is None and dim:  # every matrix on an empty block is scalar
                failures.append(
                    f"leading local coefficient of B_{i} at point {b_s} is not scalar"
                )
            elif c is not None:
                scalar_values[i, s] = c
        expected = Poly([c * Matrix.identity(dim) for c in spec.indicial_target(s).coeffs])
        if indicial_polynomial(taylors, n_s) != expected:
            indicial_ok = False
            failures.append(f"indicial identity fails at point {b_s}")

    return PolynomialityReport(
        degrees=degrees,
        pole_orders=pole_orders,
        scalar_values=scalar_values,
        indicial_ok=indicial_ok,
        failures=failures,
    )


def _cleared_coefficients(op: BetheOperator):
    """Every coefficient matrix C_ij of every A_i, or None when clearing fails."""
    try:
        return [c for a in op.cleared for c in a.coeffs]
    except ValueError:
        return None


def commutativity_check(op: BetheOperator) -> bool:
    """[B_i(u), B_k(v)] = 0 and [B_i(u), e_jj] = 0 on the block, exactly, for all u and v.

    With C_ij the u^j coefficient of A_i, P(u)P(v)[B_i(u), B_k(v)] is
    sum_jl [C_ij, C_kl] u^j v^l, so the first identity holds exactly when
    the non-scalar C_ij commute pairwise.  On the block's columns
    [C, e_jj] = (lam_j - e_jj) C, which vanishes exactly when C keeps them
    in weight lam: the Cartan part is the test of ``weight_blocks_preserved``.
    """
    coeffs = _cleared_coefficients(op)
    if coeffs is None or not weight_blocks_preserved(op):
        return False
    mats = [c for c in coeffs if c.scalar_of_identity() is None]
    return all(m.commutator(other).is_zero() for a, m in enumerate(mats) for other in mats[a + 1:])


def weight_blocks_preserved(op: BetheOperator) -> bool:
    """Every C_ij maps the weight-lam columns into weight lam.

    The build composes generator blocks between single weights, so this
    holds exactly when every generator image it used stayed inside its
    target weight; the module lists the blocks whose images did not.  Fails
    too when clearing fails.
    """
    return _cleared_coefficients(op) is not None and not op.module.leaks
