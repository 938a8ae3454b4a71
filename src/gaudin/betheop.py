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
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, zip_longest

import numpy as np

from .algebra import EmbeddedModule, ModuleSpec
from .linalg import MatrixPoly, divide_out_points, pairwise_commute, point_table, root_products
from .polynomials import Poly, indicial_coefficients


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
    numerators: list  # N_1 .. N_N, MatrixPolys on the weight-lam block
    denominator: Poly  # scalar, P1^N from the build

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def dim(self) -> int:
        return len(self.module.weight_indices(self.spec.weight))

    @cached_property
    def cleared(self) -> list:
        """A_i = B_i * P, P = prod_s (u - b_s)^{n_s}, i = 1..N, as MatrixPolys.

        With D the denominator and g = gcd(P, D), each A_i is N_i (P/g)
        divided exactly by D/g (:func:`_reduced_pair`).  On the built
        operator D = P1^N, so with vector factors P/g = 1 and D/g =
        P1^(N-1).  N_i P is divisible by D exactly when N_i (P/g) is by D/g:
        a nonzero remainder means B_i has a pole the evaluation points do
        not allow, and raises ValueError.
        """
        spec = self.spec
        factor, den = _reduced_pair(spec, self.denominator, spec.factor_sizes)
        out = []
        for i, num in enumerate(self.numerators, 1):
            try:
                out.append((num * factor if factor.degree else num).exact_div(den))
            except ValueError:
                raise ValueError(f"B_{i} * pole polynomial is not polynomial") from None
        return out

    def block_evaluate(self, i: int, points) -> list:
        """Exact values of B_i = A_i / P on the target weight block at a sequence of points off the poles, as constants.

        One contraction of A_i's integer coefficient stack with the points'
        ``point_table`` (one k = 0 row each) gives every value of A_i, which
        is then scaled by the exact 1/P(point).
        """
        a, points = self.cleared[i - 1], tuple(points)
        values = a.contract(*point_table(points, (1,) * len(points), max(a.degree, 0)))
        re, im, den = values.re, values.im, values.den
        return [MatrixPoly(re[p:p + 1], None if im is None else im[p:p + 1], den) * scale
                for p, scale in enumerate(_inverse_pole_values(self.spec, points))]

    @cached_property
    def eigenvector_blocks(self) -> tuple:
        """(B, scales): every B_i at the :func:`eigenvector_points`, as read-only arrays.

        B[p, i - 1] is ``block_evaluate(i, points)[p]`` as a complex matrix,
        each entry correctly rounded, from one call per coefficient, so B has
        shape (points, N, dim, dim), and scales[p, i - 1] is
        max(1, ||B[p, i - 1]||) in the Frobenius norm.  Both are computed
        once per operator; like ``cleared``, an operator made by
        ``dataclasses.replace`` computes its own.
        """
        per_point = zip(*(self.block_evaluate(i, eigenvector_points(self.spec)) for i in range(1, self.rank + 1)))
        B = np.array([[v.to_complex(1)[0] for v in values] for values in per_point], dtype=complex)
        scales = np.maximum(np.linalg.norm(B, axis=(-2, -1)), 1.0)
        B.flags.writeable = scales.flags.writeable = False
        return B, scales


@lru_cache(maxsize=256)
def eigenvector_points(spec: ModuleSpec) -> tuple:
    """The n + 2 integer points from 13 off the poles where eigenvalues are compared, built once per spec."""
    return tuple(exact_sample_points(spec.points, spec.size + 2, start=13))


@lru_cache(maxsize=256)
def _inverse_pole_values(spec: ModuleSpec, points: tuple) -> tuple:
    """1 / P(x) at each point, built once per spec and points."""
    return tuple(1 / spec.pole_polynomial()(x) for x in points)


@lru_cache(maxsize=256)
def _reduced_pair(spec: ModuleSpec, den: Poly, sizes: tuple) -> tuple:
    """(Q / g, den / g) for Q = prod_s (u - b_s)^{sizes[s]} and g = gcd(Q, den), built once per spec, den and sizes.

    g = prod_s (u - b_s)^{min(sizes[s], ord_{b_s} den)}: den's vanishing
    orders at the points are read off by dividing them out, so no Euclidean
    gcd is taken (:func:`linalg.divide_out_points`).
    """
    orders, quotient = divide_out_points(den, spec.points, sizes)
    return Poly.from_roots([b for b, m, o in zip(spec.points, sizes, orders) for _ in range(m - o)]), quotient


def _series(module: EmbeddedModule, i: int, j: int, nu, cofactors: tuple) -> MatrixPoly:
    """G with e_ij(u) = G / P1 on the weight-nu columns: sum_s E_s prod_{r != s} (u - b_r)."""
    return MatrixPoly.combination(cofactors, *module.generator_block(i, j, nu))


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
    p1, cofactors = root_products(spec.points)
    dp1 = p1.derivative()
    minors = {(): (lam, [MatrixPoly.identity(len(module.weight_indices(lam)))])}
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
                    zero = MatrixPoly.zero(*nums[0].shape)
                    term = [
                        (a.derivative() + before) * p1 - a * scalar - G * a
                        for before, a in zip([zero] + nums, nums + [zero])
                    ]
                else:
                    term = [-(G * a) for a in nums]
                if sum(s < j for s in S) % 2:
                    term = [-a for a in term]
                key = tuple(sorted(S + (j,)))
                if key in extended:
                    zero = MatrixPoly.zero(*term[0].shape)
                    term = [a + b for a, b in zip_longest(extended[key][1], term, fillvalue=zero)]
                extended[key] = (target, term)
        minors = extended
    _, nums = minors[tuple(range(N))]
    return BetheOperator(spec=spec, module=module, numerators=nums[N - 1::-1], denominator=p1 ** N)


def first_coefficient_residual(op: BetheOperator) -> MatrixPoly:
    """N_1 (P1/g) + (den/g) (sum_i G_ii + P1 sum_i K_i) on the block, with e_ii(u) = G_ii / P1 and g = gcd(P1, den).

    This is N_1 P1 + den (sum_i G_ii + P1 sum_i K_i) divided by the nonzero
    g, so it is zero exactly when B_1 = -sum_i (K_i + e_ii(u)), which holds
    by construction.  On the built operator den = P1^N, so g = P1.
    """
    spec = op.spec
    lam = spec.weight.padded(op.rank)
    p1, cofactors = root_products(spec.points)
    factor, den = _reduced_pair(spec, op.denominator, (1,) * len(spec.points))
    total = p1.scale(sum(spec.exponents[1:], spec.exponents[0])) * MatrixPoly.identity(op.dim)
    for i in range(1, op.rank + 1):
        total = total + _series(op.module, i, i, lam, cofactors)
    first = op.numerators[0]
    return (first * factor if factor.degree else first) + total * den


def wronskian_identity(op: BetheOperator) -> bool:
    """A_1 = -(P' + (K_1 + ... + K_N) P) I on the block, exactly; False when clearing fails.

    Every eigen-operator then has h_1 = -sum_i K_i - P'/P, so by Abel's
    formula, Wr' = -h_1 Wr, an N-dimensional kernel has the Wronskian
    c e^{(sum_i K_i) u} P.
    """
    cleared = _cleared_or_none(op)
    if cleared is None:
        return False
    pole = op.spec.pole_polynomial()
    total = sum(op.spec.exponents[1:], op.spec.exponents[0])
    return cleared[0] == MatrixPoly.identity(op.dim) * -(pole.derivative() + pole.scale(total))


def leading_symbol(op: BetheOperator):
    """The scalar polynomial sum_i c_i a^{N-i}, c_0 = 1, from the constant terms at infinity.

    B_i tends to c_i I when the u^n coefficient of A_i is c_i I, since the
    pole polynomial is monic of degree n.  Equals prod_i (a - K_i).  None
    when such a coefficient is not scalar, or when some B_i has a pole off
    the points or an A_i has degree above n, so that B_i has no constant
    term at infinity.
    """
    n = op.spec.size
    cleared = _cleared_or_none(op)
    if cleared is None or any(a.degree > n for a in cleared):
        return None
    if not op.dim:  # on an empty block every matrix is c I for every c, and every identity holds
        return expected_leading_symbol(op)
    tops = [a.scalars()[n] if a.degree == n else 0 for a in cleared]
    if None in tops:
        return None
    return Poly(tops[::-1] + [1])


def expected_leading_symbol(op: BetheOperator) -> Poly:
    return Poly.from_roots(op.spec.exponents)


@dataclass
class PolynomialityReport:
    """Local structure of the cleared coefficients A_i = B_i * prod_s (u - b_s)^{n_s}."""

    degrees: list
    pole_orders: dict  # (i, s) -> observed pole order of B_i at b_s
    polynomial: bool  # the pole polynomial clears every B_i
    scalar: bool  # no leading local coefficient of a B_i at a b_s is found non-scalar
    indicial_ok: bool
    indicial_at: list  # per point b_s: its leading local coefficients are scalar and meet the indicial target
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.indicial_ok and not self.failures

    def regular_at(self, s: int) -> bool:
        """b_s is a regular singular point: every B_i has a pole of order at most i there."""
        return all(order <= i for (i, t), order in self.pole_orders.items() if t == s)


def check_polynomiality(op: BetheOperator) -> PolynomialityReport:
    """Clear the poles of every B_i and verify the local structure.

    Checks, exactly: the cleared products are matrix polynomials of degree
    at most n; the leading local coefficient of each B_i at each point is a
    scalar matrix; and the indicial identity at each point b_s,

        sum_i C_{i, n_s - i, s} * a(a-1)...(a-(N-i-1))
            = prod_{r != s} (b_s - b_r)^{n_r} * prod_l (a - lam^(s)_l - N + l),

    where C_{i, j, s} is the (u - b_s)^j Taylor coefficient of the cleared
    A_i (A_0 = P), missing ones zero.  The falling products have distinct
    degrees, so the identity holds exactly when each C_{i, n_s - i, s} in it
    is a scalar c_i I and the c_i meet the target: ``indicial_coefficients``
    on the scalar parts of the first n_s + 1 Taylor coefficients, against
    ``spec.indicial_target(s)``.  On an empty block every identity holds.
    Every Taylor coefficient comes from one ``point_table`` contraction per
    A_i (P as 1 x 1), and points with equal n_s share one indicial call.
    """
    spec = op.spec
    N, n, sizes = spec.rank, spec.size, spec.factor_sizes
    failures = []
    pole_orders = {}
    scalar = True

    try:
        cleared = op.cleared
    except ValueError as exc:
        return PolynomialityReport([], {}, polynomial=False, scalar=True, indicial_ok=False,
                                   indicial_at=[False] * len(sizes), failures=[str(exc)])
    degrees = [a.degree for a in cleared]
    for i, d in enumerate(degrees, 1):
        if d > n:
            failures.append(f"cleared A_{i} has degree {d} > {n}")

    # local[s][i][k]: the (u - b_s)^k coefficient of A_i (A_0 = P), c when it is c I, else None
    counts = tuple(m + 1 for m in sizes)
    table, rows = point_table(spec.points, counts, max(degrees + [n])), sum(counts)
    polys = [MatrixPoly.identity(1) * spec.pole_polynomial()] + cleared
    columns = [(a.contract(*table).scalars() + [0] * rows)[:rows] for a in polys]
    local = [[col[start:start + count] for col in columns] for start, count in zip(accumulate((0,) + counts), counts)]
    for s, n_s in enumerate(sizes):
        for i in range(1, N + 1):
            # observed pole order of B_i at b_s = n_s - vanishing order of A_i
            vanish = next((k for k, c in enumerate(local[s][i]) if c is None or c != 0), n_s + 1)
            pole_orders[i, s] = max(0, n_s - vanish)

    indicial_at = [True] * len(sizes)
    if op.dim:  # on an empty block every matrix is scalar and every identity holds
        chis = {}
        for m in set(sizes):  # the points with n_s = m at once
            group = [s for s, n_s in enumerate(sizes) if n_s == m]
            stacked = [[[0 if c is None else c for c in col] for col in local[s]] for s in group]
            chis.update(zip(group, indicial_coefficients(np.array(stacked, dtype=object), m)))
        for s, (b_s, n_s) in enumerate(zip(spec.points, sizes)):
            nonscalar = [i for i in range(1, min(n_s, N) + 1) if local[s][i][n_s - i] is None]
            scalar = scalar and not nonscalar
            failures += [f"leading local coefficient of B_{i} at point {b_s} is not scalar" for i in nonscalar]
            if nonscalar or Poly(chis[s]) != spec.indicial_target(s):
                indicial_at[s] = False
                failures.append(f"indicial identity fails at point {b_s}")

    return PolynomialityReport(
        degrees=degrees,
        pole_orders=pole_orders,
        polynomial=True,
        scalar=scalar,
        indicial_ok=all(indicial_at),
        indicial_at=indicial_at,
        failures=failures,
    )


def _cleared_or_none(op: BetheOperator):
    """The cleared A_i, or None when clearing fails."""
    try:
        return op.cleared
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
    cleared = _cleared_or_none(op)
    if cleared is None or not weight_blocks_preserved(op):
        return False
    # commuting does not see scaling, so each C_ij enters over its own denominator
    picked = [(a, k) for a in cleared for k, c in enumerate(a.scalars()) if c is None]
    if not picked:
        return True
    re = np.stack([a.re[k] for a, k in picked])
    im = None
    if any(a.im is not None for a, _ in picked):
        im = np.stack([a.im[k] if a.im is not None else np.zeros_like(a.re[k]) for a, k in picked])
    return pairwise_commute(re, im)


def weight_blocks_preserved(op: BetheOperator) -> bool:
    """Every C_ij maps the weight-lam columns into weight lam.

    The build composes generator blocks between single weights, so this
    holds exactly when every generator image it used stayed inside its
    target weight; the module lists the blocks whose images did not.  Fails
    too when clearing fails.
    """
    return _cleared_or_none(op) is not None and not op.module.leaks
