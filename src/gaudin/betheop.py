"""The universal differential operator acting on an embedded module.

The operator is the row determinant of the rank-N matrix whose diagonal
carries d/du - K_i - e_ii(u) and whose (i, j) entry off the diagonal is
-e_ji(u); note the transposed generator indexing.  Expanding on a concrete
module gives a monic operator of order N whose coefficients are exact
matrix-valued rational functions with poles at the evaluation points only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .algebra import EmbeddedModule, ModuleSpec
from .diffops import DiffOp, rdet
from .linalg import Matrix
from .polynomials import Poly, falling_product
from .ratfun import RatFun


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
    """Monic order-N operator with matrix rational-function coefficients."""

    spec: ModuleSpec
    module: EmbeddedModule
    operator: DiffOp
    coefficients: list  # B_1 .. B_N as matrix-valued RatFun on the full module

    @property
    def rank(self) -> int:
        return self.spec.rank

    def coefficient(self, i: int) -> RatFun:
        """B_i(u), i = 1..N."""
        return self.coefficients[i - 1]

    @cached_property
    def cleared(self) -> list:
        """A_i = B_i * prod_s (u - b_s)^{n_s}, i = 1..N, as exact matrix polynomials.

        Each A_i is num(B_i) times the quotient of the pole polynomial by
        den(B_i); a nonzero remainder means B_i has a pole the evaluation
        points do not allow, and raises ValueError.
        """
        pole = self.spec.pole_polynomial()
        out = []
        for i, c in enumerate(self.coefficients, 1):
            quot, rem = pole.divmod(c.den)
            if not rem.is_zero():
                raise ValueError(f"B_{i} * pole polynomial is not polynomial")
            out.append(c.num * quot)
        return out

    def block(self, i: int) -> RatFun:
        """B_i on the target weight block as A_i|block over the pole polynomial."""
        idx = self.module.weight_indices(self.spec.weight)
        num = self.cleared[i - 1].map(lambda m: m.submatrix(idx, idx))
        return RatFun(num, self.spec.pole_polynomial(), reduce=False)

    def block_evaluate(self, i: int, point) -> Matrix:
        """Exact value of B_i on the target weight block at a point off the poles."""
        c = self.block(i)
        if c.is_zero():
            dim = len(self.module.weight_indices(self.spec.weight))
            return Matrix.zeros(dim, dim)
        return c.evaluate(point)


def build_bethe_operator(spec: ModuleSpec, module: EmbeddedModule = None) -> BetheOperator:
    """Expand the row determinant on the full embedded module."""
    if module is None:
        module = EmbeddedModule(spec)
    N = spec.rank
    dim = module.dim
    ident = RatFun.constant(Matrix.identity(dim))
    entries = []
    for i in range(N):
        row = []
        for j in range(N):
            series = module.e_series(j + 1, i + 1)  # -e_ji(u) at row i, column j
            if i == j:
                zero_order = RatFun.constant(Matrix.identity(dim) * (-spec.exponents[i])) - series
                row.append(DiffOp([zero_order, ident]))
            else:
                row.append(DiffOp([-series]))
        entries.append(row)
    op = rdet(entries)
    if op.order != N:
        raise ValueError(f"row determinant has order {op.order}, expected {N}")
    if not op.is_monic:
        raise ValueError("row determinant is not monic")
    coeffs = [op.coeff_of_dpower_from_top(i) for i in range(1, N + 1)]
    return BetheOperator(spec=spec, module=module, operator=op, coefficients=coeffs)


def first_coefficient_residual(op: BetheOperator) -> RatFun:
    """B_1(u) + sum_i (K_i + e_ii(u)); identically zero by construction."""
    total = op.coefficient(1)
    dim = op.module.dim
    for i in range(1, op.rank + 1):
        total = total + op.module.e_series(i, i)
        total = total + RatFun.constant(Matrix.identity(dim) * op.spec.exponents[i - 1])
    return total


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
    dim = op.module.dim
    top = [a.coeffs[n] if a.degree == n else Matrix.zeros(dim, dim) for a in cleared]
    return Poly(top[::-1] + [Matrix.identity(dim)])


def expected_leading_symbol(op: BetheOperator) -> Poly:
    dim = op.module.dim
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
    A_i and missing (negative-j) coefficients are zero.
    """
    spec = op.spec
    N = spec.rank
    dim = op.module.dim
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
    for s, (b_s, n_s, part) in enumerate(
        zip(spec.points, spec.factor_sizes, spec.partitions)
    ):
        taylors = []
        a0 = pole.taylor_at(b_s, n + 1)
        taylors.append([c * Matrix.identity(dim) for c in a0])
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
            if c is None:
                failures.append(
                    f"leading local coefficient of B_{i} at point {b_s} is not scalar"
                )
            else:
                scalar_values[i, s] = c
        # indicial identity at b_s
        lhs = Poly()
        for i in range(0, N + 1):
            j = n_s - i
            tc = taylors[i]
            local = tc[j] if 0 <= j < len(tc) else zero
            lhs = lhs + falling_product(N - i).scale(local)
        const = Fraction(1)
        for r, (b_r, n_r) in enumerate(zip(spec.points, spec.factor_sizes)):
            if r != s:
                const = const * (b_s - b_r) ** n_r
        expected_scalar = Poly.from_roots(
            [l_val + N - (l_idx + 1) for l_idx, l_val in enumerate(part.padded(N))]
        ).scale(const)
        expected = Poly([c * Matrix.identity(dim) for c in expected_scalar.coeffs])
        if lhs != expected:
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
    """[B_i(u), B_k(v)] = 0 and [B_i(u), e_jj] = 0, exactly, for all u and v.

    With C_ij the u^j coefficient of A_i, P(u)P(v)[B_i(u), B_k(v)] is
    sum_jl [C_ij, C_kl] u^j v^l, so the identity holds exactly when the
    non-scalar C_ij commute pairwise.  Commuting with every diagonal
    generator e_jj, i.e. with the Cartan subalgebra, forces weight-block
    structure.
    """
    coeffs = _cleared_coefficients(op)
    if coeffs is None:
        return False
    mats = [c for c in coeffs if c.scalar_of_identity() is None]
    cartans = [op.module.cartan_matrix(i) for i in range(1, op.rank + 1)]
    return all(
        m.commutator(other).is_zero()
        for a, m in enumerate(mats)
        for other in mats[a + 1:] + cartans
    )


def weight_blocks_preserved(op: BetheOperator) -> bool:
    """No coefficient matrix C_ij has an entry between different weight blocks."""
    coeffs = _cleared_coefficients(op)
    if coeffs is None:
        return False
    label = np.empty(op.module.dim, dtype=int)
    for k, idx in enumerate(op.module.weights.values()):
        label[idx] = k
    off_block = label[:, None] != label[None, :]
    return not any((c.support() & off_block).any() for c in coeffs)
