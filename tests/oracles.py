"""Independent brute-force oracles used to freeze expected test values.

The oracles share no code paths with the library: dimensions come from
tableau enumeration, weight bases from filtering raw index tuples, and
derivatives from the elementary rule applied term by term.  The sampling
helpers (interpolating points, rational reconstruction from samples,
numerator distance) serve the tests only.

The module's generators have an ambient reference: every member as a
vector of V^{(x)n} (the tensor product of its factors' rows), acted on
position by position and expressed over the whole basis by forward
substitution (``member_vectors``, ``express``, ``ambient_generator_block``),
where the library moves factor basis indices instead.

The reference for the block build of the Bethe operator comes last: the
row determinant expanded over all N! permutations, with generic Leibniz
composition, on the whole module (every generator as a dim x dim matrix),
cut to the block only at the end.  It uses the library's module basis and
scalars, nothing of its operator build or of its matrix arithmetic: a
matrix polynomial here is a Poly whose coefficients are ``Matrix`` objects,
one exact matrix each, where the library keeps one integer stack per
polynomial (``gaudin.linalg.MatrixPoly``).  ``stacked`` and ``unstacked``
convert between the two.  The same operator class
composes the factorized operator of a set of Bethe roots, the exact
reference for the library's float evaluation of it.  The Bethe equations
and the weight function are summed root by root and bijection by bijection
(``bae_residual_by_root``, ``weight_function_by_bijections``), where the
library gathers every solution's poles in one array pass.

The function side has a Poly-list reference.  A space's derivative table
is built one Poly at a time by (k + d/du) q = k q + q'
(``shifted_derivative_polys``), where the library steps coefficient arrays
(``spaces.shifted_derivatives``).  Its maximal minors have a cofactor
reference (``poly_det``, ``cleared_operator_polys_by_cofactors``): one
determinant of Polys per minor, expanded along the first row, where the
library forms every determinant of trailing rows once, on coefficient
arrays, for a whole stack of spaces.  ``fundamental_identities`` states
the two identities a cleared operator of a space satisfies, and
``char_at_infinity`` and ``second_symbol`` read its data at infinity.
``space_stack`` and ``cleared_operator_polys`` give the library's operator
of one space, as an array and as Polys, and ``poly_stack`` stacks Poly
lists into the array that ``membership_test`` and ``kernel_from_operator``
take.

The last reference is the spectral stage one character at a time
(``spectral_stage_loop``).  It shares the library's float conversion,
clustering, draws and Taylor tables, and differs from the stacked stage
exactly where that stage batches: one residual, numerator row and lstsq kernel fit per character.

Both sides' local conditions at the points have a point-by-point reference
(``check_polynomiality_by_point``, ``membership_test_by_point``): one
Taylor expansion per point, by ``taylor_matrix`` (``taylor_coefficients``
for one polynomial), built in the field of the point, where the library
contracts every point's integer ``point_table`` at once.  The membership
checks a fitted character gets from the block have a reference built on
them (``membership_checks_by_point``).
"""

import cmath
import math
import random
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import comb

import numpy as np

from gaudin.algebra import apply_e_block, enumerate_indices, irreducible_factor_basis, reduce
from gaudin.bae import NonGenericError, factorized_values, gap_unit
from gaudin.betheop import PolynomialityReport, eigenvector_points
from gaudin.linalg import MatrixPoly
from gaudin.polynomials import Poly, falling_product, indicial_coefficients
from gaudin.scalars import GaussianRational, is_exact, to_complex
from gaudin.spaces import (
    IndicialData,
    MembershipCheck,
    MembershipReport,
    QuasiExpSpace,
    _integer_roots,
    cleared_operators,
    expected_exponents,
)
from gaudin.spectral import (
    Tolerances,
    _cluster,
    _normal_draws,
)


# --- exact matrices, one object each: the reference coefficient ring ------
#
# Entries are whole arrays over one denominator: a numpy ``dtype=object``
# array of Python ``int`` numerators for the real parts, a second such array
# for the imaginary parts when the matrix is over Q(i) (``None`` over Q), and
# one positive ``int`` denominator, kept reduced.  A product runs in int64
# when a bound on its operands rules out overflow.  Products keep operand
# order, so a Poly of Matrix coefficients is a matrix polynomial.


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


def scalar_table(polys) -> tuple:
    """Integer arrays (re, im, den), p_s = sum_k (re[k, s] + i*im[k, s]) / den u^k, over the lcm of the
    coefficients' denominators: the table of scalar polynomials ``MatrixPoly.combination`` takes."""
    length = max((p.degree for p in polys), default=-1) + 1
    parts = [_split(p.coeff(k)) for k in range(length) for p in polys]
    den = math.lcm(*(d for _, _, d in parts))
    re = _ints(length, len(polys), [r * (den // d) for r, _, d in parts])
    im = _ints(length, len(polys), [(i or 0) * (den // d) for _, i, d in parts])
    return re, im if any(i for _, i, _ in parts) else None, den


def _ints(rows, cols, values):
    out = np.empty(rows * cols, dtype=object)
    out[:] = values
    return out.reshape(rows, cols)


def _matmul(x, y):
    """Exact product of int arrays; in int64 when no sum of products can overflow it."""
    if x.size and y.size:
        mx, my = max(x.max(), -x.min()), max(y.max(), -y.min())
        # each factor must fit int64 too: with a zero factor the bound is 0
        if mx < 2**63 and my < 2**63 and mx * my * x.shape[1] < 2**63:
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
        if isinstance(other, int) and other == 0:  # the zero test of a Poly coefficient
            return self.is_zero()
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

    def commutator(self, other):
        return self * other - other * self

    def __repr__(self):
        entries = [[self.get(i, j) for j in range(self.cols)] for i in range(self.rows)]
        return f"Matrix({entries!r})"


def stacked(p: Poly, rows: int, cols: int) -> MatrixPoly:
    """The MatrixPoly of a Poly of rows x cols Matrix coefficients."""
    if p.is_zero():
        return MatrixPoly.zero(rows, cols)
    den = math.lcm(*(c.den for c in p.coeffs))
    re = np.stack([c.re * (den // c.den) for c in p.coeffs])
    im = np.stack([_or_zeros(c.im, c.re) * (den // c.den) for c in p.coeffs])
    return MatrixPoly(re, im, den)


def unstacked(m: MatrixPoly) -> Poly:
    """The Poly of Matrix coefficients of a MatrixPoly."""
    return Poly([Matrix._of(m.re[k], m.im[k] if m.im is not None else None, m.den) for k in range(len(m))])


def constant(m: MatrixPoly) -> Matrix:
    """The Matrix of a MatrixPoly of degree at most 0."""
    if m.degree > 0:
        raise ValueError("not a constant")
    return unstacked(m).coeff(0) if len(m) else Matrix.zeros(*m.shape)


def kostka_number(shape, content) -> int:
    """Count column-strict fillings of the shape with the given content.

    The count only depends on the multiset of the content, which makes it a
    weight-multiplicity oracle for irreducible highest-weight modules.
    """
    shape = [p for p in shape if p > 0]
    supply = list(content)
    rows = len(shape)
    grid = [[0] * p for p in shape]

    def fill(r, c):
        if r == rows:
            return 1
        if c == shape[r]:
            return fill(r + 1, 0)
        total = 0
        low = grid[r][c - 1] if c > 0 else 1
        for v in range(low, len(supply) + 1):
            if supply[v - 1] == 0:
                continue
            if r > 0 and (c >= shape[r - 1] or grid[r - 1][c] >= v):
                continue
            supply[v - 1] -= 1
            grid[r][c] = v
            total += fill(r, c + 1)
            supply[v - 1] += 1
            grid[r][c] = 0
        return total

    return fill(0, 0)


def tensor_weight_dimension(partitions, weight, N) -> int:
    """dim of the weight subspace of a tensor product of irreducibles.

    Sums products of Kostka numbers over all splittings of the weight
    across the factors.
    """
    weight = tuple(weight) + (0,) * (N - len(weight))

    def splittings(remaining, k):
        if k == len(partitions):
            if all(r == 0 for r in remaining):
                yield []
            return
        size = sum(partitions[k])
        ranges = [range(0, min(r, size) + 1) for r in remaining]
        for combo in product(*ranges):
            if sum(combo) != size:
                continue
            rest = [r - c for r, c in zip(remaining, combo)]
            for tail in splittings(rest, k + 1):
                yield [combo] + tail

    total = 0
    for split in splittings(list(weight), 0):
        term = 1
        for part, nu in zip(partitions, split):
            term *= kostka_number(part, nu)
            if term == 0:
                break
        total += term
    return total


def brute_weight_indices(N, n, weight):
    """All index tuples of the given weight by filtering the full cube."""
    weight = tuple(weight) + (0,) * (N - len(weight))
    out = []
    for J in product(range(1, N + 1), repeat=n):
        counts = [0] * N
        for j in J:
            counts[j - 1] += 1
        if tuple(counts) == weight:
            out.append(J)
    return out


def quasi_exp_derivative(kappa, poly: Poly) -> Poly:
    """Polynomial part of d/du of e^{kappa u} poly, by the product rule."""
    return poly.scale(kappa) + poly.derivative()


def numeric_wronskian(funcs, point) -> complex:
    """Classical Wronskian value at a point from iterated derivatives."""
    m = len(funcs)
    rows = []
    for kappa, poly in funcs:
        phase = cmath.exp(complex(kappa) * complex(point))
        derivs = []
        p = poly
        for _ in range(m):
            derivs.append(complex(p(point)) * phase)
            p = quasi_exp_derivative(kappa, p)
        rows.append(derivs)

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = 0j
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    return det(rows)


def reconstruction_points(spec, count: int, avoid=(), min_dist: float = 0.12):
    """Exact rational points interleaving the evaluation points.

    Numerator reconstruction from samples is only well conditioned when the
    samples surround the poles, so these points walk through the b-range in
    half-integer steps (quarter-shifted to dodge the points themselves).
    Extra locations to stay away from (for instance almost-cancelling poles
    of a factorized operator) go in ``avoid``.
    """
    reals = [to_complex(b).real for b in spec.points]
    lo = int(min(reals)) - 2
    keep_away = [to_complex(b) for b in spec.points] + [to_complex(a) for a in avoid]
    out = []
    k = 0
    while len(out) < count:
        cand = Fraction(4 * lo + 1 + 2 * k, 4)  # lo + 1/4, lo + 3/4, ...
        if all(abs(complex(cand) - a) > min_dist for a in keep_away):
            out.append(cand)
        k += 1
    return out


def newton_interpolate(points, values) -> Poly:
    """Polynomial of degree < len(points) through the samples (exact or float)."""
    n = len(points)
    if n == 0:
        return Poly()
    coeffs = list(values)
    for j in range(1, n):
        for i in reversed(range(j, n)):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (points[i] - points[i - j])
    poly = Poly([coeffs[-1]])
    for k in reversed(range(n - 1)):
        poly = poly * Poly([-points[k], points[k] * 0 + 1]) + Poly([coeffs[k]])
    return poly


class DegreeBoundError(ValueError):
    """Samples are inconsistent with the promised numerator degree bound."""


def rational_reconstruct(samples, deg_num: int, known_denominator: Poly, tol=None) -> Poly:
    """Recover the numerator num of num/known_denominator from point samples of the value.

    ``samples`` is a list of (point, value) pairs with at least deg_num + 1
    entries; extra samples act as consistency witnesses.  With exact inputs
    the consistency check is exact equality; for floats pass a tolerance.
    Raises DegreeBoundError when a witness sample disagrees, which signals a
    wrong polynomiality hypothesis.
    """
    if len(samples) < deg_num + 1:
        raise ValueError("not enough samples for the requested degree bound")
    pts = [p for p, _ in samples]
    if len(set(pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    targets = [v * known_denominator(p) for p, v in samples]
    num = newton_interpolate(pts[: deg_num + 1], targets[: deg_num + 1])
    for p, t in zip(pts[deg_num + 1 :], targets[deg_num + 1 :]):
        got = num(p)
        if tol is None:
            if got != t:
                raise DegreeBoundError(f"degree bound violated at point {p}")
        else:
            if abs(got - t) > tol * max(abs(t), 1.0):
                raise DegreeBoundError(f"degree bound violated at point {p}")
    return num


def operator_distance(numers_a, numers_b) -> float:
    """Max relative coefficient distance between cleared numerator arrays."""
    worst = 0.0
    for row_a, row_b in zip(numers_a, numers_b):
        scale = max([abs(c) for c in row_a + row_b] + [1.0])
        for x, y in zip(row_a, row_b):
            worst = max(worst, abs(x - y) / scale)
    return worst


def rdet(entries):
    """Row determinant of a square matrix of operators.

    Signed sum over permutations of the ordered compositions
    entries[0][s(0)] entries[1][s(1)] ..., multiplied in row order (and
    composed from the right); this is the right notion of determinant when
    entries do not commute.  Entries need ``compose``, ``+`` and unary ``-``.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("row determinant needs a square matrix")
    total = None
    for sigma in permutations(range(n)):
        term = entries[n - 1][sigma[n - 1]]
        for i in reversed(range(n - 1)):
            term = entries[i][sigma[i]].compose(term)
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


def submatrix(m: Matrix, rows, cols) -> Matrix:
    """The block of m on the given row and column indices, read entry by entry."""
    rows, cols = list(rows), list(cols)
    if not rows or not cols:
        return Matrix.zeros(len(rows), len(cols))
    return Matrix([[m.get(i, j) for j in cols] for i in rows])


@lru_cache(maxsize=64)
def member_vectors(module) -> tuple:
    """Every member of the module as an ambient V^{(x)n} vector, in member order.

    A member's lead is the concatenation of its factors' leads, so it is
    split by the factor sizes, and the member is the tensor product of the
    factor rows those leads name.
    """
    spec = module.spec
    bases = [irreducible_factor_basis(spec.rank, mu) for mu in spec.partitions]
    out = []
    for _, lead in module.members:
        vec, at = {(): Fraction(1)}, 0
        for rows, n_s in zip(bases, spec.factor_sizes):
            row = rows[lead[at:at + n_s]]
            at += n_s
            vec = {J + K: c * d for J, c in vec.items() for K, d in row.items()}
        out.append(vec)
    return tuple(out)


def express(module, vec: dict) -> dict:
    """Nonzero coordinates {member index: c} of an ambient vector in the module basis, by forward substitution.

    Members have distinct leads, their smallest tuples with coefficient 1.
    Raises ValueError when the vector does not lie in the module.
    """
    rows = {lead: v for (_, lead), v in zip(module.members, member_vectors(module))}
    coords, rest = reduce(rows, vec)
    if rest:
        raise ValueError("vector does not lie in the embedded module")
    index = {lead: k for k, (_, lead) in enumerate(module.members)}
    return {index[J]: c for J, c in coords.items()}


def factor_positions(spec) -> list:
    """The ambient positions (1-based) of each tensor factor."""
    ends = list(accumulate(spec.factor_sizes))
    return [range(end - n_s + 1, end + 1) for end, n_s in zip(ends, spec.factor_sizes)]


def ambient_generator_block(module, i: int, j: int, nu) -> tuple:
    """(stack, den, leaked) of e_ij in each factor from weight nu, through the ambient space.

    Each weight-nu member vector is acted on in V^{(x)n} and expressed over
    the whole basis; ``leaked`` says whether some image has a coordinate
    outside weight nu + e_i - e_j, which the stack drops.
    """
    target = tuple(w + (k == i - 1) - (k == j - 1) for k, w in enumerate(nu))
    cols, rows = module.weight_indices(nu), module.weight_indices(target)
    vectors = member_vectors(module)
    images = [
        [express(module, apply_e_block(i, j, positions, vectors[k])) for k in cols]
        for positions in factor_positions(module.spec)
    ]
    den = math.lcm(*(c.denominator for per in images for img in per for c in img.values()))
    stack = np.zeros((len(images), len(rows), len(cols)), dtype=object)
    for s, per in enumerate(images):
        for col, img in enumerate(per):
            for r, c in img.items():
                if r in rows:
                    stack[s, rows.index(r), col] = c.numerator * (den // c.denominator)
    leaked = any(r not in rows for per in images for img in per for r in img)
    return stack, den, leaked


def matrix_of(module, apply_fn) -> Matrix:
    """Matrix (columns indexed by input basis member) of a linear map on the whole module."""
    cols = [express(module, apply_fn(vec)) for vec in member_vectors(module)]
    return Matrix([[col.get(i, 0) for col in cols] for i in range(module.dim)])


def e_point_matrices(module, i: int, j: int) -> list:
    """Per evaluation point s, the matrix of e_ij acting in block s of the whole module."""
    return [
        matrix_of(module, lambda vec: apply_e_block(i, j, positions, vec))
        for positions in factor_positions(module.spec)
    ]


def e_series(module, i: int, j: int) -> Poly:
    """G with e_ij(u) = G / prod_s (u - b_s) on the whole module.

    e_ij(u) is sum_s (e_ij in block s) / (u - b_s).
    """
    points = module.spec.points
    num = Poly()
    for s, mat in enumerate(e_point_matrices(module, i, j)):
        rest = Poly.from_roots([b for r, b in enumerate(points) if r != s])
        num = num + Poly([c * mat for c in rest.coeffs])
    return num


class PoleOp:
    """sum_k nums[k] / P1^m (d/du)^k, with matrix-polynomial numerators."""

    def __init__(self, nums, m, p1):
        self.nums, self.m, self.p1 = list(nums), m, p1

    def _lifted(self, m, length):
        lift = self.p1 ** (m - self.m)
        return [a * lift for a in self.nums] + [Poly()] * (length - len(self.nums))

    def __add__(self, other):
        m, length = max(self.m, other.m), max(len(self.nums), len(other.nums))
        pairs = zip(self._lifted(m, length), other._lifted(m, length))
        return PoleOp([a + b for a, b in pairs], m, self.p1)

    def __neg__(self):
        return PoleOp([-a for a in self.nums], self.m, self.p1)

    def compose(self, other):
        """(a d^i)(b d^j) = sum_r C(i, r) a b^(r) d^(i + j - r), all over P1^(m + m' + order)."""
        top = len(self.nums) - 1
        dp1 = self.p1.derivative()
        ders = [other.nums]  # numerators of the r-th derivatives, over P1^(m' + r)
        for r in range(top):
            ders.append([b.derivative() * self.p1 - b * dp1.scale(other.m + r) for b in ders[-1]])
        out = [Poly()] * (top + len(other.nums))
        for i, a in enumerate(self.nums):
            for r in range(i + 1):
                lift = self.p1 ** (top - r)
                for j, b in enumerate(ders[r]):
                    out[i + j - r] = out[i + j - r] + (a * b * lift).scale(comb(i, r))
        return PoleOp(out, self.m + other.m + top, self.p1)


def full_module_cleared(spec, module) -> list:
    """A_i = B_i * prod_s (u - b_s)^{n_s} on the whole module, i = 1..N.

    Entry (k, j) of the row determinant is d/du - K_k - e_kk(u) on the
    diagonal and -e_jk(u) off it.  Raises ValueError when some A_i is not a
    polynomial.
    """
    N = spec.rank
    p1 = Poly.from_roots(spec.points)
    ident = Matrix.identity(module.dim)
    entries = []
    for k in range(N):
        row = []
        for j in range(N):
            g = e_series(module, j + 1, k + 1)
            if j == k:
                kp1 = p1.scale(spec.exponents[k])
                row.append(PoleOp([-(g + kp1.scale(ident)), p1.scale(ident)], 1, p1))
            else:
                row.append(PoleOp([-g], 1, p1))
        entries.append(row)
    op = rdet(entries)
    pole = spec.pole_polynomial()
    out = []
    for i in range(1, N + 1):
        quot, rem = (op.nums[N - i] * pole).divmod(op.p1 ** op.m)
        if not rem.is_zero():
            raise ValueError(f"B_{i} * pole polynomial is not polynomial")
        out.append(quot)
    return out


def factorized_operator(levels, exponents) -> PoleOp:
    """(d/du - x^1) ... (d/du - x^N) with the telescoping local factors.

    x^a(u) = K_a + sum_j 1/(u - t^(a-1)_j) - sum_j 1/(u - t^(a)_j), each
    factor over p1, the product of (u - x) over every root; the composition
    is monic of order N.  Exact scalars only: this is the exact reference
    for ``bae.factorized_values``.
    """
    N = len(exponents)
    levels = [list(level) for level in levels] + [[]]
    p1 = Poly.from_roots([x for level in levels for x in level])
    out = None
    for a in range(1, N + 1):
        chi = p1.scale(exponents[a - 1])
        for x in levels[a - 1]:
            chi = chi + p1.exact_div(Poly([-x, Fraction(1)]))
        for x in levels[a]:
            chi = chi - p1.exact_div(Poly([-x, Fraction(1)]))
        factor = PoleOp([-chi, p1], 1, p1)
        out = factor if out is None else out.compose(factor)
    return out


def eigenvector_check_loop(op, points, values, omega, tol):
    """The eigenvector check one (point, coefficient) at a time.

    values[p, i - 1] is the predicted eigenvalue h_i at points[p]; every
    B_i(point) comes from its own ``op.block_evaluate`` call.  Returns the
    worst relative residual ||B_i omega - h_i omega|| / (||omega|| max(1, ||B_i||))
    and the failures above tol, point by point, coefficient by coefficient:
    the reference for the stacked ``bae.verify_eigenvector``.
    """
    norm = np.linalg.norm(omega)
    worst, failures = 0.0, []
    for pt, hvals in zip(points, values):
        for i in range(1, op.rank + 1):
            m = op.block_evaluate(i, [pt])[0].to_complex(1)[0]
            rel = np.linalg.norm(m @ omega - hvals[i - 1] * omega) / norm / max(1.0, np.linalg.norm(m))
            worst = max(worst, rel)
            if rel > tol:
                failures.append(f"coefficient {i} at point {pt}: residual {rel:.3e}")
    return worst, failures


# one solution's eigenvector check: worst residual, verdict at tol, failure lines and [h_1, ..., h_N] per point
EigenvectorCheck = namedtuple("EigenvectorCheck", "residual passed failures values")


def solution_levels(row, spec) -> list:
    """One row of roots as levels: the points of ``spec`` (vector factors), then l_1, ..., l_{N-1} roots in turn."""
    counts = spec.weight.padded(spec.rank)
    levels, at = [list(spec.points)], 0
    for a in range(1, spec.rank):
        size = sum(counts[a:])
        levels.append(list(row[at:at + size]))
        at += size
    return levels


def verify_eigenvector_by_solution(roots, spec, op, tol):
    """The eigenvector check one solution at a time, one report each.

    Each row of ``roots`` gets its own ``factorized_values`` call, its omega from
    :func:`weight_function_by_bijections` converted to complex, and the
    check of :func:`eigenvector_check_loop`, with its own ``block_evaluate``
    call per point and coefficient: the reference for the stacked
    ``bae.verify_eigenvector``.
    """
    points = eigenvector_points(spec)
    reports = []
    for row in roots:
        values = factorized_values([row], spec, points)[0]
        omega = weight_function_by_bijections(solution_levels(row, spec), spec.rank, spec.weight.padded(spec.rank))
        omega = np.array([to_complex(w) for w in omega])
        if np.linalg.norm(omega) == 0:
            reports.append(EigenvectorCheck(float("inf"), False, ["zero vector"], values))
            continue
        worst, failures = eigenvector_check_loop(op, points, values, omega, tol)
        reports.append(EigenvectorCheck(worst, not failures, failures, values))
    return reports


def bae_residual_by_root(levels, exponents) -> list:
    """Every Bethe ansatz equation's residual at one root configuration, root by root.

    At level a = 1..N-1 and root j: -(K_{a+1} - K_a) plus the simple poles
    to the roots of level a - 1, minus twice those to the other roots of
    level a, plus those to the roots of level a + 1, summed one pole at a
    time in the roots' own scalars: the reference for the batched
    ``bae.BetheEquations`` and ``bae.bae_residual``.
    """
    N = len(exponents)
    levels = [list(level) for level in levels] + [[]]
    out = []
    for a in range(1, N):
        level = levels[a]
        for j, tj in enumerate(level):
            acc = -(exponents[a] - exponents[a - 1])
            poles = [(x, 1) for x in levels[a - 1]] + [(x, -2) for jp, x in enumerate(level) if jp != j]
            for x, c in poles + [(x, 1) for x in levels[a + 1]]:
                d = tj - x
                if d == 0:
                    raise NonGenericError("non-generic configuration")
                acc = acc + c / d
            out.append(acc)
    return out


def weight_function_by_bijections(levels, rank: int, counts) -> list:
    """omega_J for every J in ``enumerate_indices`` order, summed over the level bijections directly.

    For each J and each tuple of bijections beta_i from {s : j_s > i} onto
    level i, the product over slots s of prod_{i=1..j_s-1}
    1/(t^(i)_{beta_i(s)} - t^(i-1)_{beta_{i-1}(s)}), beta_0(s) = s, with no
    table of chains: the reference for ``bae.weight_function``.
    """
    counts = tuple(counts) + (0,) * (rank - len(counts))
    n = sum(counts)
    out = []
    for J in enumerate_indices(rank, n, counts):
        slots = [[s for s in range(n) if J[s] > i] for i in range(1, rank)]
        total = 0
        for choice in product(*(permutations(range(len(level))) for level in levels[1:rank])):
            beta = [range(n)] + [dict(zip(members, perm)) for members, perm in zip(slots, choice)]
            term = 1
            for s, js in enumerate(J):
                for i in range(1, js):
                    d = levels[i][beta[i][s]] - levels[i - 1][beta[i - 1][s]]
                    if d == 0:
                        raise NonGenericError("non-generic configuration")
                    term = term * (1 / d)
            total = total + term
        out.append(total)
    return out


# --- the function side on Poly lists ----------------------------------------


def shifted_derivative_polys(k, p: Poly, top: int) -> list:
    """The polynomial parts of f, f', ..., f^(top) for f = e^{k u} p, one Poly each: (k + d/du) q = k q + q'."""
    out = [p]
    for _ in range(top):
        out.append(out[-1].scale(k) + out[-1].derivative())
    return out


def space_stack(space) -> np.ndarray:
    """The one-row ``cleared_operators`` stack of a space, as ``gaudin wronski`` builds it: exact
    (``dtype=object``) for an exact space, complex for a float one, whose G_0 leads with 1.0."""
    stack = cleared_operators(space.exponents, space.stacked())
    return stack if is_exact(stack[0, 0, -1]) else stack.astype(complex)


def cleared_operator_polys(space) -> list:
    """[G_0, ..., G_N] of one space as Polys: the row of its ``space_stack``."""
    return [Poly(g) for g in space_stack(space)[0].tolist()]


def poly_stack(stack) -> np.ndarray:
    """Poly lists [G_0, ..., G_N] as one zero-padded array (operators, N + 1, width), exact
    (``dtype=object``) or complex: the form ``membership_test`` and ``kernel_from_operator`` take."""
    if not stack:
        return np.asarray(stack)
    zero = 0 * stack[0][0].leading
    width = max(len(g.coeffs) for gs in stack for g in gs)
    return np.array([[g.coeffs + (zero,) * (width - len(g.coeffs)) for g in gs] for gs in stack],
                    dtype=object if is_exact(zero) else complex)


def fundamental_identities(space, gs) -> tuple:
    """Whether the Polys gs = [G_0, ..., G_N] of an exact space satisfy, exactly,
    G_1 = -(G_0' + sum_i K_i G_0), which is F_1 = -Wr'/Wr, and sum_i G_i f^(N-i) = 0
    for each basis element f: two booleans."""
    N = space.rank
    total = sum(space.exponents[1:], space.exponents[0])
    first = gs[1] == -shifted_derivative_polys(total, gs[0], 1)[1]
    kills = all(sum((g * parts[N - i] for i, g in enumerate(gs)), Poly()).is_zero()
                for parts in (shifted_derivative_polys(k, p, N) for k, p in zip(space.exponents, space.polys)))
    return first, kills


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


# --- maximal minors by cofactors --------------------------------------------


def poly_det(rows) -> Poly:
    """Determinant of a square matrix of polynomials by cofactor expansion along the first row.

    Commutative coefficients only; fine for the Wronskian-sized matrices
    (dimension at most 6) used here.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = entry * poly_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return Poly() if total is None else total


def cleared_operator_polys_by_cofactors(space) -> list:
    """G_0..G_N of a space: the signed maximal minors of its N x (N + 1) derivative table, one
    ``poly_det`` each, over the leading coefficient of the Wronskian (the minor without column N)."""
    N = space.rank
    rows = [shifted_derivative_polys(k, p, N) for k, p in zip(space.exponents, space.polys)]
    minors = [poly_det([[row[r] for r in range(N + 1) if r != c] for row in rows]) for c in range(N + 1)]
    lead = minors[N].leading
    return [Poly([(-c if i % 2 else c) / lead for c in minors[N - i].coeffs]) for i in range(N + 1)]


def kernel_spaces(kernels, spec, fits=None) -> list:
    """The kernels ``kernel_from_operator`` returns as one QuasiExpSpace per operator, or None where
    fits[c] > 1 (no fits: every operator)."""
    exponents = tuple(to_complex(k) for k in spec.exponents)
    fits = [0.0] * len(kernels[0]) if fits is None else fits
    return [None if fit > 1 else QuasiExpSpace(exponents, tuple(Poly(p[c].tolist()) for p in kernels))
            for c, fit in enumerate(fits)]


def report_kernels(report, spec) -> list:
    """Per character of a ``spectrum_analysis`` report its kernel as a QuasiExpSpace, or None where
    its fit failed (its report entry carries ``KERNEL_FAILURE``)."""
    return kernel_spaces(report.kernels, spec, report.fits.tolist())


# --- the spectral stage one character at a time ----------------------------


def _refine_eigenpair_loop(T, mu, v):
    """Newton on (T - mu)v = 0 with a fixed normalization row, for one eigenpair: the reference that
    shows ``eig``'s vectors need no refinement (``test_eig_vectors_need_no_refinement``)."""
    dim = T.shape[0]
    c = v.conj()
    for _ in range(4):
        F = np.concatenate([(T - mu * np.eye(dim)) @ v, [c @ v - 1.0]])
        J = np.zeros((dim + 1, dim + 1), dtype=complex)
        J[:dim, :dim] = T - mu * np.eye(dim)
        J[:dim, dim] = -v
        J[dim, :dim] = c
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        v = v + delta[:dim]
        mu = mu + delta[dim]
        if float(np.linalg.norm(F)) < 1e-15:
            break
    return v / np.linalg.norm(v)


def _joint_residual_loop(v, units):
    worst = 0.0
    for m in units:
        h = v.conj() @ (m @ v)
        worst = max(worst, float(np.linalg.norm(m @ v - h * v)))
    return worst


def _kernel_loop(G, spec, tol):
    """The kernel of one cleared operator by numpy's lstsq, or None when a fit fails."""
    N = spec.rank
    lam = spec.weight.padded(N)
    unit = gap_unit(spec.points)
    width = max(len(g.coeffs) for g in G)
    cleared = np.zeros((N + 1, width), dtype=complex)
    for k, g in enumerate(G[::-1]):
        for j, a in enumerate(g.coeffs):
            cleared[k, j] = to_complex(a) * unit ** (j - k)
    coeff_lists = []
    for i in range(N):
        kexp = unit * to_complex(spec.exponents[i])
        d = lam[i]
        shift = kexp * np.eye(d + 1) + np.diag(np.arange(1.0, d + 1), 1)
        powers = [np.eye(d + 1, dtype=complex)]
        for _ in range(N):
            powers.append(shift @ powers[-1])
        powers = np.array(powers)
        image = np.zeros((width + d, d + 1), dtype=complex)
        for j in range(d + 1):
            image[j:j + width] += cleared.T @ powers[:, j, :]
        nonzero = np.flatnonzero(np.any(image != 0, axis=1))
        rows = (nonzero[-1] if len(nonzero) else 0) + 1
        A, b = image[:rows, :d], -image[:rows, d]
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if float(np.linalg.norm(A @ x - b)) > tol.kernel_fit * max(1.0, float(np.max(np.abs(image[:rows])))) * rows:
            return None
        coeff_lists.append([complex(x[j]) * unit ** (d - j) for j in range(d)] + [1.0 + 0j])
    return QuasiExpSpace(tuple(to_complex(k) for k in spec.exponents), tuple(Poly(c) for c in coeff_lists))


def indicial_polynomial(taylors, n_s: int):
    """sum_i t_{i, n_s - i} a(a-1)...(a-(N-i-1)) for the operator sum_i G_i (d/du)^{N-i}, term by term.

    taylors[i] lists the Taylor coefficients t_{i, j} of G_i at a point where
    G_0 vanishes to order n_s (missing ones are zero); N = len(taylors) - 1.
    The reference for ``gaudin.polynomials.indicial_coefficients``.
    """
    N = len(taylors) - 1
    terms = [tc[n_s - i] * falling_product(N - i) for i, tc in enumerate(taylors) if 0 <= n_s - i < len(tc)]
    return sum(terms[1:], terms[0]) if terms else Poly()


@dataclass
class LoopCharacter:
    """A joint eigenvector with its numerators[i - 1][j] = v* C_ij v, the u^j coefficient of P h_i."""

    vector: np.ndarray
    numerators: list
    residual: float
    cluster_size: int = 1

    def values(self, z, pz) -> list:
        """[h_1(z), ..., h_N(z)], with pz the pole polynomial at z, in Python scalars."""
        return [sum(c * z**j for j, c in enumerate(row)) / pz for row in self.numerators]


@dataclass
class LoopSpectrum:
    """The loop stage's report: one object per character in each list."""

    characters: list
    diagonalizable: bool
    operators: list = field(default_factory=list)
    kernels: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.characters)


def spectral_stage_loop(op, tol=None, seed=2024):
    """The spectral stage one character at a time: the reference for the
    stacked ``spectral.spectrum_analysis``.

    Each simple eigenvector is taken from ``eig`` as it comes and checked
    against every unit coefficient matrix in turn, its numerators are one
    v* C_ij v each, and its kernel is one lstsq fit per exponent.  A cluster's vectors come from a fresh draw
    inside its subspace, each cluster size counted one eigenvalue at a time.
    The draws of ``random.Random(seed)`` are taken in the library's order,
    so both give the same characters in the same order.  Returns a
    LoopSpectrum with one object per character in each list: a
    LoopCharacter, sorted by its own Python-scalar values at the first
    eigenvector point, each operator a Poly list and each kernel a
    QuasiExpSpace or None, where the library keeps one array per quantity.
    """
    tol = tol or Tolerances()
    spec = op.spec
    dim = len(op.module.weight_indices(spec.weight))
    if dim == 0:
        return LoopSpectrum([], True)
    mats = [a.to_complex(spec.size + 1) for a in op.cleared]
    units = [m / np.linalg.norm(m) for row in mats for m in row if np.any(m)]

    def numerators(v):
        return [[complex(v.conj() @ (m @ v)) for m in row] for row in mats]

    rng = random.Random(seed)
    coeffs = _normal_draws(rng, len(units))
    T = sum((c * u for c, u in zip(coeffs, units)), np.zeros((dim, dim), dtype=complex))
    eigvals, eigvecs = np.linalg.eig(T)
    clusters = _cluster(eigvals, 10 * tol.cluster * max(np.linalg.norm(T), 1.0))
    limit = tol.residual * 100
    simple = {}
    for cluster in clusters:
        if len(cluster) == 1:
            v = eigvecs[:, cluster[0]]
            v = v / np.linalg.norm(v)
            simple[cluster[0]] = (v, _joint_residual_loop(v, units))
    worst = max((res for _, res in simple.values()), default=0.0)
    if worst > limit:
        raise RuntimeError(f"joint diagonalization failed: a simple eigenvector has a joint eigen-residual "
                           f"above {limit:.1e} (worst {worst:.1e})")
    characters, diagonalizable = [], True
    for cluster in clusters:
        size = len(cluster)
        if size == 1:
            v, res = simple[cluster[0]]
            characters.append(LoopCharacter(v, numerators(v), res))
            continue
        mu = np.mean([eigvals[k] for k in cluster])
        B = np.linalg.matrix_power(T - mu * np.eye(dim), size)
        _, _, vh = np.linalg.svd(B)
        q, _ = np.linalg.qr(vh[dim - size:].conj().T)  # the generalized eigenspace
        R = sum(c * (q.conj().T @ u @ q) for c, u in zip(_normal_draws(rng, len(units)), units))
        vals, vecs = np.linalg.eig(R)
        near = 10 * tol.cluster * max(np.linalg.norm(R), 1.0)
        found = []
        for k in range(len(vals)):
            v = q @ vecs[:, k]
            v = v / np.linalg.norm(v)
            worst = _joint_residual_loop(v, units)
            if worst <= limit and all(np.abs(np.vdot(u, v)) < 1 - tol.dedup for u, _, _ in found):
                found.append((v, worst, int(sum(abs(x - vals[k]) <= near for x in vals))))
        characters += [LoopCharacter(v, numerators(v), res, multiplicity) for v, res, multiplicity in found]
        diagonalizable = diagonalizable and len(found) == size
    point = eigenvector_points(spec)[0]
    z, pz = complex(point), to_complex(spec.pole_polynomial()(point))
    characters.sort(key=lambda ch: [(round(h.real, 6), round(h.imag, 6))
                                    for h in (ch.values(z, pz)[0], ch.values(z, pz)[-1])])
    report = LoopSpectrum(characters, diagonalizable)
    for ch in characters:
        G = [spec.complex_pole_polynomial()] + [Poly(row) for row in ch.numerators]
        report.operators.append(G)
        report.kernels.append(_kernel_loop(G, spec, tol))
    return report


# --- local data one point at a time ----------------------------------------


@lru_cache(maxsize=256, typed=True)
def taylor_matrix(b, degree: int, count: int) -> np.ndarray:
    """T[k, j] = C(j, k) b^(j - k) for k < count and j <= degree, read-only and built once.

    T times the coefficients of a polynomial of degree at most ``degree`` is
    its first ``count`` coefficients in powers of (u - b).  The entries lie in
    the field of b: exact scalars in an object array, or complex floats.  For a
    ``Fraction`` b = p / q each entry is C(j, k) p^(j - k) / q^(j - k), computed
    in integers and made a Fraction once; an int b needs only integers.
    """
    if isinstance(b, Fraction):
        p, q, zero = b.numerator, b.denominator, Fraction(0)
        rows = [[Fraction(comb(j, k) * p ** (j - k), q ** (j - k)) if j >= k else zero
                 for j in range(degree + 1)] for k in range(count)]
    else:
        powers = [b ** 0]
        for _ in range(degree):
            powers.append(powers[-1] * b)
        zero = powers[0] * 0
        rows = [[comb(j, k) * powers[j - k] if j >= k else zero for j in range(degree + 1)] for k in range(count)]
    t = np.array(rows).reshape(count, degree + 1)
    t.flags.writeable = False
    return t


def taylor_coefficients(p: Poly, b, count=None) -> list:
    """The first count (default all) coefficients of the exact p in powers of (u - b), by ``taylor_matrix``;
    p's coefficients may be ``Matrix`` objects."""
    count = len(p.coeffs) if count is None else count
    if not p.coeffs:
        return [p.coeff(0)] * count
    return list(taylor_matrix(b, p.degree, count) @ np.array(p.coeffs, dtype=object))


def check_polynomiality_by_point(op) -> PolynomialityReport:
    """``betheop.check_polynomiality`` one point at a time.

    At each b_s the first n_s + 1 Taylor coefficients of P and of every
    cleared A_i come from ``taylor_coefficients`` on the Poly-of-Matrix form of
    A_i (``unstacked``), each read as a scalar when it is c I, and the
    indicial polynomial of that point alone is compared with its target.
    """
    spec = op.spec
    N, n = spec.rank, spec.size
    pole = spec.pole_polynomial()
    failures, pole_orders, scalar = [], {}, True
    try:
        cleared = op.cleared
    except ValueError as exc:
        return PolynomialityReport([], {}, polynomial=False, scalar=True, indicial_ok=False,
                                   indicial_at=[False] * len(spec.points), failures=[str(exc)])
    degrees = [a.degree for a in cleared]
    failures += [f"cleared A_{i} has degree {d} > {n}" for i, d in enumerate(degrees, 1) if d > n]
    indicial_at = []
    for s, (b_s, n_s) in enumerate(zip(spec.points, spec.factor_sizes)):
        table = [taylor_coefficients(pole, b_s, n_s + 1)]  # A_0 = P
        for i in range(1, N + 1):
            local = [m.scalar_of_identity() if isinstance(m, Matrix) else m
                     for m in taylor_coefficients(unstacked(cleared[i - 1]), b_s, n_s + 1)]
            vanish = next((k for k, c in enumerate(local) if c is None or c != 0), n_s + 1)
            pole_orders[i, s] = max(0, n_s - vanish)
            table.append(local)
        indicial_at.append(True)
        if not op.dim:
            continue
        nonscalar = [i for i in range(1, min(n_s, N) + 1) if table[i][n_s - i] is None]
        scalar = scalar and not nonscalar
        failures += [f"leading local coefficient of B_{i} at point {b_s} is not scalar" for i in nonscalar]
        if nonscalar or Poly(indicial_coefficients(np.array(table, dtype=object), n_s)) != spec.indicial_target(s):
            indicial_at[s] = False
            failures.append(f"indicial identity fails at point {b_s}")
    return PolynomialityReport(degrees, pole_orders, polynomial=True, scalar=scalar, indicial_ok=all(indicial_at),
                               indicial_at=indicial_at, failures=failures)


def membership_checks_by_point(op) -> list:
    """(name, passed) of the membership checks a fitted character of op gets from the block, from references:
    the Wronskian checks pass when every coefficient of A_1, as a ``Matrix``, is the scalar matrix of the
    coefficient of -(P' + sum(K) P); the check at b_s when ``check_polynomiality_by_point`` finds the
    indicial identity there and every pole order of a B_i at b_s at most i."""
    spec = op.spec
    pole = spec.pole_polynomial()
    target = -(pole.derivative() + pole.scale(sum(spec.exponents[1:], spec.exponents[0])))
    try:
        first = unstacked(op.cleared[0])
    except ValueError:
        first = None
    wronskian = first is not None and all(
        first.coeff(k) == Matrix.identity(op.dim) * target.coeff(k) if op.dim else True
        for k in range(max(first.degree, target.degree) + 1))
    local = check_polynomiality_by_point(op)
    points = [local.indicial_at[s] and all(local.pole_orders[i, s] <= i for i in range(1, spec.rank + 1))
              for s in range(len(spec.points))]
    return ([("wronskian-matches-pole-polynomial", wronskian), ("poles-confined-to-points", wronskian)]
            + [(f"indicial-exponents-at-point-{s}", ok) for s, ok in enumerate(points)])


def membership_test_by_point(stack, spec) -> list:
    """``spaces.membership_test`` with one Taylor table and one indicial comparison per point, each for
    the whole stack of exact Poly lists."""
    if not stack:
        return []
    N, n = spec.rank, spec.size
    one = stack[0][0].leading ** 0
    width = max(len(g.coeffs) for gs in stack for g in gs)
    rows = np.array([[g.coeffs + (0 * one,) * (width - len(g.coeffs)) for g in gs] for gs in stack])
    orders, regular, chis, chi_ok = [], [], [], []
    for s, (b_s, n_s) in enumerate(zip(spec.points, spec.factor_sizes)):
        table = rows @ taylor_matrix(b_s * one, width - 1, n + 1).T
        vanish = table[:, :, :n_s] == 0
        orders.append(np.cumprod(vanish[:, 0], axis=1).sum(axis=1))
        required = np.arange(n_s) < n_s - np.arange(N + 1)[:, None]
        regular.append(np.all(vanish | ~required, axis=(1, 2)))
        chi = indicial_coefficients(table, n_s)
        chis.append(chi)
        chi_ok.append(regular[-1] & (chi - np.array(spec.indicial_target(s).coeffs, dtype=object) == 0).all(axis=1))
    expected = [expected_exponents(part, N) for part in spec.partitions]
    totals = sum(orders, np.zeros(len(stack), dtype=int)).tolist()
    reports = []
    for c, gs in enumerate(stack):
        g0, total = gs[0], totals[c]
        point_checks, indicial = [], {}
        for s, exps in enumerate(expected):
            chi = Poly(chis[s][c].tolist())
            got = exps if chi_ok[s][c] else None
            if regular[s][c] and not chi_ok[s][c] and not chi.is_zero():
                got = _integer_roots(chi, -1, n + N + 2)
            indicial[s] = IndicialData(polynomial=chi, exponents=got)
            point_checks.append(MembershipCheck(f"indicial-exponents-at-point-{s}", bool(chi_ok[s][c]),
                                                f"expected exponents {exps}"))
        wr_ok = g0.degree == n == total
        poles_ok = total >= g0.degree
        checks = [
            MembershipCheck("wronskian-matches-pole-polynomial", wr_ok, f"got {g0}"),
            MembershipCheck("poles-confined-to-points", poles_ok, "" if poles_ok else "pole outside b"),
        ] + point_checks
        reports.append(MembershipReport(ok=all(ch.passed for ch in checks), checks=checks, indicial=indicial))
    return reports
