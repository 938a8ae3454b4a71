"""Independent brute-force oracles used to freeze expected test values.

The oracles share no code paths with the library: dimensions come from
tableau enumeration, weight bases from filtering raw index tuples, and
derivatives from the elementary rule applied term by term.  The sampling
helpers (interpolating points, rational reconstruction from samples,
numerator distance) serve the tests only.

The reference for the block build of the Bethe operator comes last: the
row determinant expanded over all N! permutations, with generic Leibniz
composition, on the whole module (every generator as a dim x dim matrix),
cut to the block only at the end.  It uses the library's module basis and
exact arithmetic, nothing of its operator build.  The same operator class
composes the factorized operator of a set of Bethe roots, the exact
reference for the library's float evaluation of it.
"""

import cmath
from fractions import Fraction
from itertools import permutations, product
from math import comb

from gaudin.algebra import apply_e_block
from gaudin.linalg import Matrix
from gaudin.polynomials import Poly
from gaudin.scalars import to_complex


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


def matrix_of(module, apply_fn) -> Matrix:
    """Matrix (columns indexed by input basis member) of a linear map on the whole module."""
    cols = [module.express(apply_fn(vec)) for _, _, vec in module.members]
    return Matrix([[col.get(i, 0) for col in cols] for i in range(module.dim)])


def e_point_matrices(module, i: int, j: int) -> list:
    """Per evaluation point s, the matrix of e_ij acting in block s of the whole module."""
    return [
        matrix_of(module, lambda vec: apply_e_block(i, j, positions, vec))
        for positions in module.factor_positions
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


def factorized_operator(t, exponents) -> PoleOp:
    """(d/du - x^1) ... (d/du - x^N) with the telescoping local factors.

    x^a(u) = K_a + sum_j 1/(u - t^(a-1)_j) - sum_j 1/(u - t^(a)_j), each
    factor over p1, the product of (u - x) over every root; the composition
    is monic of order N.  Exact scalars only: this is the exact reference
    for ``bae.factorized_values``.
    """
    N = len(exponents)
    levels = [list(level) for level in t.levels] + [[]]
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
