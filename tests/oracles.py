"""Independent brute-force oracles used to freeze expected test values.

The oracles share no code paths with the library: dimensions come from
tableau enumeration, weight bases from filtering raw index tuples, and
derivatives from the elementary rule applied term by term.  The sampling
helpers at the end (interpolating points, rational reconstruction from
samples, numerator distance) serve the tests only.
"""

import cmath
from fractions import Fraction
from itertools import product

from gaudin.polynomials import Poly, newton_interpolate
from gaudin.ratfun import RatFun
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


class DegreeBoundError(ValueError):
    """Samples are inconsistent with the promised numerator degree bound."""


def rational_reconstruct(samples, deg_num: int, known_denominator: Poly, tol=None) -> RatFun:
    """Recover num/known_denominator from point samples of the value.

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
    return RatFun(num, known_denominator, reduce=(tol is None))


def operator_distance(numers_a, numers_b) -> float:
    """Max relative coefficient distance between cleared numerator arrays."""
    worst = 0.0
    for row_a, row_b in zip(numers_a, numers_b):
        scale = max([abs(c) for c in row_a + row_b] + [1.0])
        for x, y in zip(row_a, row_b):
            worst = max(worst, abs(x - y) / scale)
    return worst
