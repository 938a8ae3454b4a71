"""Bethe ansatz side: root coordinates, equations, and eigenvectors.

Root coordinates are leveled tuples t^(0), ..., t^(N-1) with l_a entries at
level a, l_a = lam_{a+1} + ... + lam_N; level 0 is pinned to the roots of
the Wronskian, i.e. the evaluation points.  Solving is restricted to tensor
products of vector representations at distinct points (every factor size
one), which keeps the weight function well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .algebra import ModuleSpec, Partition, enumerate_indices, enumerate_weight_basis
from .betheop import exact_sample_points
from .diffops import DiffOp, compose_chain, wronskian
from .polynomials import Poly, binomial
from .ratfun import RatFun
from .scalars import to_complex
from .spaces import QuasiExpSpace


class NonGenericError(ValueError):
    """Coincident root arguments make a summand singular."""


def profile_from_counts(counts, N: int) -> tuple:
    """l_a = counts_{a+1} + ... + counts_N for a = 0..N-1 (any weight)."""
    padded = tuple(counts) + (0,) * (N - len(counts))
    return tuple(sum(padded[a:]) for a in range(N))


def level_profile(lam, N: int) -> tuple:
    """l_a = lam_{a+1} + ... + lam_N for a = 0..N-1."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return profile_from_counts(lam.padded(N), N)


@dataclass(frozen=True)
class RootCoordinates:
    """Per level a = 0..N-1, a tuple of l_a scalars; level 0 is the b's."""

    levels: tuple

    def __init__(self, levels):
        levels = tuple(tuple(level) for level in levels)
        object.__setattr__(self, "levels", levels)

    @property
    def upper(self) -> tuple:
        return self.levels[1:]

    def flat_upper(self):
        return [t for level in self.upper for t in level]

    def sorted_key(self):
        out = []
        for level in self.upper:
            out.append(tuple(sorted(((to_complex(t).real, to_complex(t).imag) for t in level))))
        return tuple(out)

    def matches(self, other: "RootCoordinates", tol: float) -> bool:
        """Same root multiset per level, up to tol (permutation-insensitive)."""
        for lv_a, lv_b in zip(self.upper, other.upper):
            if len(lv_a) != len(lv_b):
                return False
            remaining = [to_complex(y) for y in lv_b]
            for x in lv_a:
                x = to_complex(x)
                best = None
                for k, y in enumerate(remaining):
                    if abs(x - y) <= tol:
                        best = k
                        break
                if best is None:
                    return False
                remaining.pop(best)
        return True

    def is_generic(self, tol=1e-9) -> bool:
        levels = [tuple(to_complex(t) for t in level) for level in self.levels]
        for level in levels:
            for a in range(len(level)):
                for b in range(a + 1, len(level)):
                    if abs(level[a] - level[b]) <= tol:
                        return False
        for lower, higher in zip(levels, levels[1:]):
            for x in lower:
                for y in higher:
                    if abs(x - y) <= tol:
                        return False
        return True


def root_coordinates(spec: ModuleSpec, upper_levels) -> RootCoordinates:
    """Attach the pinned level 0 (the evaluation points) to upper levels."""
    profile = level_profile(spec.weight, spec.rank)
    level0 = []
    for b, n_s in zip(spec.points, spec.factor_sizes):
        level0.extend([b] * n_s)
    levels = [tuple(level0)] + [tuple(level) for level in upper_levels]
    for a, level in enumerate(levels):
        if len(level) != profile[a]:
            raise ValueError(f"level {a} should have {profile[a]} roots, got {len(level)}")
    return RootCoordinates(levels)


def bae_residual(t: RootCoordinates, exponents) -> list:
    """Left-hand side minus right-hand side of every Bethe ansatz equation.

    Equations are indexed by level a = 1..N-1 and root j; the residual at
    (a, j) is sum over the neighbouring levels of simple poles minus twice
    the in-level interaction, minus (K_{a+1} - K_a).
    """
    N = len(exponents)
    levels = [list(level) for level in t.levels] + [[]]
    out = []
    for a in range(1, N):
        level = levels[a]
        for j, tj in enumerate(level):
            acc = -(exponents[a] - exponents[a - 1])
            for x in levels[a - 1]:
                d = tj - x
                if d == 0:
                    raise NonGenericError("non-generic configuration")
                acc = acc + 1 / d
            for jp, x in enumerate(level):
                if jp == j:
                    continue
                d = tj - x
                if d == 0:
                    raise NonGenericError("non-generic configuration")
                acc = acc - 2 / d
            for x in levels[a + 1]:
                d = tj - x
                if d == 0:
                    raise NonGenericError("non-generic configuration")
                acc = acc + 1 / d
            out.append(acc)
    return out


def _bae_jacobian(flat, slices, level0, exponents):
    """Analytic Jacobian of the residual in the flattened upper roots."""
    N = len(exponents)
    levels = [list(level0)] + [list(flat[s]) for s in slices] + [[]]
    size = sum(len(levels[a]) for a in range(1, N))
    J = np.zeros((size, size), dtype=complex)
    offsets = [0]
    for a in range(1, N):
        offsets.append(offsets[-1] + len(levels[a]))
    row = 0
    for a in range(1, N):
        for j, tj in enumerate(levels[a]):
            # d/dt of sum 1/(tj - x): -1/(tj - x)^2 for tj, +1/(tj-x)^2 for x
            for nb in (a - 1, a + 1):
                for jp, x in enumerate(levels[nb]):
                    g = -1.0 / (tj - x) ** 2
                    J[row, offsets[a - 1] + j] += g
                    if 1 <= nb <= N - 1:
                        J[row, offsets[nb - 1] + jp] -= g
            for jp, x in enumerate(levels[a]):
                if jp == j:
                    continue
                g = 2.0 / (tj - x) ** 2
                J[row, offsets[a - 1] + j] += g
                J[row, offsets[a - 1] + jp] -= g
            row += 1
    return J


def _deflated_newton(flat, residual_of, slices, level0, exponents, known, tol, max_iter):
    """Damped Newton on m(x) F(x) with m blowing up near known solutions.

    The deflation factor uses the holomorphic bilinear square, so the
    Jacobian stays complex-differentiable; success is judged on the plain
    residual alone.
    """

    def deflate(x):
        m = 1.0 + 0j
        grads = np.zeros(len(x), dtype=complex)
        for y in known:
            dq = x - y
            q = np.sum(dq * dq)
            if abs(q) < 1e-24:
                return None, None
            m = m * (1.0 + 1.0 / q)
            grads = grads + (-2.0 * dq) / (q * q + q)
        return m, m * grads

    try:
        res = residual_of(flat)
    except (NonGenericError, ZeroDivisionError):
        return None
    for _ in range(max_iter):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return flat
        if not np.all(np.isfinite(flat)) or float(np.max(np.abs(flat))) > 1e8:
            return None
        m, grad_m = deflate(flat)
        if m is None:
            return None
        J = _bae_jacobian(flat, slices, level0, exponents)
        G = m * res
        JG = m * J + np.outer(res, grad_m)
        try:
            step = np.linalg.solve(JG, -G)
        except np.linalg.LinAlgError:
            return None
        gnorm = float(np.max(np.abs(G)))
        damp = 1.0
        moved = False
        for _ in range(25):
            trial = flat + damp * step
            try:
                trial_res = residual_of(trial)
            except (NonGenericError, ZeroDivisionError):
                damp /= 2
                continue
            tm, _ = deflate(trial)
            if tm is None:
                damp /= 2
                continue
            if float(np.max(np.abs(tm * trial_res))) < gnorm:
                flat, res = trial, trial_res
                moved = True
                break
            damp /= 2
        if not moved:
            return None
    return None


def newton_solve(
    spec: ModuleSpec,
    starts: int = None,
    seed: int = 2024,
    residual_tol: float = 1e-12,
    dedup_tol: float = 1e-8,
    max_iter: int = 100,
) -> list:
    """Multistart damped Newton search for Bethe root configurations.

    Requires every factor size to be one.  Converged configurations are
    deduplicated up to permutations within each level; the expected count
    is the dimension of the weight subspace.
    """
    if not spec.all_vector_factors:
        raise ValueError("root solving needs distinct simple points (all sizes one)")
    N = spec.rank
    profile = level_profile(spec.weight, N)
    upper_sizes = profile[1:]
    total = sum(upper_sizes)
    if total == 0:
        return [root_coordinates(spec, [[] for _ in upper_sizes])]
    expected = len(enumerate_weight_basis(N, spec.size, spec.weight))
    if starts is None:
        # 50x the expected count misses small basins at desk scale; 500x is
        # still cheap and has found every generic configuration in practice
        starts = 500 * expected
    level0 = [to_complex(b) for b in spec.points]
    exponents = [to_complex(k) for k in spec.exponents]
    radius = 2.0 * max(
        [abs(b) for b in level0] + [abs(k) for k in exponents] + [1.0]
    )
    slices = []
    at = 0
    for sz in upper_sizes:
        slices.append(slice(at, at + sz))
        at += sz
    rng = np.random.default_rng(seed)
    solutions = []

    def residual_of(flat):
        t = RootCoordinates([tuple(level0)] + [tuple(flat[s]) for s in slices])
        return np.array(bae_residual(t, exponents), dtype=complex)

    def structured_seeds():
        """One start per assignment of roots to gaps between the real points.

        Real solutions interlace with the evaluation points, so their tiny
        basins are hit reliably by midpoint seeds; complex solutions are
        left to the random phases.
        """
        if any(abs(b.imag) > 1e-12 for b in level0):
            return
        xs = sorted(set(b.real for b in level0))
        mids = [xs[0] - 1.5]
        mids += [(a + c) / 2 for a, c in zip(xs, xs[1:])]
        mids += [xs[-1] + 1.5]
        from itertools import combinations_with_replacement, product as iproduct

        per_level = [
            list(combinations_with_replacement(range(len(mids)), sz)) for sz in upper_sizes
        ]
        for combo in iproduct(*per_level):
            flat = []
            for gaps in combo:
                counts = {}
                for g in gaps:
                    counts[g] = counts.get(g, 0) + 1
                for g, mcount in sorted(counts.items()):
                    width = 0.4 if 0 < g < len(mids) - 1 else 1.0
                    for idx in range(mcount):
                        off = (idx - (mcount - 1) / 2) * width / max(mcount, 1)
                        flat.append(mids[g] + off + 0.0j)
            yield np.array(flat, dtype=complex)

    # roots scale like size / (exponent gap) when exponents are close
    gaps = [
        abs(exponents[i] - exponents[j])
        for i in range(N)
        for j in range(i + 1, N)
    ]
    reach = spec.size / min(gaps) if gaps and min(gaps) > 0 else 1.0
    radius = max(radius, 1.5 * reach)
    lo = min([b.real for b in level0] + [0.0]) - 1.0
    hi = max([b.real for b in level0] + [1.0]) + 1.0
    pool = []

    def polish(flat):
        """Damped Newton from a start; returns the converged flat or None."""
        try:
            res = residual_of(flat)
        except (NonGenericError, ZeroDivisionError):
            return None
        for _ in range(max_iter):
            norm = float(np.max(np.abs(res)))
            if norm <= residual_tol:
                return flat
            if not np.all(np.isfinite(flat)) or float(np.max(np.abs(flat))) > 1e6 * radius:
                return None
            J = _bae_jacobian(flat, slices, level0, exponents)
            try:
                step = np.linalg.solve(J, -res)
            except np.linalg.LinAlgError:
                return None
            damp = 1.0
            moved = False
            for _ in range(25):
                trial = flat + damp * step
                try:
                    trial_res = residual_of(trial)
                except (NonGenericError, ZeroDivisionError):
                    damp /= 2
                    continue
                if float(np.max(np.abs(trial_res))) < norm:
                    flat, res = trial, trial_res
                    moved = True
                    break
                damp /= 2
            if not moved:
                return None
        return None

    def admit(flat):
        pool.append(flat.copy())
        t = root_coordinates(spec, [list(flat[s]) for s in slices])
        if not t.is_generic(tol=dedup_tol):
            return False
        if any(t.matches(known, dedup_tol) for known in solutions):
            return False
        canon = [sorted(flat[s], key=lambda z: (z.real, z.imag)) for s in slices]
        solutions.append(root_coordinates(spec, canon))
        return True

    def random_start(mode):
        if mode == 0:
            return rng.uniform(-radius, radius, total) + 1j * rng.uniform(-radius, radius, total)
        if mode == 1:
            # near-real band: real solutions are common for real data
            return rng.uniform(lo - radius / 2, hi + radius / 2, total) + 1j * rng.uniform(
                -0.5, 0.5, total
            )
        if mode == 2:
            return rng.uniform(lo, hi, total) + 1j * rng.uniform(-2.0, 2.0, total)
        if mode == 3 or not pool:
            return rng.uniform(0.0, radius, total) + 1j * rng.uniform(-radius / 2, radius / 2, total)
        # recombine a known configuration: jitter every root, replace one
        base = pool[rng.integers(len(pool))].copy()
        jitter = rng.normal(0.0, 0.4, total) + 1j * rng.normal(0.0, 0.4, total)
        flat = base + jitter * (1.0 + np.abs(base))
        k = int(rng.integers(total))
        flat[k] = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        return flat

    for base in structured_seeds():
        for trial in (base,
                      base + rng.normal(0, 0.08, total) + 1j * rng.normal(0, 0.08, total),
                      base + rng.normal(0, 0.2, total) + 1j * rng.normal(0, 0.2, total)):
            out = polish(trial)
            if out is not None:
                admit(out)
    for attempt in range(starts):
        out = polish(random_start(attempt % 5))
        if out is not None:
            admit(out)

    # deflation sweep: damp the residual away from found solutions so Newton
    # is pushed into the remaining basins; acceptance is still the plain
    # residual, deflation only steers the search
    def _orbit(sol):
        out = []
        for combo in _level_permutations(sol):
            out.append(np.array(combo, dtype=complex))
        return out

    def _level_permutations(sol):
        per_level = [list(permutations([to_complex(x) for x in lv])) for lv in sol.upper]

        def rec(k, acc):
            if k == len(per_level):
                yield [z for lv in acc for z in lv]
                return
            for p in per_level[k]:
                yield from rec(k + 1, acc + [p])

        yield from rec(0, [])

    rounds = 0
    while rounds < 8:
        rounds += 1
        known = [y for sol in solutions for y in _orbit(sol)]
        added = 0
        for _ in range(max(60, 20 * expected)):
            flat = rng.uniform(lo - radius / 2, hi + radius / 2, total) + 1j * rng.uniform(
                -radius / 2, radius / 2, total
            )
            out = _deflated_newton(
                flat, residual_of, slices, level0, exponents, known, residual_tol, max_iter
            )
            if out is None:
                continue
            t = root_coordinates(spec, [list(out[s]) for s in slices])
            if not t.is_generic(tol=dedup_tol):
                continue
            if any(t.matches(k2, dedup_tol) for k2 in solutions):
                continue
            canon = [sorted(out[s], key=lambda z: (z.real, z.imag)) for s in slices]
            solutions.append(root_coordinates(spec, canon))
            added += 1
        if added == 0:
            break

    if all(abs(b.imag) < 1e-14 for b in level0) and all(
        abs(k.imag) < 1e-14 for k in exponents
    ):
        # real data: the solution set is closed under conjugation, so the
        # conjugate of each find is a (nearly converged) start for free
        frontier = list(solutions)
        while frontier:
            fresh = []
            for t in frontier:
                flat = np.conj(np.array(t.flat_upper(), dtype=complex))
                try:
                    res = residual_of(flat)
                except (NonGenericError, ZeroDivisionError):
                    continue
                for _ in range(max_iter):
                    if float(np.max(np.abs(res))) <= residual_tol:
                        break
                    J = _bae_jacobian(flat, slices, level0, exponents)
                    try:
                        step = np.linalg.solve(J, -res)
                    except np.linalg.LinAlgError:
                        break
                    flat = flat + step
                    try:
                        res = residual_of(flat)
                    except (NonGenericError, ZeroDivisionError):
                        break
                else:
                    continue
                if float(np.max(np.abs(res))) > residual_tol:
                    continue
                cand = root_coordinates(spec, [list(flat[s]) for s in slices])
                if not cand.is_generic(tol=dedup_tol):
                    continue
                if any(cand.matches(known, dedup_tol) for known in solutions):
                    continue
                canon = [sorted(flat[s], key=lambda z: (z.real, z.imag)) for s in slices]
                cand = root_coordinates(spec, canon)
                solutions.append(cand)
                fresh.append(cand)
            frontier = fresh

    solutions.sort(key=lambda t: t.sorted_key())
    return solutions


def factorized_operator(t: RootCoordinates, exponents) -> DiffOp:
    """(d/du - x^1) ... (d/du - x^N) with the telescoping local factors.

    x^a(u) = K_a + sum_j 1/(u - t^(a-1)_j) - sum_j 1/(u - t^(a)_j); the
    composition is monic of order N with rational coefficients.  Use this
    over exact scalars; for float roots the unreduced composition loses
    precision, so evaluate through :func:`factorized_values` instead.
    """
    N = len(exponents)
    levels = [list(level) for level in t.levels] + [[]]
    one = exponents[0] * 0 + 1 if not isinstance(exponents[0], complex) else 1.0 + 0j
    factors = []
    for a in range(1, N + 1):
        chi = RatFun(Poly([exponents[a - 1]]))
        for x in levels[a - 1]:
            chi = chi + RatFun(Poly([one]), Poly([-x, one]), reduce=False)
        for x in levels[a]:
            chi = chi - RatFun(Poly([one]), Poly([-x, one]), reduce=False)
        factors.append(DiffOp([-chi, RatFun(Poly([one]))]))
    return compose_chain(factors)


def _jet_mul(a, b, depth):
    out = [0j] * depth
    for i, x in enumerate(a):
        if i >= depth:
            break
        for j, y in enumerate(b):
            if i + j >= depth:
                break
            out[i + j] += x * y
    return out


def _jet_diff(a):
    return [(m + 1) * a[m + 1] for m in range(len(a) - 1)] + [0j]


def factorized_values(t: RootCoordinates, exponents, point) -> list:
    """[h_1(point), ..., h_N(point)] of the factorized operator, stably.

    Represents every local factor by the Taylor jet of its coefficient at
    the point (directly from the pole sums, so no cancellation) and composes
    the jets; this sidesteps the degree blow-up of symbolic composition in
    floating point.
    """
    N = len(exponents)
    depth = N + 1
    levels = [[complex(to_complex(x)) for x in level] for level in t.levels] + [[]]
    point = complex(to_complex(point))

    def chi_jet(a):
        jet = [0j] * depth
        jet[0] = complex(to_complex(exponents[a - 1]))
        for x in levels[a - 1]:
            d = point - x
            for m in range(depth):
                jet[m] += (-1) ** m / d ** (m + 1)
        for x in levels[a]:
            d = point - x
            for m in range(depth):
                jet[m] -= (-1) ** m / d ** (m + 1)
        return jet

    one = [0j] * depth
    one[0] = 1.0 + 0j
    # operator as {power of d/du: coefficient jet}
    op = {1: list(one), 0: [-c for c in chi_jet(1)]}
    for a in range(2, N + 1):
        factor = {1: list(one), 0: [-c for c in chi_jet(a)]}
        new = {}
        for i, ca in op.items():
            for j, cb in factor.items():
                der = cb
                for r in range(i + 1):
                    term = _jet_mul(ca, der, depth)
                    if r > 0:
                        term = [binomial(i, r) * x for x in term]
                    k = i + j - r
                    if k in new:
                        new[k] = [x + y for x, y in zip(new[k], term)]
                    else:
                        new[k] = term
                    if r < i:
                        der = _jet_diff(der)
        op = new
    return [op[N - i][0] for i in range(1, N + 1)]


def root_coordinates_from_space(space: QuasiExpSpace, tol: float = 1e-9):
    """Root coordinates of a space from its trailing-subset Wronskians.

    y_a is the monic polynomial part of Wr(g_{a+1}, ..., g_N); its degree is
    l_a and its roots give level a.  Returns (RootCoordinates, generic flag).
    """
    N = space.rank
    basis = space.basis()
    levels = []
    for a in range(N):
        wr = wronskian(basis[a:])
        poly = wr.poly
        if poly.is_zero():
            raise ValueError("degenerate trailing Wronskian")
        monic = poly.monic()
        coeffs = [to_complex(c) for c in reversed(monic.coeffs)]
        roots = np.roots(coeffs) if len(coeffs) > 1 else np.array([])
        levels.append(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))
    t = RootCoordinates(levels)
    return t, t.is_generic(tol=tol)


def admissible_indices(spec: ModuleSpec) -> list:
    """Weight-basis index tuples; admissibility is exactly the weight condition."""
    return enumerate_weight_basis(spec.rank, spec.size, spec.weight)


def weight_function_counts(t: RootCoordinates, rank: int, counts) -> dict:
    """The universal weight function as coordinates on a weight basis.

    Works for any non-negative weight vector, not only partitions; the
    level profile is l_a = counts_{a+1} + ... + counts_N, level 0 of t must
    carry n = sum(counts) entries, and level a must carry l_a.

    omega = sum over admissible J of omega_J e_J, where omega_J sums over
    tuples of bijections beta_i from S_i(J) = {s : j_s > i} onto level i,
    the product over s in S(J) of

        1/(t^(1)_{beta_1(s)} - t^(0)_s)
          * prod_{i=2..j_s-1} 1/(t^(i)_{beta_i(s)} - t^(i-1)_{beta_{i-1}(s)}).

    The product range ends at j_s - 1 per tensor slot; each factor is a
    simple pole between consecutive levels, j_s - 1 factors in total.
    """
    N = rank
    n = sum(counts)
    profile = profile_from_counts(counts, N)
    levels = t.levels
    for a in range(N):
        if len(levels[a]) != profile[a]:
            raise ValueError(f"level {a} should carry {profile[a]} roots")
    out = {}
    for J in enumerate_indices(N, n, counts):
        s_sets = {i: [s for s in range(1, n + 1) if J[s - 1] > i] for i in range(1, N)}
        total = None
        for beta in _bijection_tuples(s_sets, profile):
            term = None
            for s in range(1, n + 1):
                js = J[s - 1]
                if js == 1:
                    continue
                d = levels[1][beta[1][s]] - levels[0][s - 1]
                if d == 0:
                    raise NonGenericError("non-generic configuration")
                factor = 1 / d
                for i in range(2, js):
                    d = levels[i][beta[i][s]] - levels[i - 1][beta[i - 1][s]]
                    if d == 0:
                        raise NonGenericError("non-generic configuration")
                    factor = factor * (1 / d)
                term = factor if term is None else term * factor
            if term is None:
                term = 1
            total = term if total is None else total + term
        out[J] = total if total is not None else 0
    return out


def weight_function(t: RootCoordinates, spec: ModuleSpec) -> dict:
    """Weight function on the target weight subspace of a vector-factor spec."""
    if not spec.all_vector_factors:
        raise ValueError("weight function needs distinct simple points (all sizes one)")
    return weight_function_counts(t, spec.rank, spec.weight.padded(spec.rank))


def _bijection_tuples(s_sets, profile):
    """All tuples of bijections beta_i : S_i -> {0..l_i-1}."""
    levels = sorted(s_sets)
    choices = []
    for i in levels:
        members = s_sets[i]
        perms = list(permutations(range(profile[i]))) if members else [()]
        choices.append((i, members, perms))

    def rec(k, current):
        if k == len(choices):
            yield dict(current)
            return
        i, members, perms = choices[k]
        for perm in perms:
            current[i] = {s: perm[idx] for idx, s in enumerate(members)}
            yield from rec(k + 1, current)
        current.pop(i, None)

    yield from rec(0, {})


def weight_vector(t: RootCoordinates, spec: ModuleSpec) -> np.ndarray:
    """Dense coordinates of the weight function on the lex weight basis."""
    values = weight_function(t, spec)
    basis = admissible_indices(spec)
    return np.array([to_complex(values[J]) for J in basis], dtype=complex)


@dataclass
class EigenvectorReport:
    residual: float
    passed: bool
    failures: list = field(default_factory=list)


def verify_eigenvector(
    t: RootCoordinates,
    spec: ModuleSpec,
    bethe_op,
    tol: float = 1e-8,
    sample_points=None,
) -> EigenvectorReport:
    """Check that the weight function at the roots is a joint eigenvector.

    The predicted eigenvalues are the coefficients of the factorized
    operator at the roots; the report carries the worst relative residual
    over coefficients and sample points.
    """
    if sample_points is None:
        sample_points = exact_sample_points(spec.points, spec.size + 2, start=13)
    omega = weight_vector(t, spec)
    norm = float(np.linalg.norm(omega))
    if norm == 0:
        return EigenvectorReport(residual=float("inf"), passed=False, failures=["zero vector"])
    exponents = [to_complex(k) for k in spec.exponents]
    worst = 0.0
    failures = []
    for pt in sample_points:
        values = factorized_values(t, exponents, pt)
        for i in range(1, spec.rank + 1):
            m = np.array(bethe_op.block_evaluate(i, pt).to_complex_list(), dtype=complex)
            hval = values[i - 1]
            resid = float(np.linalg.norm(m @ omega - hval * omega)) / norm
            scale = max(1.0, float(np.linalg.norm(m)))
            rel = resid / scale
            if rel > worst:
                worst = rel
            if rel > tol:
                failures.append(f"coefficient {i} at point {pt}: residual {rel:.3e}")
    return EigenvectorReport(residual=worst, passed=not failures, failures=failures)
