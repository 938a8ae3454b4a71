"""Bethe ansatz side: root coordinates, equations, and eigenvectors.

Root coordinates are levels t^(0), ..., t^(N-1) with l_a entries at level
a, l_a = lam_{a+1} + ... + lam_N; level 0 is pinned to the roots of the
Wronskian, i.e. the evaluation points.  Solutions are one complex array, a
row per solution holding its upper levels in turn.  Solving is restricted to
tensor products of vector representations at distinct points (every factor
size one), which keeps the weight function well defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product

import numpy as np

from .algebra import ModuleSpec, enumerate_indices, enumerate_weight_basis
from .betheop import eigenvector_points
from .scalars import to_complex
from .spaces import QuasiExpSpace, trailing_minors


class NonGenericError(ValueError):
    """Coincident root arguments make a summand singular."""


def level_profile(counts, N: int) -> tuple:
    """l_a = counts_{a+1} + ... + counts_N for a = 0..N-1, for any weight vector (a Partition too)."""
    padded = tuple(counts) + (0,) * (N - len(counts))
    return tuple(sum(padded[a:]) for a in range(N))


def level_slices(sizes) -> list:
    """The slices of consecutive levels of the given sizes along a row of roots."""
    return [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]


SAME_REAL = 1e-9  # relative to the moduli; the real parts of a conjugate pair differ by roundoff


def level_order(level) -> list:
    """Complex roots by real part; a run whose real parts agree within ``SAME_REAL`` goes by imaginary part."""
    zs = sorted(level, key=lambda z: z.real)
    run = accumulate((abs(y.real - x.real) > SAME_REAL * max(abs(x), abs(y)) for x, y in zip(zs, zs[1:])), initial=0)
    return [z for _, z in sorted(zip(run, zs), key=lambda p: (p[0], p[1].imag))]


def _nodes(roots, spec: ModuleSpec) -> tuple:
    """(nodes, profile): level 0 of ``spec``, each b_s repeated n_s times, then each row of ``roots``.

    profile is (l_0, ..., l_{N-1}); a row of roots holds the upper levels in
    turn, and roots of another width raise ValueError.
    """
    profile = level_profile(spec.weight, spec.rank)
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim != 2 or roots.shape[1] != sum(profile[1:]):
        raise ValueError(f"each row should hold levels of {profile[1:]} roots, got shape {roots.shape}")
    nodes = np.empty((len(roots), sum(profile)), dtype=complex)
    nodes[:, :profile[0]] = np.repeat([to_complex(b) for b in spec.points], spec.factor_sizes)
    nodes[:, profile[0]:] = roots
    return nodes, profile


def bae_residual(roots, spec: ModuleSpec) -> np.ndarray:
    """Left-hand side minus right-hand side of every Bethe ansatz equation, one row per solution.

    ``roots`` holds one solution per row, its upper levels in turn, and at
    least one row.  The equations are indexed by level a = 1..N-1 and root
    j; the residual at (a, j) is the sum over the neighbouring levels of
    simple poles minus twice the in-level interaction, minus (K_{a+1} -
    K_a).  Returns a (solutions, equations) complex array from one
    :class:`BetheEquations` evaluation; coincident coupled roots raise
    :class:`NonGenericError`.
    """
    nodes, profile = _nodes(roots, spec)
    eqs = BetheEquations(nodes[0, :profile[0]], [to_complex(k) for k in spec.exponents], profile[1:])
    R, _, ok = eqs.residual(nodes[:, profile[0]:])
    if not ok.all():
        raise NonGenericError("non-generic configuration")
    return R


# Starts per batched Newton pass.  The working arrays hold chunk x (coupled
# pairs) entries, under twice that while damping, so a fixed chunk keeps
# memory flat in the number of starts.
NEWTON_CHUNK = 256

# Coupled roots closer than this (in units of the smallest gap between the
# points) make a configuration singular; it is not evaluated.
_SINGULAR = 1e-30

# A Newton row is retired as collapsed once two roots of one level both lie
# within COLLAPSE_RADIUS (in units of the smallest gap between the points) of
# a node that both couple to: an evaluation point for level 1, a root of
# level a +- 1 for level a.  With x_2 ~ -x_1 around the node the in-level
# term cancels the two poles and Newton creeps toward the coincident limit,
# which the genericity filter drops.  The closest same-level pair of a real
# solution around a node seen on the ladder is 2.65 radii out.
COLLAPSE_RADIUS = 1e-2


def gap_unit(points) -> float:
    """The smallest distance between two evaluation points (1 for one point).

    The root search works in this unit: roots t = s v and exponents s K.  The
    instances (K, b) and (cK, b/c) therefore run the same search.
    """
    zs = [to_complex(b) for b in points]
    return min((abs(x - y) for i, x in enumerate(zs) for y in zs[i + 1:]), default=1.0)


class BetheEquations:
    """The Bethe ansatz equations of one level profile, batched over rows.

    A batch X holds one configuration of the upper-level roots per row,
    flattened level by level.  The residual of root i is
    sum_k C_ik / (x_i - y_k) - (K_{a+1} - K_a), where y runs over the roots
    and then the points, and the coupling C is -2 within a level, +1 between
    adjacent levels and +1 from level 1 to the points.  Over the coupled
    pairs p = (i, k) everything is a matrix product: the differences are
    X @ A - b, the residual is 1/d @ S - shift and the Jacobian is
    1/d^2 @ M, reshaped to roots x roots.  The +1-coupled pairs p, q that
    share a node and whose roots share a level are the columns
    ``collapse_pairs`` compares in :meth:`collapsing`.
    """

    def __init__(self, points, exponents, sizes):
        level = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        n = len(level)
        apart = np.abs(level[:, None] - np.concatenate([level, np.zeros(len(points), dtype=int)]))
        coupling = np.where(apart == 1, 1.0, np.where(apart == 0, -2.0, 0.0))
        np.fill_diagonal(coupling, 0.0)
        root, node = np.nonzero(coupling)
        c, p, to_root = coupling[root, node], np.arange(len(root)), node < n
        self.A = np.zeros((n, len(p)), dtype=complex)
        self.A[root, p] = 1.0
        self.A[node[to_root], p[to_root]] = -1.0
        self.b = np.zeros(len(p), dtype=complex)
        self.b[~to_root] = np.asarray(points, dtype=complex)[node[~to_root] - n]
        self.S = np.zeros((len(p), n), dtype=complex)
        self.S[p, root] = c
        M = np.zeros((len(p), n, n), dtype=complex)
        M[p, root, root] = -c
        M[p[to_root], root[to_root], node[to_root]] = c[to_root]
        self.M = M.reshape(len(p), n * n)
        K = np.asarray(exponents, dtype=complex)
        self.shift = K[level] - K[level - 1]
        plus = np.flatnonzero(c > 0)
        r, y = root[plus], node[plus]
        i, j = np.nonzero((y[:, None] == y) & (level[r][:, None] == level[r]) & (r[:, None] < r))
        self.collapse_pairs = plus[i], plus[j]

    def generic(self, X, tol):
        """Rows whose coupled roots and points are all more than tol apart."""
        return np.abs(X @ self.A - self.b).min(axis=1, initial=np.inf) > tol

    def residual(self, X):
        """(R, inv, ok) for finite rows X: residuals and 1/d over the pairs.

        Rows with a coupled pair closer than _SINGULAR are not evaluated:
        ok is False there and their R and inv are placeholders.
        """
        inv = X @ self.A
        inv -= self.b
        ok = np.abs(inv).min(axis=1, initial=np.inf) > _SINGULAR
        inv[~ok] = 1.0
        np.reciprocal(inv, out=inv)
        return inv @ self.S - self.shift, inv, ok

    def collapsing(self, inv):
        """Rows of 1/d whose pair of same-level roots both lie within ``COLLAPSE_RADIUS`` of a shared node."""
        p, q = self.collapse_pairs
        near = np.abs(inv) > 1 / COLLAPSE_RADIUS
        return (near[:, p] & near[:, q]).any(axis=1)

    def jacobian(self, inv):
        """The analytic Jacobian of the residual in the roots, per row."""
        n = self.S.shape[1]
        return ((inv * inv) @ self.M).reshape(-1, n, n)


def _solve(A, b):
    """Batched A x = b; returns x and which rows have a finite solution."""
    try:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for k in range(len(A)):
            try:
                x[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                x[k] = np.nan
    return x, np.isfinite(x).all(axis=1)


def damped_newton(X, eqs, tol, max_iter, limit):
    """Damped Newton from every row of X; returns (converged rows, stalled, collapsed, evaluations).

    A row converges once max|F| is at most tol, tested at the start and
    after each of at most max_iter steps, the last one included.  Each row
    is damped on its own: it takes the longest step 2^-k s, k < 25, that
    lowers max|F|, where s solves J s = -F.  The rows run in chunks of
    ``NEWTON_CHUNK``; within a chunk one batched evaluation tries, for every
    row still without a step, its next ceil(NEWTON_CHUNK / rows) step
    lengths, so a lone row tries all 25 at once.  A row fails when it cannot move, meets a singular step, or
    its trial points leave |x| <= limit; such trial points are never
    evaluated.  An unconverged row is retired as collapsed when
    :meth:`BetheEquations.collapsing` holds for it, and otherwise as stalled
    when its max|F| is not below ``STALL_RATIO`` times its value
    ``STALL_WINDOW`` iterations earlier.  The second and third values returned
    count those rows, the fourth the batched residual evaluations.
    """
    X = np.asarray(X, dtype=complex)
    chunks = [
        _newton_chunk(X[at:at + NEWTON_CHUNK].copy(), eqs, tol, max_iter, limit)
        for at in range(0, len(X), NEWTON_CHUNK)
    ]
    if not chunks:
        return X[:0], 0, 0, 0
    found, *counts = zip(*chunks)
    return (np.concatenate(found), *map(sum, counts))


# The step lengths 2^-k, k < 25, tried longest first.  Each damping
# evaluation gives every row still without a step its next
# ceil(NEWTON_CHUNK / rows) of them, fewer than 2 NEWTON_CHUNK trial points
# in all, so a few rows cost one evaluation per iteration, not one per group
# of halvings.
_DAMPS = 0.5 ** np.arange(25)


def _newton_chunk(X, eqs, tol, max_iter, limit):
    evaluations = 0

    def evaluate(Y):
        nonlocal evaluations
        evaluations += 1
        inside = np.all(np.abs(Y) <= limit, axis=1)
        R, inv, ok = eqs.residual(np.where(inside[:, None], Y, 0))
        return ok & inside, [R, inv]

    ok, state = evaluate(X)
    active, done = ok, np.zeros(len(X), dtype=bool)
    # history[k % STALL_WINDOW] holds each active row's merit at iteration k
    history, stalled, collapsed = np.full((STALL_WINDOW, len(X)), np.inf), 0, 0
    for k in range(max_iter + 1):
        R, inv = state
        rows = np.flatnonzero(active)
        merit = np.abs(R[rows]).max(axis=1)
        converged = merit <= tol
        done[rows[converged]] = True
        if k == max_iter:  # the state after the last permitted step is tested, not stepped from
            break
        past = history[k % STALL_WINDOW]
        collapse = ~converged & eqs.collapsing(inv[rows])
        stall = ~(converged | collapse) & (merit >= STALL_RATIO * past[rows])
        past[rows] = merit
        stalled += int(stall.sum())
        collapsed += int(collapse.sum())
        keep = ~(converged | stall | collapse)
        active[rows[~keep]] = False
        rows, merit = rows[keep], merit[keep]
        if not rows.size:
            break
        step, solved = _solve(eqs.jacobian(inv[rows]), -R[rows])
        moved = np.zeros(len(rows), dtype=bool)
        # each row takes its longest step that lowers max|F|; any split of
        # _DAMPS into consecutive groups picks the same one
        tried = 0
        while tried < len(_DAMPS):
            trying = np.flatnonzero(solved & ~moved)
            if not trying.size:
                break
            width = -(-NEWTON_CHUNK // trying.size)  # ceil(NEWTON_CHUNK / rows)
            damps = _DAMPS[tried:tried + width]
            tried += len(damps)
            Y = (X[rows[trying], None, :] + damps[:, None] * step[trying, None, :]).reshape(-1, X.shape[1])
            ok, trial = evaluate(Y)
            lower = np.abs(trial[0]).max(axis=1) < np.repeat(merit[trying], len(damps))
            better = (ok & lower).reshape(len(trying), len(damps))
            hit = better.any(axis=1)
            pick = np.flatnonzero(hit) * len(damps) + better.argmax(axis=1)[hit]
            take = rows[trying[hit]]
            X[take] = Y[pick]
            for old, new in zip(state, trial):
                old[take] = new[pick]
            moved[trying[hit]] = True
        active[rows[~moved]] = False
    return X[done], stalled, collapsed, evaluations


def _orbit(flat, slices):
    """Every reordering of the roots within each level, one row each."""
    per_level = [permutations(flat[s]) for s in slices]
    return np.array([np.concatenate(combo) for combo in product(*per_level)], dtype=complex)


@dataclass
class RootSearch:
    """The solutions of :func:`newton_solve`; its length is their number.

    ``roots`` holds one solution per row, its upper roots level by level in
    :func:`level_order`, the rows sorted by their (real, imaginary) parts.
    ``counters[family]`` records, for each family of starts, how many
    started, converged, were retired as stalled or as collapsed (see
    :func:`damped_newton`) and gave a new solution, and how many batched
    residual evaluations the search made.
    """

    roots: np.ndarray
    counters: dict

    def __len__(self) -> int:
        return len(self.roots)


# A start is accepted once max|F| <= RESIDUAL_TOL, in units of the smallest
# gap between the points, and gets at most MAX_ITER Newton steps.
RESIDUAL_TOL = 1e-12
MAX_ITER = 100
# A start whose max|F| has not fallen below STALL_RATIO times its value
# STALL_WINDOW iterations earlier is retired as stalled.  It sits on a
# plateau: a real start for real points cannot leave the real line, and with
# every root far out max|F| stays near the exponent gap.  A window of 10
# iterations lost roots on N=4 with 4 points.
STALL_WINDOW = 20
STALL_RATIO = 0.9
# Random starts per expected solution: 50 misses small basins at desk scale;
# 500 is still cheap and has found every generic configuration in practice.
RANDOM_PER_SOLUTION = 500


class _Draws:
    """Bulk draws from one ``random.Random(seed)``.

    Every 8 bytes of ``randbytes`` give a uniform on [0, 1) as
    (uint64 >> 11) * 2^-53; normals come from these by Box-Muller and
    integers by floor.  The standard library's generator spares each pass
    the 15 ms import of numpy.random.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def uniform(self, a, b, shape):
        words = np.frombuffer(self.rng.randbytes(8 * int(np.prod(shape))), dtype=np.uint64)
        return a + (b - a) * ((words >> 11) * 2.0 ** -53).reshape(shape)

    def complex_normal(self, scale, shape):
        """scale * (x + iy) with x and y independent standard normals."""
        u, v = self.uniform(0.0, 1.0, (2,) + shape)
        return scale * np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * np.pi * v)

    def integers(self, high, size):
        """size integers drawn uniformly from 0, ..., high - 1."""
        return self.uniform(0.0, high, size).astype(np.intp)


def newton_solve(spec: ModuleSpec, seed: int = 2024, dedup_tol: float = 1e-8) -> RootSearch:
    """Multistart damped Newton search for Bethe root configurations.

    Requires every factor size to be one.  The search runs in units of the
    smallest gap s between the points (see :func:`gap_unit`), so
    ``RESIDUAL_TOL`` and dedup_tol hold in that unit.  Each family of starts
    is one :func:`damped_newton` call: for real points the structured seeds
    (3 per assignment of roots to gaps), then, only when they find fewer
    solutions than expected, ``RANDOM_PER_SOLUTION`` random starts per
    expected solution.  Converged configurations are deduplicated up to
    permutations within each level; the expected count is the dimension of
    the weight subspace.  Returns a :class:`RootSearch`.
    """
    if not spec.all_vector_factors:
        raise ValueError("root solving needs distinct simple points (all sizes one)")
    N = spec.rank
    upper_sizes = level_profile(spec.weight, N)[1:]
    total = sum(upper_sizes)
    counters = {
        family: {"starts": 0, "converged": 0, "stalled": 0, "collapsed": 0, "new": 0, "evaluations": 0}
        for family in ("structured", "random")
    }
    if total == 0:
        return RootSearch(np.zeros((1, 0), dtype=complex), counters)
    expected = len(enumerate_weight_basis(N, spec.size, spec.weight))
    unit = gap_unit(spec.points)
    level0 = [to_complex(b) / unit for b in spec.points]
    exponents = [unit * to_complex(k) for k in spec.exponents]
    eqs = BetheEquations(level0, exponents, upper_sizes)
    slices = level_slices(upper_sizes)
    # roots scale like size / (exponent gap) when exponents are close
    gaps = [abs(exponents[i] - exponents[j]) for i in range(N) for j in range(i + 1, N)]
    reach = spec.size / min(gaps) if gaps and min(gaps) > 0 else 1.0
    radius = max(2.0 * max([abs(z) for z in level0 + exponents] + [1.0]), 1.5 * reach)
    lo = min([b.real for b in level0] + [0.0]) - 1.0
    hi = max([b.real for b in level0] + [1.0]) + 1.0
    draw = _Draws(seed)
    solutions = []
    known = np.empty((0, total), dtype=complex)  # every reordering of every solution

    def uniform(a, b, rows):
        return draw.uniform(a, b, (rows, total))

    def unseen(rows, ys):
        """The rows farther than dedup_tol (max norm) from every y."""
        for y in ys:
            rows = rows[np.abs(rows - y).max(axis=1) > dedup_tol]
        return rows

    def search(family, X):
        """One batched Newton call; admits the new solutions, returns the converged generic rows."""
        nonlocal known
        found, stalled, collapsed, evaluations = damped_newton(X, eqs, RESIDUAL_TOL, MAX_ITER, 1e6 * radius)
        generic = found[eqs.generic(found, dedup_tol)]
        rows, new = unseen(generic, known), 0
        while len(rows):
            solutions.append(rows[0])
            orbit = _orbit(rows[0], slices)
            known = np.concatenate([known, orbit])
            rows, new = unseen(rows, orbit), new + 1
        for key, n in (("starts", len(X)), ("converged", len(found)), ("stalled", stalled),
                       ("collapsed", collapsed), ("new", new), ("evaluations", evaluations)):
            counters[family][key] += n
        return generic

    def structured_seeds():
        """One start per assignment of roots to gaps between the real points.

        Real solutions interlace with the evaluation points, so their tiny
        basins are hit reliably by midpoint seeds; each level sits at its own
        offset inside a gap, so roots of adjacent levels never start on the
        same point.  Complex solutions are left to the random starts.
        """
        xs = sorted(set(b.real for b in level0))
        mids = [xs[0] - 1.5] + [(a + c) / 2 for a, c in zip(xs, xs[1:])] + [xs[-1] + 1.5]
        per_level = [combinations_with_replacement(range(len(mids)), sz) for sz in upper_sizes]
        seeds = []
        for combo in product(*per_level):
            flat = []
            for level, gaps_taken in enumerate(combo, start=1):
                for g in sorted(set(gaps_taken)):
                    count = gaps_taken.count(g)
                    width = 0.4 if 0 < g < len(mids) - 1 else 1.0
                    for idx in range(count):
                        off = (idx - (count - 1) / 2) * width / count
                        flat.append(mids[g] + off + 0.15 * width * level / (count + 1))
            seeds.append(flat)
        return np.array(seeds, dtype=complex)

    pool = np.empty((0, total), dtype=complex)
    if all(abs(b.imag) <= 1e-12 for b in level0):
        base = structured_seeds()
        jitter = [draw.complex_normal(w, base.shape) for w in (0.08, 0.2)]
        pool = search("structured", np.concatenate([base, base + jitter[0], base + jitter[1]]))

    def random_starts(mode, rows):
        if mode == 0:
            return uniform(-radius, radius, rows) + 1j * uniform(-radius, radius, rows)
        if mode == 1:
            # near-real band: real solutions are common for real data
            return uniform(lo - radius / 2, hi + radius / 2, rows) + 1j * uniform(-0.5, 0.5, rows)
        if mode == 2:
            return uniform(lo, hi, rows) + 1j * uniform(-2.0, 2.0, rows)
        if mode == 3 or not len(pool):
            return uniform(0.0, radius, rows) + 1j * uniform(-radius / 2, radius / 2, rows)
        # recombine a structured find: jitter every root, replace one
        base = pool[draw.integers(len(pool), rows)]
        X = base + draw.complex_normal(0.4, base.shape) * (1.0 + np.abs(base))
        X[np.arange(rows), draw.integers(total, rows)] = (
            draw.uniform(-radius, radius, rows) + 1j * draw.uniform(-radius, radius, rows)
        )
        return X

    if len(solutions) < expected:
        starts = RANDOM_PER_SOLUTION * expected
        search("random", np.concatenate([random_starts(mode, len(range(mode, starts, 5))) for mode in range(5)]))

    rows = sorted(([z for s in slices for z in level_order(unit * flat[s])] for flat in solutions),
                  key=lambda row: [(z.real, z.imag) for z in row])
    return RootSearch(np.array(rows, dtype=complex).reshape(len(rows), total), counters)


def _weight_values(X, table) -> np.ndarray:
    """omega at every row of nodes X: one gather of the pole-chain ``table`` of :func:`_chain_table`."""
    d = X[:, table[..., 0]] - X[:, table[..., 1]]
    if not d.all():
        raise NonGenericError("non-generic configuration")
    return (1 / d).prod(axis=-1).sum(axis=-1)


def factorized_values(roots, spec: ModuleSpec, points) -> np.ndarray:
    """[h_1, ..., h_N] of every solution's factorized operator at every point, stably.

    (d - chi_1) ... (d - chi_N) = d^N + h_1 d^(N-1) + ... + h_N, with
    chi_a = K_a + sum_j 1/(u - t^(a-1)_j) - sum_j 1/(u - t^(a)_j).  Every
    coefficient c_k is kept as its Taylor jet of length N at each point,
    read straight from the pole sums, so nothing cancels.  The factors are
    applied from the right, (d - chi) sum c_k d^k = sum (c_k' + c_(k-1) -
    chi c_k) d^k; each of the N - 1 derivatives costs one jet entry.  Every
    step runs once for all the rows of ``roots``, one solution each, its
    upper levels in turn.  Returns shape (solutions, points, N).
    """
    N = spec.rank
    nodes, profile = _nodes(roots, spec)
    z = np.array([to_complex(p) for p in points], dtype=complex)[:, None, None]
    m = np.arange(N)
    # Taylor jets of 1/(u - x) at every point, (-1)^m / (z - x)^(m+1), for every root x, summed per level
    jets = (-1.0) ** m * (1 / (z - nodes[:, None, :, None])) ** (m + 1)
    poles = [jets[:, :, level].sum(axis=2) for level in level_slices(profile)] + [0]
    c = np.zeros((len(nodes), len(z), N + 1, N), dtype=complex)  # [solution, point, power of d, jet entry]
    c[..., 0, 0] = 1.0
    for a in range(N, 0, -1):
        chi = poles[a - 1] - poles[a]
        chi[..., 0] += to_complex(spec.exponents[a - 1])
        out = np.zeros_like(c)
        out[..., :-1] = c[..., 1:] * m[1:]  # c_k'
        out[..., 1:, :] += c[..., :-1, :]  # c_(k-1)
        for i in range(N):  # chi c_k, the jet product truncated at length N
            out[..., i:] -= chi[..., None, i, None] * c[..., :N - i]
        c = out
    return c[..., N - 1::-1, 0]


def root_coordinates_from_space(space: QuasiExpSpace, tol: float = 1e-9):
    """Root coordinates of a space from its trailing-subset Wronskians.

    y_a is the monic polynomial part of Wr(g_{a+1}, ..., g_N), the
    determinant of the trailing (N-a) x (N-a) sub-table of the derivative
    table; its degree is l_a and its roots give level a, in
    :func:`level_order`.  Returns (levels, generic): the levels a = 0..N-1
    as lists, and whether no two roots of one level, or of adjacent levels,
    lie within tol.
    """
    N = space.rank
    det = trailing_minors(space.exponents, space.stacked())
    levels = []
    for a in range(N):
        wr = np.trim_zeros(det(tuple(range(N - a)))[0], "b")
        if not len(wr):
            raise ValueError("degenerate trailing Wronskian")
        coeffs = [to_complex(c / wr[-1]) for c in wr[::-1]]  # monic, highest degree first
        roots = np.roots(coeffs) if len(coeffs) > 1 else np.array([])
        levels.append(level_order([complex(r) for r in roots]))
    pairs = [p for level in levels for p in combinations(level, 2)]
    pairs += [p for lower, higher in zip(levels, levels[1:]) for p in product(lower, higher)]
    return levels, all(abs(x - y) > tol for x, y in pairs)


@lru_cache(maxsize=256)
def _chain_table(rank: int, counts: tuple) -> np.ndarray:
    """The weight function's pole chains as one integer array, built once per (rank, counts).

    [k, c, m] is the (upper, lower) node pair of link m, slot by slot, of
    J = enumerate_indices(rank, n, counts)[k] under the c-th tuple of level
    bijections, with the nodes numbered level by level from level 0.
    """
    n = sum(counts)
    profile = level_profile(counts, rank)
    start = [sum(profile[:a]) for a in range(rank)]
    choices = list(product(*(permutations(range(size)) for size in profile[1:])))
    Js = enumerate_indices(rank, n, counts)
    rows = []
    for J in Js:
        slots = [[s for s in range(n) if J[s] > i] for i in range(1, rank)]
        for choice in choices:
            beta = [range(n)] + [dict(zip(members, perm)) for members, perm in zip(slots, choice)]
            rows.append([(start[i] + beta[i][s], start[i - 1] + beta[i - 1][s])
                         for s, js in enumerate(J) for i in range(1, js)])
    table = np.array(rows, dtype=np.intp).reshape(len(Js), len(choices), sum(profile[1:]), 2)
    table.flags.writeable = False
    return table


def weight_function(levels, rank: int, counts) -> list:
    """The universal weight function omega at the roots, in ``enumerate_indices`` order, exactly.

    ``levels`` holds the roots of the levels a = 0..N-1, exact or float.
    Works for any non-negative weight vector, not only partitions; the
    level profile is l_a = counts_{a+1} + ... + counts_N, level 0 must carry
    n = sum(counts) entries, and level a must carry l_a.

    omega = sum over admissible J of omega_J e_J, where omega_J sums over
    tuples of bijections beta_i from S_i(J) = {s : j_s > i} onto level i,
    i = 1..N-1, the product over slots s of one chain of simple poles

        prod_{i=1..j_s-1} 1/(t^(i)_{beta_i(s)} - t^(i-1)_{beta_{i-1}(s)}),

    with beta_0(s) = s, so the first link is the pole to the point of slot s.
    The chains are the rows of one table built once per (rank, counts),
    and omega is one gather over it, the one :func:`verify_eigenvector`
    makes for every solution at once, here on an object array of the roots
    themselves: exact roots give exact values, and float roots floats.
    Entry k is omega_J for J = enumerate_indices(rank, n, counts)[k].
    """
    profile = level_profile(counts, rank)
    if tuple(map(len, levels)) != profile:
        raise ValueError(f"the levels should carry {profile} roots")
    nodes = np.array([[x for level in levels for x in level]], dtype=object)
    return _weight_values(nodes, _chain_table(rank, tuple(counts)))[0].tolist()


def verify_eigenvector(roots, spec: ModuleSpec, bethe_op) -> tuple:
    """Check that the weight function at each solution's roots is a joint eigenvector.

    ``roots`` holds one solution per row, its upper levels in turn.
    Returns (residuals, values), one row per solution: values (solutions,
    points, N) holds each solution's factorized [h_1, ..., h_N] at the
    :func:`eigenvector_points`, from one :func:`factorized_values` call for
    all, and residuals its worst relative residual ||B_i omega - h_i omega|| /
    (||omega|| max(1, ||B_i||)) over points and coefficients, inf where
    omega is zero.  omega comes for every solution from one gather over the
    table of pole chains, and with the operator's ``eigenvector_blocks``
    every residual is one stacked product.  Coincident coupled roots raise
    :class:`NonGenericError`.  The factors must be vectors: omega's order,
    ``enumerate_indices`` of the weight, is then the order of the block's
    members.
    """
    if not spec.all_vector_factors:
        raise ValueError("weight function needs distinct simple points (all sizes one)")
    nodes, _ = _nodes(roots, spec)
    values = factorized_values(roots, spec, eigenvector_points(spec))
    omega = _weight_values(nodes, _chain_table(spec.rank, spec.weight.padded(spec.rank)))
    norms = np.linalg.norm(omega, axis=1)
    B, scales = bethe_op.eigenvector_blocks
    Bw = np.moveaxis(B @ omega.T, -1, 0)  # (solutions, points, N, dim)
    rel = np.linalg.norm(Bw - values[..., None] * omega[:, None, None, :], axis=-1)
    rel = rel / np.where(norms > 0, norms, 1.0)[:, None, None] / scales
    return np.where(norms == 0, np.inf, rel.max(axis=(1, 2))), values
