"""Simultaneous diagonalization of the Bethe operator and kernel recovery.

Construction stays exact.  On the target weight block each coefficient is
B_i(u) = A_i(u) / P(u), where P = prod_s (u - b_s)^{n_s} and A_i is an exact
matrix polynomial of degree at most n (``BetheOperator.cleared``).  The
coefficient matrices C_ij of the A_i commute and share their joint
eigenvectors with the B_i, so this module converts them to complex floats,
diagonalizes a seeded generic combination, and reads every eigenvalue
function straight from them: h_i = (sum_j v* C_ij v u^j) / P for the unit
joint eigenvector v.  Nothing is sampled or interpolated.  Each eigen-operator
is kept cleared, as [G_0, ..., G_N] = [P, P h_1, ..., P h_N] for
sum_i G_i (d/du)^{N-i}, the form ``cleared_operator_polys`` gives a space of
quasi-exponentials; its quasi-exponential kernel is solved for last.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import ModuleSpec
from .bae import gap_unit
from .betheop import BetheOperator, eigenvector_points
from .polynomials import Poly
from .scalars import to_complex
from .spaces import QuasiExpSpace, cleared_operator_polys, membership_test


@dataclass
class Tolerances:
    """The float tolerances of a run: the config's ``tolerances`` object, parsed by ``harness``."""

    residual: float = 1e-9
    cluster: float = 1e-7
    dedup: float = 1e-8
    kernel_fit: float = 1e-8


# fresh random combinations tried before joint diagonalization gives up
MAX_RETRIES = 6


@dataclass
class EigenCharacter:
    """A joint eigenvector with the numerators of its eigenvalue functions.

    ``numerators[i - 1][j]`` is v* C_ij v, the u^j coefficient of h_i(u)
    times the pole polynomial, for i = 1..N and j = 0..n.
    """

    vector: np.ndarray
    numerators: list
    residual: float
    cluster_size: int = 1
    simple: bool = True

    def values(self, z, pz) -> list:
        """[h_1(z), ..., h_N(z)], with pz the pole polynomial at z."""
        return [sum(c * z**j for j, c in enumerate(row)) / pz for row in self.numerators]


@dataclass
class SpectrumReport:
    characters: list
    diagonalizable: bool
    operators: list = field(default_factory=list)  # per character [G_0, ..., G_N], G_0 = P
    kernels: list = field(default_factory=list)  # per character QuasiExpSpace or None
    memberships: list = field(default_factory=list)  # per character MembershipReport or str

    @property
    def count(self) -> int:
        return len(self.characters)


def _block_coefficient_matrices(op: BetheOperator) -> list:
    """[[C_ij for j = 0..n] for i = 1..N]: the u^j coefficients of A_i on the block.

    Each row is one complex array of shape (n + 1, dim, dim).
    """
    return [a.to_complex(op.spec.size + 1) for a in op.cleared]


def _cluster(eigvals, tol):
    """Group sorted eigenvalue indices into clusters within tol."""
    order = sorted(range(len(eigvals)), key=lambda k: (eigvals[k].real, eigvals[k].imag))
    clusters = []
    for k in order:
        if clusters and abs(eigvals[k] - eigvals[clusters[-1][-1]]) <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def _cluster_margin(eigvals, clusters):
    reps = [eigvals[c[0]] for c in clusters]
    best = np.inf
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            best = min(best, abs(reps[a] - reps[b]))
    return best


def joint_diagonalize(op: BetheOperator, tol: Tolerances = None, seed: int = 2024) -> SpectrumReport:
    """One EigenCharacter per joint eigenvector of the block coefficients.

    A generic real combination of the coefficient matrices C_ij, each scaled
    to unit norm, is diagonalized; its coefficients are standard normal
    draws of ``random.Random(seed)``.  The scaling makes the
    combination the same for the rescaled instance (cK, b/c), whose C_ij
    differ only by powers of c.  Clusters within tolerance are refined and verified
    against every C_ij.  Clusters whose eigenspace is smaller than their
    multiplicity are flagged (the action is then not diagonalizable) and
    reported through generalized eigenspace generators.  Characters are
    sorted by (h_1, h_N) at the first of the :func:`eigenvector_points`.
    """
    tol = tol or Tolerances()
    spec = op.spec
    dim = len(op.module.weight_indices(spec.weight))
    if dim == 0:
        return SpectrumReport([], True)
    mats = _block_coefficient_matrices(op)
    units = [m / np.linalg.norm(m) for row in mats for m in row if np.any(m)]

    rng = random.Random(seed)
    ambiguous, best = 0, np.inf  # why the combinations tried so far failed
    for attempt in range(MAX_RETRIES):
        coeffs = _normal_draws(rng, len(units))
        T = sum(c * u for c, u in zip(coeffs, units))
        eigvals, eigvecs = np.linalg.eig(T)
        tscale = max(np.linalg.norm(T), 1.0)
        clusters = _cluster(eigvals, tol.cluster * tscale)
        if len(clusters) > 1 and _cluster_margin(eigvals, clusters) <= 10 * tol.cluster * tscale:
            ambiguous += 1
            continue  # ambiguous clustering: fresh combination
        characters = []
        diagonalizable = True
        for cluster in clusters:
            size = len(cluster)
            if size == 1:
                idx = cluster[0]
                v = eigvecs[:, idx]
                v = v / np.linalg.norm(v)
                _, v = _refine_eigenpair(T, eigvals[idx], v)
                res = _joint_residual(v, units)
                if res > tol.residual * 100:
                    best = min(best, res)
                    break
                characters.append(EigenCharacter(v, _numerators(v, mats), res))
                continue
            # multiplicity: work inside the generalized eigenspace
            mu = np.mean([eigvals[k] for k in cluster])
            A = T - mu * np.eye(dim)
            B = np.linalg.matrix_power(A, size)
            _, s, vh = np.linalg.svd(B)
            null_dim = int(np.sum(s <= max(s[0], 1.0) * 1e-10)) if len(s) else 0
            basis = vh[dim - max(null_dim, size):].conj().T  # generalized eigenspace
            sub = basis[:, -size:] if basis.shape[1] >= size else basis
            q, _ = np.linalg.qr(sub)
            found = _refine_cluster(q, units, tol.residual, rng)
            eig_dim = len(found)
            for v, res in found:
                characters.append(
                    EigenCharacter(
                        vector=v,
                        numerators=_numerators(v, mats),
                        residual=res,
                        cluster_size=size,
                        simple=False,
                    )
                )
            if eig_dim < size:
                diagonalizable = False
        else:
            point = eigenvector_points(spec)[0]
            z, pz = complex(point), to_complex(spec.pole_polynomial()(point))

            def key(ch):
                h = ch.values(z, pz)
                return [(round(v.real, 6), round(v.imag, 6)) for v in (h[0], h[-1])]

            characters.sort(key=key)
            return SpectrumReport(characters, diagonalizable)
    causes = [f"{ambiguous} had ambiguous eigenvalue clusters"] if ambiguous else []
    if ambiguous < MAX_RETRIES:
        limit = tol.residual * 100
        causes.append(f"{MAX_RETRIES - ambiguous} left a joint eigen-residual above {limit:.1e} (smallest {best:.1e})")
    raise RuntimeError(f"joint diagonalization failed for all {MAX_RETRIES} random combinations: " + ", ".join(causes))


def _numerators(v, mats):
    """[[v* C_ij v for j = 0..n] for i = 1..N] for a unit vector v."""
    return [[complex(v.conj() @ (m @ v)) for m in row] for row in mats]


def _joint_residual(v, units):
    """Worst eigen-residual of a unit vector over the unit-norm coefficient matrices."""
    worst = 0.0
    for m in units:
        h = v.conj() @ (m @ v)
        worst = max(worst, float(np.linalg.norm(m @ v - h * v)))
    return worst


def _refine_eigenpair(T, mu, v):
    """Newton iteration on (T - mu)v = 0 with a fixed normalization row.

    numpy's eig is only first-order accurate for non-normal matrices; four
    Newton sweeps push the eigenpair to machine precision.  Two float checks
    downstream rely on it: the kernel least squares of
    :func:`kernel_from_operator` and the match of Bethe-root eigenvalues
    against the characters, both accepted at ``kernel_fit``.
    """
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
    return mu, v / np.linalg.norm(v)


def _normal_draws(rng: random.Random, count: int) -> list:
    """count standard normal draws from the standard library's generator, which
    the Bethe-root search uses too: no pass loads numpy.random (a 15 ms import)."""
    return [rng.gauss(0.0, 1.0) for _ in range(count)]


def _refine_cluster(q, units, residual_tol, rng):
    """Common eigenvectors of the coefficients restricted to a subspace."""
    coeffs = _normal_draws(rng, len(units))
    R = sum(c * (q.conj().T @ u @ q) for c, u in zip(coeffs, units))
    vals, vecs = np.linalg.eig(R)
    found = []
    for k in range(len(vals)):
        v = q @ vecs[:, k]
        v = v / np.linalg.norm(v)
        worst = _joint_residual(v, units)
        if worst <= residual_tol * 100:
            if all(np.abs(np.vdot(u[0], v)) < 1 - 1e-8 for u in found):
                found.append((v, worst))
    return found


def character_to_operator(ch: EigenCharacter, op: BetheOperator) -> list:
    """The eigen-operator in cleared form: [P, P h_1, ..., P h_N].

    P is the pole polynomial prod (u - b_s)^{n_s} and P h_i is the
    character's numerator row, left unreduced.
    """
    return [op.spec.complex_pole_polynomial()] + [Poly(row) for row in ch.numerators]


def kernel_from_operator(G: list, spec: ModuleSpec, tol: Tolerances = None) -> QuasiExpSpace:
    """Quasi-exponential kernel with exponents K and degrees lam.

    G = [G_0, ..., G_N] is a cleared operator sum_i G_i (d/du)^{N-i}.  For
    each i the ansatz e^{K_i u}(u^{lam_i} + sum_j x_j u^{lam_i - j}) turns
    it into a linear system; the least-squares residual must stay below
    ``tol.kernel_fit``, otherwise there is no kernel of the prescribed shape.
    The system is solved in units of s = :func:`gap_unit` of the points, as
    the root search is: with u = s v the operator sum_k c_k(u) (d/du)^k
    becomes sum_k c_k(s v) s^-k (d/dv)^k with exponents s K, and its kernel
    part p~ gives p(u) = s^d p~(u / s).  On coefficient vectors of degree
    at most d, (kappa + d/dv) is the (d+1) x (d+1) matrix kappa I + D, so
    the column of v^m is sum_k c_k * (kappa I + D)^k e_m, a convolution.
    """
    tol = tol or Tolerances()
    N = spec.rank
    lam = spec.weight.padded(N)
    unit = gap_unit(spec.points)
    # row k: the coefficients of c_k(s v) s^-k, which multiplies (d/dv)^k
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
        powers = [np.eye(d + 1, dtype=complex)]  # (kappa I + D)^k for k = 0..N
        for _ in range(N):
            powers.append(shift @ powers[-1])
        powers = np.array(powers)
        # column m, row r + j: sum_k c_k[r] times the v^j coefficient of (kappa + d/dv)^k v^m
        image = np.zeros((width + d, d + 1), dtype=complex)
        for j in range(d + 1):
            image[j:j + width] += cleared.T @ powers[:, j, :]
        nonzero = np.flatnonzero(np.any(image != 0, axis=1))
        rows = (nonzero[-1] if len(nonzero) else 0) + 1
        A, b = image[:rows, :d], -image[:rows, d]
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        resid = float(np.linalg.norm(A @ x - b))
        scale = max(1.0, float(np.max(np.abs(image[:rows]))))
        if resid > tol.kernel_fit * scale * rows:
            raise ValueError("no quasi-exponential kernel of prescribed degrees")
        coeff_lists.append([complex(x[j]) * unit ** (d - j) for j in range(d)] + [1.0 + 0j])
    return QuasiExpSpace(tuple(to_complex(k) for k in spec.exponents), tuple(Poly(c) for c in coeff_lists))


def spectrum_analysis(op: BetheOperator, tol: Tolerances = None, seed: int = 2024) -> SpectrumReport:
    """Full pipeline: diagonalize, build eigen-operators, recover kernels, test."""
    report = joint_diagonalize(op, tol, seed)
    for ch in report.characters:
        G = character_to_operator(ch, op)
        report.operators.append(G)
        try:
            X = kernel_from_operator(G, op.spec, tol)
            report.kernels.append(X)
        except ValueError as exc:
            report.kernels.append(None)
            report.memberships.append(f"kernel recovery failed: {exc}")
            continue
        report.memberships.append(membership_test(cleared_operator_polys(X), op.spec, tol=1e-6))
    return report
