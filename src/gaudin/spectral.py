"""Simultaneous diagonalization of the Bethe operator and kernel recovery.

Construction stays exact.  On the target weight block each coefficient is
B_i(u) = A_i(u) / P(u), where P = prod_s (u - b_s)^{n_s} and A_i is an exact
matrix polynomial of degree at most n (``BetheOperator.cleared``).  The
coefficient matrices C_ij of the A_i commute and share their joint
eigenvectors with the B_i, so this module converts them to complex floats,
diagonalizes a seeded generic combination, and reads every eigenvalue
function straight from them: h_i = (sum_j v* C_ij v u^j) / P for the unit
joint eigenvector v.  Nothing is sampled or interpolated, and numpy's
``eig`` vectors are used as they come, on every block.  Each eigen-operator
is kept cleared, as [G_0, ..., G_N] = [P, P h_1, ..., P h_N] for
sum_i G_i (d/du)^{N-i}, the form ``spaces.cleared_operators`` gives a space
of quasi-exponentials; its quasi-exponential kernel is fitted last.  Every
step takes all characters of the block at once, one array per quantity.
A fitted kernel's membership is read from exact identities of the block
(``harness.membership_checks``), not tested again in floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import ModuleSpec
from .bae import gap_unit
from .betheop import BetheOperator, eigenvector_points
from .scalars import to_complex
# membership_test is not called here: perfbench/child.py traces calls under its name in this module
from .spaces import membership_test, shifted_derivatives  # noqa: F401


@dataclass
class Tolerances:
    """The float tolerances of a run: the config's ``tolerances`` object, parsed by ``harness``.
    Eigenvalues of a combination T within 10 ``cluster`` max(|T|, 1) of each other form one cluster."""

    residual: float = 1e-9
    cluster: float = 1e-7
    dedup: float = 1e-8
    kernel_fit: float = 1e-8
    equations: float = 1e-10


@dataclass
class SpectrumReport:
    """The characters of a block, one row per character in every array."""

    characters: np.ndarray  # (characters, dim): the unit joint eigenvectors
    numerators: np.ndarray  # (characters, N, n + 1): v* C_ij v, the u^j coefficient of P h_i
    values: np.ndarray  # (characters, points, N): h_i at the eigenvector_points, see character_values
    residuals: np.ndarray  # (characters,): the worst joint eigen-residual
    cluster_sizes: np.ndarray  # (characters,): 1 for a simple character, see _refine_cluster
    diagonalizable: bool
    operators: np.ndarray = None  # (characters, N + 1, n + 1): [G_0, ..., G_N] per character, G_0 = P
    kernels: list = field(default_factory=list)  # per exponent i, (characters, lam_i + 1): p_i, ascending
    fits: np.ndarray = None  # (characters,): the kernel fit over its bound, above 1 where no kernel was found
    counters: dict = field(default_factory=dict)  # see joint_diagonalize and spectrum_analysis

    @property
    def count(self) -> int:
        return len(self.characters)


def character_values(numerators, spec: ModuleSpec) -> np.ndarray:
    """h_i at every :func:`eigenvector_points`, from the numerators P h_i (characters, N, n + 1):
    (characters, points, N).  P, of degree n, and the numerators are evaluated on one table of powers."""
    powers = np.vander([complex(x) for x in eigenvector_points(spec)], spec.size + 1, increasing=True)
    powers = powers / (powers @ spec.complex_pole_polynomial().coeffs)[:, None]
    return np.swapaxes(numerators @ powers.T, 1, 2)


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
    """The smallest distance between two cluster representatives."""
    reps = eigvals[[c[0] for c in clusters]]
    return np.abs(reps[:, None] - reps[None, :])[np.triu_indices(len(reps), 1)].min(initial=np.inf)


def joint_diagonalize(op: BetheOperator, tol: Tolerances = None, seed: int = 2024) -> SpectrumReport:
    """The characters of the block: one row per joint eigenvector of its coefficients.

    One generic real combination T of the coefficient matrices C_ij, each
    scaled to unit norm, is diagonalized; its coefficients are standard
    normal draws of ``random.Random(seed)``.  The scaling makes T the same
    for the rescaled instance (cK, b/c), whose C_ij differ only by powers
    of c.  Eigenvalues of T within 10 ``cluster`` max(|T|, 1) of each other
    form a cluster.  The ``eig`` vectors of the simple ones are taken as
    they come and checked against every C_ij in one stacked pass; a joint
    eigen-residual above 100 ``residual`` raises RuntimeError.  Every other
    cluster is split inside its generalized eigenspace by
    :func:`_refine_cluster`, in order, each with its own draws; one that
    yields fewer vectors than its size makes the action not diagonalizable.
    Characters are sorted by (h_1, h_N) at the first of the
    :func:`eigenvector_points`, each rounded to 6 places.

    ``counters["clusters"]`` counts the clusters split.  ``counters["gates"]``
    reports each float gate: the worst joint eigen-residual against 100
    ``residual``; the cluster margin, the smallest gap between the clusters
    of T relative to max(|T|, 1), against 10 ``cluster`` (null for one
    cluster); and the worst kernel fit over its bound against 1 (set by
    ``spectrum_analysis``), null where it did not run.
    """
    tol = tol or Tolerances()
    spec = op.spec
    dim = len(op.module.weight_indices(spec.weight))
    limit, rule = tol.residual * 100, tol.cluster * 10
    counters = {"clusters": 0, "gates": {
        "joint_residual": gate(None, limit), "cluster_margin": gate(None, rule), "kernel_fit": gate(None, 1.0)}}
    if dim == 0:
        nums = np.zeros((0, spec.rank, spec.size + 1), dtype=complex)
        return SpectrumReport(np.zeros((0, 0), dtype=complex), nums, character_values(nums, spec), np.zeros(0),
                              np.zeros(0, dtype=int), True, counters=counters)
    mats = np.array([a.to_complex(spec.size + 1) for a in op.cleared])  # C_ij as (N, n + 1, dim, dim)
    units = np.array([m / np.linalg.norm(m) for m in mats.reshape(-1, dim, dim) if np.any(m)]).reshape(-1, dim, dim)

    rng = random.Random(seed)
    T = sum((c * u for c, u in zip(_normal_draws(rng, len(units)), units)), np.zeros((dim, dim), dtype=complex))
    eigvals, eigvecs = np.linalg.eig(T)
    tscale = max(np.linalg.norm(T), 1.0)
    clusters = _cluster(eigvals, rule * tscale)
    V = eigvecs[:, [c[0] for c in clusters if len(c) == 1]]  # eig's unit vectors of the simple clusters
    residuals = _joint_residual(V, units)
    if np.any(residuals > limit):
        raise RuntimeError(f"joint diagonalization failed: a simple eigenvector has a joint eigen-residual "
                           f"above {limit:.1e} (worst {residuals.max():.1e})")
    checked = iter(zip(V.T, residuals))
    found, diagonalizable = [], True  # (vector, residual, cluster size) per character
    for cluster in clusters:
        size = len(cluster)
        if size == 1:
            found.append((*next(checked), 1))
            continue
        # near-equal eigenvalues: work inside their generalized eigenspace, the last size right singular vectors
        counters["clusters"] += 1
        _, _, vh = np.linalg.svd(np.linalg.matrix_power(T - np.mean(eigvals[cluster]) * np.eye(dim), size))
        q, _ = np.linalg.qr(vh[dim - size:].conj().T)
        common = _refine_cluster(q, units, tol, rng)
        found += common
        diagonalizable = diagonalizable and len(common) == size
    vectors = np.array([v for v, _, _ in found]).reshape(-1, dim)
    residuals = np.array([res for _, res, _ in found], dtype=float)
    sizes = np.array([size for _, _, size in found], dtype=int)
    nums = _numerators(vectors.T, mats)
    values = character_values(nums, spec)
    # (h_1, h_N) at the first point, rounded by Python's round
    keys = [[(round(h.real, 6), round(h.imag, 6)) for h in row] for row in values[:, 0, [0, -1]].tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    counters["gates"].update(joint_residual=gate(max(residuals.tolist(), default=None), limit),
                             cluster_margin=gate(float(_cluster_margin(eigvals, clusters) / tscale), rule, floor=True))
    return SpectrumReport(vectors[order], nums[order], values[order], residuals[order], sizes[order],
                          diagonalizable, counters=counters)


def gate(measured, tolerance: float, floor: bool = False) -> dict:
    """{measured, tolerance, margin} of a float gate that passes below (above, with ``floor``) its tolerance:
    a positive margin passes, and a measurement that is None or not finite reads null."""
    if measured is None or not np.isfinite(measured):
        return {"measured": None, "tolerance": tolerance, "margin": None}
    margin = measured - tolerance if floor else tolerance - measured
    return {"measured": measured, "tolerance": tolerance, "margin": margin}


def _numerators(V, mats):
    """(characters, N, n + 1): v* C_ij v for every unit column v of V and every C_ij in mats (N, n + 1, dim, dim)."""
    return np.einsum("ak,ijak->kij", V.conj(), mats @ V)


def _joint_residual(V, units):
    """For each unit column v of V, its worst eigen-residual |U v - (v* U v) v| over the unit-norm matrices U."""
    UV = units @ V
    h = np.einsum("ik,uik->uk", V.conj(), UV)
    return np.linalg.norm(UV - h[:, None, :] * V, axis=1).max(axis=0, initial=0.0)


def _normal_draws(rng: random.Random, count: int) -> list:
    """count standard normal draws from the standard library's generator, which
    the Bethe-root search uses too: no pass loads numpy.random (a 15 ms import)."""
    return [rng.gauss(0.0, 1.0) for _ in range(count)]


def _refine_cluster(q, units, tol: Tolerances, rng):
    """Common eigenvectors of the coefficients restricted to a subspace: (vector, residual, cluster size) each.

    A fresh combination R of the coefficients restricted to the subspace is
    diagonalized.  A vector within 100 ``tol.residual`` of a joint
    eigenvector is kept unless its overlap with one already kept is within
    ``tol.dedup`` of 1; its cluster size is the number of eigenvalues of R
    within 10 ``tol.cluster`` max(|R|, 1) of its own, 1 where R separates
    what the first combination only brought close together.
    """
    R = sum(c * (q.conj().T @ u @ q) for c, u in zip(_normal_draws(rng, len(units)), units))
    vals, vecs = np.linalg.eig(R)
    sizes = (np.abs(vals[:, None] - vals) <= 10 * tol.cluster * max(np.linalg.norm(R), 1.0)).sum(axis=1)
    V = q @ vecs
    V = V / np.linalg.norm(V, axis=0)
    res = _joint_residual(V, units)
    found = []
    for k in np.flatnonzero(res <= tol.residual * 100):
        if all(np.abs(np.vdot(u, V[:, k])) < 1 - tol.dedup for u, _, _ in found):
            found.append((V[:, k], res[k], int(sizes[k])))
    return found


def character_to_operator(numerators, op: BetheOperator) -> np.ndarray:
    """The eigen-operators in cleared form, one per character: (characters, N + 1, n + 1).

    Row 0 is the pole polynomial P = prod (u - b_s)^{n_s} and rows 1..N the
    character's numerators P h_i (a ``SpectrumReport.numerators`` row), left unreduced.
    """
    pole = np.broadcast_to(op.spec.complex_pole_polynomial().coeffs, (len(numerators), 1, op.spec.size + 1))
    return np.concatenate([pole, numerators], axis=1)


def kernel_from_operator(Gs, spec: ModuleSpec, tol: Tolerances = None) -> tuple:
    """Quasi-exponential kernels with exponents K and degrees lam, one per cleared operator.

    Each G = [G_0, ..., G_N] of the array Gs (operators, N + 1, width),
    exact or complex (such as :func:`character_to_operator` gives), is
    sum_i G_i (d/du)^{N-i}.  For each i the ansatz
    e^{K_i u}(u^{lam_i} + sum_j x_j u^{lam_i - j}) turns it into a linear
    system; the least-squares residual must stay below
    ``tol.kernel_fit``, otherwise there is no kernel of the prescribed shape.
    The system is solved in units of s = :func:`gap_unit` of the points, as
    the root search is: with u = s v the operator sum_k c_k(u) (d/du)^k
    becomes sum_k c_k(s v) s^-k (d/dv)^k with exponents s K, and its kernel
    part p~ gives p(u) = s^d p~(u / s).  On coefficient vectors of degree
    at most d, (kappa + d/dv) is the (d+1) x (d+1) matrix kappa I + D, so
    the column of v^m is sum_k c_k * (kappa I + D)^k e_m, a convolution.

    All operators are solved together: per exponent one contraction gives
    every image and one stacked pseudo-inverse every least-squares fit.
    Each fit keeps its own rows (up to its last nonzero one), scale and
    bound.  Returns (kernels, fits): kernels[i] (operators, lam_i + 1) holds
    the monic p_i; fits[c], the largest residual of G c over its bound, is
    above 1 when G c has no kernel.
    """
    tol = tol or Tolerances()
    N = spec.rank
    lam = spec.weight.padded(N)
    unit = gap_unit(spec.points)
    # row k of operator c: the coefficients of c_k(s v) s^-k, which multiplies (d/dv)^k
    width = Gs.shape[-1]
    cleared = Gs[:, ::-1].astype(complex) * unit ** (np.arange(width) - np.arange(N + 1)[:, None])
    fits = np.zeros(len(Gs))
    polys = []
    for i in range(N):
        kexp = unit * to_complex(spec.exponents[i])
        d = lam[i]
        # parts[c, j, r, m] = sum_k c_k[r] times the v^j coefficient of (kappa + d/dv)^k v^m,
        # which lands in row r + j, column m of the image of operator c
        powers = shifted_derivatives(kexp, np.eye(d + 1, dtype=complex), N)  # [m, k, j]
        parts = np.swapaxes(cleared, 1, 2)[:, None] @ powers.transpose(2, 1, 0)
        image = np.zeros((len(Gs), width + d, d + 1), dtype=complex)
        for j in range(d + 1):
            image[:, j:j + width] += parts[:, j]
        nonzero = np.any(image != 0, axis=2)
        rows = np.where(nonzero.any(axis=1), width + d - np.argmax(nonzero[:, ::-1], axis=1), 1)
        A, b = image[:, :, :d], -image[:, :, d, None]
        # numpy's lstsq cut-off for each fit of its own rows x d system
        x = np.linalg.pinv(A, rcond=np.finfo(float).eps * np.maximum(rows, d)) @ b
        resid = np.linalg.norm(A @ x - b, axis=(1, 2))
        bound = tol.kernel_fit * np.maximum(1.0, np.abs(image).max(axis=(1, 2))) * rows
        fits = np.maximum(fits, resid / bound)
        polys.append(np.concatenate([x[:, :, 0] * unit ** (d - np.arange(d)), np.ones((len(Gs), 1))], axis=1))
    return polys, fits


KERNEL_FAILURE = "kernel recovery failed: no quasi-exponential kernel of prescribed degrees"


def spectrum_analysis(op: BetheOperator, tol: Tolerances = None, seed: int = 2024) -> SpectrumReport:
    """Full pipeline: diagonalize, build eigen-operators, recover kernels.

    Each step takes all characters at once; ``fits`` above 1 marks a failed
    fit, of its own character only.  ``counters["gates"]["kernel_fit"]``
    measures the largest least-squares residual over its bound.
    """
    tol = tol or Tolerances()
    report = joint_diagonalize(op, tol, seed)
    report.operators = character_to_operator(report.numerators, op)
    report.kernels, report.fits = kernel_from_operator(report.operators, op.spec, tol)
    report.counters["gates"]["kernel_fit"] = gate(max(report.fits.tolist(), default=None), 1.0)
    return report
