import math
import pathlib
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gaudin import spectral
from gaudin.algebra import ModuleSpec
from gaudin.betheop import build_bethe_operator, eigenvector_points, exact_sample_points
from gaudin.harness import InstanceConfig, spectrum_pipeline
from gaudin.linalg import MatrixPoly
from gaudin.polynomials import Poly
from gaudin.scalars import to_complex
from gaudin.spaces import QuasiExpSpace
from gaudin.spectral import (
    KERNEL_FAILURE,
    Tolerances,
    _cluster_margin,
    character_to_operator,
    joint_diagonalize,
    kernel_from_operator,
    spectrum_analysis,
)

from conftest import COUNT_FAMILY, GOLDEN, JORDAN, make_spec, mutant_operator, random_exact_space
from oracles import (
    _refine_eigenpair_loop,
    cleared_operator_polys,
    kernel_spaces,
    membership_checks_by_point,
    report_kernels,
    space_stack,
    spectral_stage_loop,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


def test_sample_points_skip_poles():
    """Spectral sampling starts at 13 and skips points that are poles."""
    spec = ModuleSpec(2, ("0", "13"), ((1,), (1,)), ("0", "13"), (1, 1))
    pts = exact_sample_points(spec.points, 3, start=13)
    assert pts == [F(14), F(15), F(16)]


def test_rank_one_character():
    spec = ModuleSpec(1, ("2",), ((1,),), ("0",), (1,))
    op = build_bethe_operator(spec)
    report = joint_diagonalize(op)
    assert report.count == 1
    G = [Poly(g) for g in character_to_operator(report.numerators, op)[0]]
    for pt in (5.0, 9.0):
        expect = -2 - 1 / pt
        assert abs(G[1](pt) / G[0](pt) - expect) < 1e-10


def test_golden_instance_two_characters(golden_op):
    report = joint_diagonalize(golden_op)
    assert report.count == 2
    assert report.diagonalizable
    assert np.all(report.cluster_sizes == 1)
    assert np.all(report.residuals < 1e-9)


def test_determinism(golden_op):
    a = joint_diagonalize(golden_op, seed=7)
    b = joint_diagonalize(golden_op, seed=7)
    assert a.count == b.count
    assert np.allclose(a.characters, b.characters)
    assert np.array_equal(a.numerators, b.numerators)


def test_trace_identity_on_characters(golden_op):
    """h_1 is the same universal function on every character."""
    report = spectrum_analysis(golden_op)
    for G in report.operators:
        G = [Poly(g) for g in G]
        for pt in (4.0, 6.0):
            expect = -(0 + 1) - (1 / pt + 1 / (pt - 1))
            assert abs(G[1](pt) / G[0](pt) - expect) < 1e-9


def _scaled_space(X, c):
    """The functions c^d f(u / c) for f in X: exponents K / c, monic parts c^d p(u / c)."""
    polys = [Poly([a * c ** (p.degree - j) for j, a in enumerate(p.coeffs)]) for p in X.polys]
    return QuasiExpSpace(tuple(k / c for k in X.exponents), tuple(polys))


def test_kernel_round_trip_random():
    """The kernel of a space's cleared operator is the space, coefficient by
    coefficient, relative to the largest coefficient of its part; also where
    the gap unit of the points is 1000 or 1/1000."""
    cases = [
        (2, ("0", "1"), ((2, 1), (1, 0)), ("0", "1"), (2, 2), 1),
        (3, ("0", "1", "2"), ((1,),) * 4, ("0", "1", "2", "3"), (2, 1, 1), 1),
        # the instances (0, 1/2) and (0, 1) at b = (0, 1), rescaled by 1000 and 1/1000
        (2, ("0", "1/2000"), ((2, 1), (1, 0)), ("0", "1000"), (2, 2), 1000),
        (2, ("0", "1000"), ((2, 1), (1, 0)), ("0", "1/1000"), (2, 2), F(1, 1000)),
    ]
    for N, K, partitions, b, lam, scale in cases:
        rng = random.Random(21)
        spec = ModuleSpec(N, K, partitions, b, lam)
        for _ in range(3):
            X = random_exact_space(N, tuple(k * scale for k in spec.exponents), lam, rng)
            X = _scaled_space(X, scale)
            Y, = kernel_spaces(kernel_from_operator(space_stack(X), spec)[0], spec)
            for p, q in zip(X.polys, Y.polys):
                size = max(abs(complex(c)) for c in p.coeffs)
                for k in range(max(p.degree, q.degree) + 1):
                    assert abs(complex(p.coeff(k)) - complex(q.coeff(k))) < 1e-12 * size


def test_kernel_first_order():
    spec = ModuleSpec(1, ("3",), ((1,),), ("2",), (1,))
    op = build_bethe_operator(spec)
    report = spectrum_analysis(op)
    X = report_kernels(report, spec)[0]
    assert X is not None
    # kernel must be e^{3u}(u - 2)
    assert abs(complex(X.polys[0].coeff(0)) + 2) < 1e-10


def test_spectrum_memberships(golden_op):
    characters = spectrum_pipeline(InstanceConfig(golden_op.spec))["characters"]
    assert len(characters) == 2 and all(entry["membership"] for entry in characters)


def test_maximal_commutativity_proxy(golden_op):
    """Products of coefficient values act with full rank on a cyclic vector."""
    pts = exact_sample_points(golden_op.spec.points, 2, start=13)
    mats = [
        golden_op.block_evaluate(i, [pt])[0].to_complex(1)[0]
        for i in (1, 2)
        for pt in pts
    ]
    v = np.ones(mats[0].shape[0], dtype=complex)
    span = [v] + [m @ v for m in mats] + [m1 @ (m2 @ v) for m1 in mats for m2 in mats]
    rank = np.linalg.matrix_rank(np.array(span))
    assert rank == mats[0].shape[0]


@pytest.mark.parametrize("seed", [2024, 1, 7])
def test_jordan_block_is_one_non_simple_character(seed):
    """On a non-semisimple block the generalized eigenspace holds a single
    eigenvector: one character, flagged, and the action not diagonalizable."""
    report = joint_diagonalize(build_bethe_operator(make_spec(JORDAN)), seed=seed)
    assert report.diagonalizable is False
    assert report.count == 1
    assert report.cluster_sizes.tolist() == [2]


def _doubled(op):
    """A stand-in for op on the direct sum of two copies of its (real) block: every cleared A_i becomes
    diag(A_i, A_i), and the module stub's weight block has dimension 2d."""
    d = op.dim

    def double(a):
        assert a.im is None
        re = np.zeros((len(a.re), 2 * d, 2 * d), dtype=a.re.dtype)
        re[:, :d, :d] = re[:, d:, d:] = a.re
        return MatrixPoly(re, den=a.den)

    return SimpleNamespace(spec=op.spec, cleared=[double(a) for a in op.cleared],
                           module=SimpleNamespace(weight_indices=lambda weight: range(2 * d)))


@pytest.mark.parametrize("seed", [2024, 1, 2])
@pytest.mark.parametrize("data", [GOLDEN, COUNT_FAMILY[0]], ids=["golden", "bae-real"])
def test_doubled_block_splits_every_cluster_in_two(data, seed):
    """On two copies of a block every joint eigenvalue is double: each cluster is split inside its
    two-dimensional eigenspace into two orthogonal characters, both with the block's numerators."""
    op = build_bethe_operator(make_spec(data))
    single = joint_diagonalize(op, seed=seed)
    report = joint_diagonalize(_doubled(op), seed=seed)
    assert report.count == 2 * op.dim
    assert report.cluster_sizes.tolist() == [2] * (2 * op.dim)
    assert report.diagonalizable and report.counters["clusters"] == op.dim
    assert report.counters["gates"]["joint_residual"]["measured"] <= 1e-12
    for k in range(op.dim):
        assert abs(np.vdot(report.characters[2 * k], report.characters[2 * k + 1])) <= 1e-8
        for nums in report.numerators[2 * k:2 * k + 2]:
            assert _relative(nums, single.numerators[k]) <= 1e-9


def test_dedup_tolerance_reaches_the_cluster_split():
    """The duplicate-vector test inside a cluster reads the config's ``dedup``: at 1 every pair of
    vectors counts as one, so each double cluster of the doubled block keeps one character, and the
    action is reported as not diagonalizable."""
    op = build_bethe_operator(make_spec(GOLDEN))
    report = joint_diagonalize(_doubled(op), Tolerances(dedup=1.0))
    assert report.count == op.dim and report.cluster_sizes.tolist() == [2] * op.dim
    assert not report.diagonalizable
    assert joint_diagonalize(_doubled(op), Tolerances(dedup=1e-8)).count == 2 * op.dim


def test_degenerate_weight_block():
    # weight (2,0) of V x V is one-dimensional; a single trivial character
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (2, 0))
    op = build_bethe_operator(spec)
    report = joint_diagonalize(op)
    assert report.count == 1


@pytest.mark.parametrize("data", [GOLDEN] + COUNT_FAMILY, ids=["golden", "count-0", "count-1", "count-2"])
def test_eigen_operator_is_cleared_operator_of_its_kernel(data):
    """Both sides give one operator: each character's [P, P h_1, ..., P h_N]
    equals ``cleared_operator_polys`` of its recovered kernel, coefficient by
    coefficient, relative to the larger coefficient of the two polynomials."""
    spec = make_spec(data)
    report = spectrum_analysis(build_bethe_operator(spec))
    kernels = report_kernels(report, spec)
    assert report.count == len(kernels) > 0
    for G, X in zip(report.operators, kernels):
        assert X is not None
        G, H = [Poly(g) for g in G], cleared_operator_polys(X)
        assert len(G) == len(H) == spec.rank + 1
        for g, h in zip(G, H):
            top = max(g.degree, h.degree)
            scale = max(abs(complex(c)) for c in g.coeffs + h.coeffs)
            for k in range(top + 1):
                assert abs(complex(g.coeff(k)) - complex(h.coeff(k))) <= 1e-9 * scale


# N=2, K=(0,1/2), b=0..7, lambda=(4,4): 256 -> 70 characters
WIDE = {"N": 2, "K": ("0", "1/2"), "partitions": ((1,),) * 8, "b": tuple(str(i) for i in range(8)),
        "weight": (4, 4)}


def _stage_cases():
    cases = [pytest.param(InstanceConfig.from_file(path), id=path.stem) for path in sorted(FIXTURES.glob("*.json"))]
    return cases + [pytest.param(InstanceConfig(make_spec(data)), id=name)
                    for name, data in (("wide-n2", WIDE), ("jordan", JORDAN))]


def _relative(x, y) -> float:
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return float(np.abs(x - y).max(initial=0.0) / max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0), 1e-300))


def _coefficients(p: Poly, size: int) -> list:
    return [complex(p.coeff(k)) for k in range(size)]


@pytest.mark.parametrize("config", _stage_cases())
def test_stacked_stage_matches_the_loop(config):
    """The stacked spectral stage against the loop that takes one character
    at a time: the same characters in the same order, the same failed
    fits, and vectors, numerators, values at the eigenvector points,
    kernels and their G_0 within 1e-9 relative.  Each character's
    membership checks in the report are those the block's exact facts
    decide, from the point-by-point references, where its fit passed."""
    op = build_bethe_operator(config.spec)
    stacked = spectrum_analysis(op, config.tolerances, config.seed)
    loop = spectral_stage_loop(op, config.tolerances, config.seed)
    entries = spectrum_pipeline(config)["characters"]
    decided = membership_checks_by_point(op)
    assert stacked.count == loop.count > 0
    assert stacked.diagonalizable == loop.diagonalizable
    assert stacked.cluster_sizes.tolist() == [b.cluster_size for b in loop.characters]
    points = [(complex(x), to_complex(config.spec.pole_polynomial()(x))) for x in eigenvector_points(config.spec)]
    for vector, numerators, values, b in zip(stacked.characters, stacked.numerators, stacked.values, loop.characters):
        assert _relative(vector, b.vector) <= 1e-9
        assert _relative(numerators, b.numerators) <= 1e-9
        assert _relative(values, [b.values(z, pz) for z, pz in points]) <= 1e-9
    assert len(entries) == stacked.count
    for X, Y, entry in zip(report_kernels(stacked, config.spec), loop.kernels, entries):
        assert (X is None) == (Y is None)
        if X is None:
            assert entry["membership_error"] == KERNEL_FAILURE and not entry["membership"]
            continue
        for p, q in zip(X.polys, Y.polys):
            size = max(p.degree, q.degree) + 1
            assert _relative(_coefficients(p, size), _coefficients(q, size)) <= 1e-9
        g, h = cleared_operator_polys(X)[0], cleared_operator_polys(Y)[0]
        size = max(g.degree, h.degree) + 1
        assert _relative(_coefficients(g, size), _coefficients(h, size)) <= 1e-9
        assert [(c["name"], c["passed"]) for c in entry["membership_checks"]] == decided
        assert entry["membership"] == all(passed for _, passed in decided)


@pytest.fixture(scope="module")
def wide_op():
    return build_bethe_operator(make_spec(WIDE))


@pytest.mark.parametrize("seed", [58, 112, 22])
def test_near_equal_eigenvalues_split_into_simple_characters(wide_op, seed):
    """At these seeds the combination on the 70-dimensional WIDE block has one
    pair of eigenvalues within 10 ``cluster`` max(|T|, 1): the pair is split
    inside its own subspace into two simple characters, every check of the
    spectrum stage passes, and the numerators, which do not depend on the
    seed, equal seed 2024's within 1e-9 relative."""
    report = joint_diagonalize(wide_op, seed=seed)
    assert report.count == 70 and report.diagonalizable and report.counters["clusters"] == 1
    assert report.cluster_sizes.tolist() == [1] * 70
    assert _relative(report.numerators, joint_diagonalize(wide_op, seed=2024).numerators) <= 1e-9
    config = InstanceConfig(make_spec(WIDE), seed=seed)
    assert all(c.passed for c in spectrum_pipeline(config)["checks"])


def test_one_failed_kernel_fit_marks_only_its_character(monkeypatch):
    """Numerators perturbed on one character make its kernel fit fail: that
    character alone reports the failure, the others keep their memberships."""
    config = InstanceConfig(make_spec(COUNT_FAMILY[0]))
    op = build_bethe_operator(config.spec)
    clean, clean_entries = spectrum_analysis(op), spectrum_pipeline(config)["characters"]
    diagonalize = spectral.joint_diagonalize

    def perturbed(*args):
        report = diagonalize(*args)
        report.numerators[2, -1, 0] += 1.0
        return report

    monkeypatch.setattr(spectral, "joint_diagonalize", perturbed)
    report, entries = spectrum_analysis(op), spectrum_pipeline(config)["characters"]
    assert report.count == clean.count == len(entries) == 6
    assert [X is None for X in report_kernels(report, op.spec)] == [False, False, True, False, False, False]
    assert entries[2]["membership_error"] == KERNEL_FAILURE == (
        "kernel recovery failed: no quasi-exponential kernel of prescribed degrees")
    assert not entries[2]["membership"] and "membership_checks" not in entries[2]
    assert report.counters["gates"]["kernel_fit"]["measured"] > 1 >= clean.counters["gates"]["kernel_fit"]["measured"]
    for k in (0, 1, 3, 4, 5):
        assert entries[k]["membership"] and entries[k]["membership_checks"] == clean_entries[k]["membership_checks"]


def test_failed_diagonalization_message_is_the_loop_message():
    """A residual tolerance no float eigenvector meets fails the one
    combination with the message of the loop: the same limit, and a worst
    residual at roundoff level (its digits are roundoff of either
    arithmetic)."""
    op = build_bethe_operator(make_spec(GOLDEN))
    tol = Tolerances(residual=1e-30)
    messages = []
    for stage in (spectrum_analysis, spectral_stage_loop):
        with pytest.raises(RuntimeError) as info:
            stage(op, tol)
        messages.append(str(info.value))
    worst = r" \(worst ([0-9.e+-]+)\)"
    assert re.sub(worst, "", messages[0]) == re.sub(worst, "", messages[1]) == (
        "joint diagonalization failed: a simple eigenvector has a joint eigen-residual above 1.0e-28")
    assert all(0 < float(re.search(worst, m).group(1)) < 1e-14 for m in messages)


def test_wide_cluster_tolerance_gives_one_cluster_of_every_character():
    """With a cluster tolerance of 0.1 every eigenvalue of the combination on
    exact_n3 lies in one cluster, and so does every eigenvalue of the fresh
    draw inside it: six characters, each of cluster size 6, as the loop
    finds them, so eigenspaces-one-dimensional fails and every other check
    passes."""
    config = InstanceConfig.from_file(FIXTURES / "exact_n3.json")
    config.tolerances = Tolerances(cluster=0.1)
    op = build_bethe_operator(config.spec)
    report = joint_diagonalize(op, config.tolerances, config.seed)
    loop = spectral_stage_loop(op, config.tolerances, config.seed)
    assert report.count == op.dim == 6 and report.diagonalizable and report.counters["clusters"] == 1
    assert report.cluster_sizes.tolist() == [b.cluster_size for b in loop.characters] == [6] * 6
    assert report.counters["gates"]["cluster_margin"]["measured"] is None
    failed = [c.name for c in spectrum_pipeline(config)["checks"] if not c.passed]
    assert failed == ["eigenspaces-one-dimensional"]


def test_spectral_counters(golden_op):
    """The counters of a block of simple characters: no cluster split, the
    cluster margin above its threshold, every fit within its bound; without
    kernel recovery the fit gate measures nothing."""
    report = spectrum_analysis(golden_op)
    counters = report.counters
    assert counters.keys() == {"clusters", "gates"}
    assert counters["clusters"] == 0
    assert counters["gates"]["cluster_margin"]["measured"] > 10 * Tolerances().cluster
    assert 0 < counters["gates"]["kernel_fit"]["measured"] <= 1
    assert joint_diagonalize(golden_op).counters["gates"]["kernel_fit"]["measured"] is None


def test_cluster_margin_is_the_smallest_gap_between_representatives():
    eigvals = np.array([0.0, 3.0, 1.0 + 1.0j, 3.0 + 1e-9])
    assert _cluster_margin(eigvals, [[1, 3], [2]]) == pytest.approx(abs(3.0 - (1 + 1j)))
    assert _cluster_margin(eigvals, [[0], [2], [1, 3]]) == pytest.approx(abs(1 + 1j))
    assert _cluster_margin(eigvals, [[0, 1, 2, 3]]) == np.inf


# the benchmark's two workloads: N=2, K=(0,1/2), vector factors at b = 0, 1, ...
WORKLOADS = {"bae-real": COUNT_FAMILY[0],
             "eigenop-n2": {**COUNT_FAMILY[0], "partitions": ((1,),) * 5, "b": tuple("01234"), "weight": (3, 2)}}
def _bumped_bae_real():
    """bae-real with the (0, 1) entry of C_10 moved by 1e-12: a block that is not symmetric."""
    op = build_bethe_operator(make_spec(WORKLOADS["bae-real"]))
    bump = np.zeros((1, op.dim, op.dim), dtype=object)
    bump[0, 0, 1] = 1
    mutant = mutant_operator(op, 1, MatrixPoly(bump, den=10**12), op.spec.pole_polynomial())
    assert mutant.cleared[0] - op.cleared[0] == MatrixPoly(bump, den=10**12)
    assert all(a == b for a, b in zip(mutant.cleared[1:], op.cleared[1:]))
    return mutant


def _eigenvector_cases():
    cases = [pytest.param(lambda path=path: build_bethe_operator(InstanceConfig.from_file(path).spec), id=path.stem)
             for path in sorted(FIXTURES.glob("*.json"))]
    cases += [pytest.param(lambda data=data: build_bethe_operator(make_spec(data)), id=name)
              for name, data in WORKLOADS.items()]
    return cases + [pytest.param(_bumped_bae_real, id="bae-real-bumped")]


@pytest.mark.parametrize("build", _eigenvector_cases())
def test_eig_vectors_need_no_refinement(build):
    """numpy's eig vectors are used as they come on every block, symmetric or not (data over Q(i), a factor
    of higher weight, one entry moved by 1e-12): at seeds 2024, 1 and 2 their worst joint residual is at most
    1e-12, and Newton-refining each simple character against the accepted combination moves no numerator by
    more than 1e-9 relative, floor 1, the bound the report comparison uses."""
    op = build()
    mats = np.array([a.to_complex(op.spec.size + 1) for a in op.cleared])
    units = [m / np.linalg.norm(m) for m in mats.reshape(-1, *mats.shape[2:]) if np.any(m)]
    for seed in (2024, 1, 2):
        report = joint_diagonalize(op, seed=seed)
        assert report.count == op.dim
        if not op.dim:
            continue
        assert report.counters["gates"]["joint_residual"]["measured"] <= 1e-12
        assert report.counters["clusters"] == 0  # so every character is a simple eigenvector of T
        T = sum((c * u for c, u in zip(spectral._normal_draws(random.Random(seed), len(units)), units)),
                np.zeros((op.dim, op.dim), dtype=complex))
        for vector, numerators in zip(report.characters[report.cluster_sizes == 1],
                                      report.numerators[report.cluster_sizes == 1]):
            v = _refine_eigenpair_loop(T, vector.conj() @ T @ vector, vector)
            nums = spectral._numerators(v[:, None], mats)[0]
            assert np.all(np.abs(nums - numerators) <= 1e-9 * np.maximum(np.maximum(np.abs(nums), 1.0),
                                                                          np.abs(numerators)))


@pytest.mark.parametrize("seed", [2024, 1])
@pytest.mark.parametrize("gap", ["1/200", "1/2000"])
def test_small_exponent_gaps_pass_kernel_membership(gap, seed):
    """bae-real with K = (0, gap): every kernel fit passes, and so does every check of the spectrum,
    kernel-membership and each character's membership checks included."""
    config = InstanceConfig(make_spec({**COUNT_FAMILY[0], "K": ("0", gap)}), seed=seed)
    out = spectrum_pipeline(config)
    assert [c.name for c in out["checks"] if not c.passed] == []
    assert len(out["characters"]) == 6 and out["spectrum"].fits.max() <= 1
    for entry in out["characters"]:
        assert entry["membership"] and all(c["passed"] for c in entry["membership_checks"])


def _householder(w):
    """I - 2 w w^T / (w^T w) for an integer vector w: an exact orthogonal matrix of Fractions."""
    w = np.array([F(x) for x in w], dtype=object)
    return np.identity(len(w), dtype=object) - np.outer(w, w) * F(2, int(w @ w))


def _commuting_family(seed, d=6):
    """(op stand-in, x): the diagonal matrices diag(x[m]) in an exact orthogonal basis Q as the
    coefficients of A_1 and A_2 of golden's spec, x (4, d).  Characters 0 and 1 differ by 1e-3 in the first
    two matrices and agree in the others, and the second difference is set so that the combination T of
    ``joint_diagonalize`` at this seed brings their eigenvalues within 1e-12 of each other."""
    rng = random.Random(5)
    x = np.array([[rng.randint(-1000, 1000) / 1000 for _ in range(d)] for _ in range(4)])
    x[:, 1] = x[:, 0]
    x[0, 1] += 1e-3
    c = spectral._normal_draws(random.Random(seed), 4)
    for _ in range(5):  # the second difference cancels the first in T; |x[1]| barely moves with it
        x[1, 1] = x[1, 0] - c[0] * 1e-3 / np.linalg.norm(x[0]) * np.linalg.norm(x[1]) / c[1]
    x = np.array([[F(v).limit_denominator(10**15) for v in row] for row in x], dtype=object)
    Q = _householder([1, 2, 0, -1, 3, 1]) @ _householder([2, -1, 1, 0, 1, -2]) @ _householder([0, 1, -3, 1, 1, 1])
    mats = [Q @ np.diag(row) @ Q.T for row in x]
    den = math.lcm(*(v.denominator for m in mats for v in m.flat))
    coeffs = np.array([[[int(v * den) for v in row] for row in m] for m in mats], dtype=object)
    op = SimpleNamespace(spec=make_spec(GOLDEN), cleared=[MatrixPoly(coeffs[:2], den=den), MatrixPoly(coeffs[2:], den=den)],
                         module=SimpleNamespace(weight_indices=lambda weight: range(d)))
    return op, x.astype(float)


@pytest.mark.parametrize("seed", [2024, 1, 2])
def test_a_commuting_family_with_a_crowded_combination_gives_simple_characters(seed):
    """Four commuting matrices whose combination T has two eigenvalues within 1e-7 |T| of each other while
    their joint characters are 1e-3 apart: the pair is split in its own subspace, and all d characters
    come out simple, each with the numerators of one column of the diagonal values."""
    op, x = _commuting_family(seed)
    units = [m / np.linalg.norm(m) for m in np.array([a.to_complex(op.spec.size + 1) for a in op.cleared]).reshape(-1, 6, 6)
             if np.any(m)]
    T = sum(c * u for c, u in zip(spectral._normal_draws(random.Random(seed), len(units)), units))
    eigvals = np.sort(np.linalg.eigvalsh(T.real))
    assert np.diff(eigvals).min() < 1e-7 * np.linalg.norm(T)
    report = joint_diagonalize(op, seed=seed)
    assert report.count == 6 and report.diagonalizable and report.counters["clusters"] == 1
    assert report.cluster_sizes.tolist() == [1] * 6
    numerators = report.numerators[:, :, :2].real.reshape(6, 4)  # (C_10, C_11, C_20, C_21) per character
    assert sorted(map(tuple, np.round(numerators, 9))) == sorted(map(tuple, np.round(x.T, 9)))
