import math
import pathlib
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin import bae, betheop
from gaudin.algebra import ModuleSpec, build_embedded_module, enumerate_indices, enumerate_weight_basis
from gaudin.bae import (
    _DAMPS,
    COLLAPSE_RADIUS,
    MAX_ITER,
    NEWTON_CHUNK,
    RESIDUAL_TOL,
    SAME_REAL,
    STALL_WINDOW,
    BetheEquations,
    NonGenericError,
    _solve,
    bae_residual,
    damped_newton,
    factorized_values,
    gap_unit,
    level_order,
    level_profile,
    level_slices,
    newton_solve,
    root_coordinates_from_space,
    verify_eigenvector,
    weight_function,
)
from gaudin.betheop import build_bethe_operator, eigenvector_points
from gaudin.harness import InstanceConfig, verify_pipeline
from gaudin.polynomials import Poly
from gaudin.scalars import GaussianRational, to_complex
from gaudin.spaces import QuasiExpSpace, membership_test

from conftest import COUNT_FAMILY, GOLDEN, JORDAN, make_spec, weight_function_by_index
from oracles import (
    bae_residual_by_root,
    char_at_infinity,
    eigenvector_check_loop,
    factorized_operator,
    verify_eigenvector_by_solution,
    report_kernels,
    solution_levels,
    space_stack,
    weight_function_by_bijections,
)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_level_profile():
    assert level_profile((2, 2), 2) == (4, 2)
    assert level_profile((1, 1, 1), 3) == (3, 2, 1)
    assert level_profile((3,), 2) == (3, 0)
    assert level_profile((1, 0, 1), 3) == (2, 1, 1)


def test_residual_golden_quadratic():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    for root in ((3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2):
        res = bae_residual([[complex(root)]], spec)
        assert res.shape == (1, 1) and np.abs(res).max() <= 1e-12


def test_residual_trivial_highest_weight():
    """The highest weight has no upper roots: one solution, no equations."""
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (2, 0))
    assert bae_residual(np.zeros((1, 0)), spec).shape == (1, 0)


def test_equations_without_upper_roots_give_an_empty_residual():
    eqs = BetheEquations([0.0, 1.0, 2.0], [0.0, 0.5], (0,))
    X = np.zeros((2, 0), dtype=complex)
    R, inv, ok = eqs.residual(X)
    assert R.shape == (2, 0) and inv.shape == (2, 0) and ok.all()
    assert eqs.generic(X, 1e-8).all()


def test_residual_rejects_coincident():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    with pytest.raises(NonGenericError):
        bae_residual([[0.0]], spec)


@pytest.mark.parametrize("level2", [(5.0, 5.0), (3.0, 2.5)], ids=["within-level-2", "level-2-on-level-1"])
def test_residual_rejects_coincident_roots_at_level_two(level2):
    """N = 3: two equal level-2 roots, or a level-2 root on a level-1 root,
    make the batch non-generic, even when the other rows are generic."""
    spec = ModuleSpec(3, ("0", "1/2", "3/2"), ((1,),) * 6, ("0", "1", "2", "4", "7", "9"), (2, 2, 2))
    good = [0.5, 2.5, 3.0, 5.5, 1.5, 6.0]
    bad = good[:4] + list(level2)
    assert np.isfinite(bae_residual([good], spec)).all()
    with pytest.raises(NonGenericError):
        bae_residual([good, bad], spec)


def test_newton_solve_golden_roots():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    sols = newton_solve(spec, seed=2024)
    assert len(sols) == 2
    got = sorted(z.real for z in sols.roots[:, 0])
    expect = sorted([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert all(abs(a - b) <= 1e-10 for a, b in zip(got, expect))


def test_newton_solve_trivial():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,), (1,)), ("0", "1", "2"), (3, 0))
    sols = newton_solve(spec, seed=1)
    assert len(sols) == 1
    assert sols.roots.shape == (1, 0)


def test_newton_requires_simple_points():
    spec = ModuleSpec(2, ("0", "1"), ((2, 0),), ("0",), (1, 1))
    with pytest.raises(ValueError):
        newton_solve(spec)


def _h(D, i, pt):
    """h_i(pt) of the monic factorized operator D of order N."""
    N = len(D.nums) - 1
    return D.nums[N - i](pt) / D.p1(pt) ** D.m


def test_factorized_operator_rank_one():
    D = factorized_operator([(F(0), F(2))], (F(3),))
    for pt in (F(5), F(7)):
        assert _h(D, 0, pt) == 1
        assert _h(D, 1, pt) == -(3 + 1 / pt + 1 / (pt - 2))


@pytest.mark.parametrize(
    "levels, K, points",
    [
        ([(0, 1, 2), (5, 7), (3,)], (0, 1, F(5, 2)), (9, F(1, 2))),
        ([(0, 1, 2, 3), (5, 7, -2), (F(3, 2), 9), (F(11, 3),)], (0, 1, F(5, 2), F(9, 2)), (13, F(1, 2), -5)),
    ],
    ids=["n3", "n4"],
)
def test_factorized_values_match_exact_composition(levels, K, points):
    levels = [[F(x) for x in level] for level in levels]
    K = tuple(F(k) for k in K)
    points = [F(pt) for pt in points]
    D = factorized_operator(levels, K)
    weight = [len(a) - len(b) for a, b in zip(levels, levels[1:] + [[]])]
    spec = ModuleSpec(len(K), K, ((1,),) * len(levels[0]), levels[0], weight)
    values = factorized_values([[x for level in levels[1:] for x in level]], spec, points)[0]
    assert values.shape == (len(points), len(K))
    for pt, row in zip(points, values):
        for i in range(1, len(K) + 1):
            exact = _h(D, i, pt)
            assert abs(complex(exact) - row[i - 1]) <= 1e-9 * max(1, abs(complex(exact)))


def test_factorized_char_at_infinity():
    K = (F(0), F(1), F(5, 2))
    D = factorized_operator([(F(0), F(1), F(2)), (F(5), F(7)), (F(3),)], K)
    assert char_at_infinity(D.nums[::-1]) == Poly.from_roots(K)


def test_weight_function_homogeneity():
    """omega_J is homogeneous of degree -(sum of upper level sizes)."""
    t01, t02, t1, t2 = F(2), F(5), F(7), F(11)
    c = F(3)
    base = [(t01, t02), (t1,), (t2,)]
    scaled = [(c * t01, c * t02), (c * t1,), (c * t2,)]
    v0 = weight_function_by_index(base, 3, (1, 0, 1))
    v1 = weight_function_by_index(scaled, 3, (1, 0, 1))
    for J, val in v0.items():
        assert v1[J] == val / c**2  # l_1 + l_2 = 2 pole factors per term


def test_chi_telescoping():
    """-sum_a chi^a collapses to -sum K - sum 1/(u-b): interior levels cancel."""
    levels = [(F(0), F(1), F(2)), (F(5), F(7)), (F(3),)]
    K = (F(0), F(1), F(2))
    D = factorized_operator(levels, K)
    # h_1 = -3 - sum_b 1/(u - b) = -(3 P0 + P0') / P0 with P0 = u(u - 1)(u - 2)
    p0 = Poly.from_roots(levels[0])
    assert D.nums[2] * p0 == -(p0.scale(F(3)) + p0.derivative()) * D.p1 ** D.m


def test_root_coordinates_from_space_golden():
    root = (3 + math.sqrt(5)) / 2
    f11 = -(root - 1)  # p_1 = u + f11 with value fixed by the kernel relation
    # recover the space through the numeric pipeline instead of hand algebra
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    op = build_bethe_operator(spec)
    from gaudin.spectral import spectrum_analysis

    report = spectrum_analysis(op)
    found = []
    for X in report_kernels(report, spec):
        levels, generic = root_coordinates_from_space(X)
        assert generic
        assert [abs(z) for z in levels[0]] == sorted(abs(z) for z in levels[0])
        found.append(levels[1][0])
    got = sorted(z.real for z in found)
    expect = sorted([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert all(abs(a - b) < 1e-8 for a, b in zip(got, expect))


def test_exact_space_root_is_a_newton_solution():
    """The level-1 root of the exact point of the intersection in
    fixtures/wronski_n3.json, -1 from its trailing Wronskian, is one of the
    Bethe solutions the Newton search finds for the same instance."""
    cfg = InstanceConfig.from_file(FIXTURES / "wronski_n3.json")
    levels, generic = root_coordinates_from_space(cfg.space)
    assert generic
    assert levels[1] == [-1] and levels[2] == []
    found = newton_solve(cfg.spec, seed=2024).roots[:, 0]
    assert len(found) == 3
    assert min(abs(z - levels[1][0]) for z in found) <= 1e-9


def test_trailing_level_degree():
    X = QuasiExpSpace((F(0), F(1)), (P(0, 1), P(0, 1)))
    levels, _ = root_coordinates_from_space(X)
    # y_{N-1} = p_N has degree lam_N = 1
    assert len(levels[1]) == 1


def test_weight_function_worked_example_exact():
    rng = random.Random(17)
    for _ in range(3):
        vals = rng.sample(range(2, 40), 4)
        t01, t02, t1, t2 = (F(v) for v in vals)
        got = weight_function_by_index([(t01, t02), (t1,), (t2,)], 3, (1, 0, 1))
        expect_31 = 1 / ((t2 - t1) * (t1 - t01))
        expect_13 = 1 / ((t2 - t1) * (t1 - t02))
        assert got[(3, 1)] == expect_31
        assert got[(1, 3)] == expect_13


def test_weight_function_two_roots_on_one_level_exact():
    """With two roots on level 1 each omega_J sums over both bijections."""
    spec = ModuleSpec(2, ("0", "1/2"), ((1,),) * 4, ("0", "1", "3", "7"), (2, 2))
    t1, t2 = F(5, 2), F(-4, 3)
    b = spec.points
    vals = weight_function_by_index([b, [t1, t2]], 2, (2, 2))
    assert len(vals) == 6
    for J, value in vals.items():
        s1, s2 = [s for s, j in enumerate(J) if j == 2]
        expect = 1 / ((t1 - b[s1]) * (t2 - b[s2])) + 1 / ((t2 - b[s1]) * (t1 - b[s2]))
        assert value == expect


def test_weight_function_golden_shape():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    vals = weight_function_by_index([spec.points, [F(5)]], 2, (1, 1))
    assert vals[(2, 1)] == 1 / (F(5) - 0)
    assert vals[(1, 2)] == 1 / (F(5) - 1)


def test_weight_function_highest_weight_trivial():
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,), (1,)), ("0", "1", "2"), (3, 0))
    vals = weight_function_by_index([spec.points, []], 2, (3, 0))
    assert vals == {(1, 1, 1): 1}


def test_weight_function_permutation_invariance():
    spec = ModuleSpec(2, ("0", "1/2"), ((1,),) * 4, ("0", "1", "2", "3"), (2, 2))
    a, b = 4.5 + 0.25j, 6.0 - 1.0j
    v1 = np.array(weight_function([spec.points, [a, b]], 2, (2, 2)))
    v2 = np.array(weight_function([spec.points, [b, a]], 2, (2, 2)))
    assert np.allclose(v1, v2)
    for pt in (9.0, 11.0):
        x1 = factorized_values([[a, b]], spec, [pt])[0][0]
        x2 = factorized_values([[b, a]], spec, [pt])[0][0]
        assert np.allclose(x1, x2)


def test_verify_eigenvector_golden(golden_op):
    spec = golden_op.spec
    for row in newton_solve(spec, seed=2024).roots:
        residuals, _ = verify_eigenvector([row], spec, golden_op)
        assert residuals[0] <= 1e-10


def test_verify_eigenvector_negative_control(golden_op):
    spec = golden_op.spec
    bad = newton_solve(spec, seed=2024).roots[:1] + 0.1
    residuals, _ = verify_eigenvector(bad, spec, golden_op)
    assert residuals[0] > 1e-4


def test_stacked_eigenvector_check_matches_the_loop(golden_op):
    """On a true solution and on a perturbed one, the stacked check gives the
    per-(point, coefficient) loop's worst residual, on the same side of the tolerance."""
    spec = golden_op.spec
    sol = newton_solve(spec, seed=2024).roots[0]
    for row, passed in ((sol, True), (sol + 0.1, False)):
        residuals, values = verify_eigenvector([row], spec, golden_op)
        points = eigenvector_points(spec)
        levels = solution_levels(row, spec)
        omega = np.array(weight_function(levels, spec.rank, spec.weight.padded(spec.rank)), dtype=complex)
        worst, failures = eigenvector_check_loop(golden_op, points, values[0], omega, 1e-8)
        assert bool(residuals[0] <= 1e-8) is passed
        assert residuals[0] == pytest.approx(worst, rel=1e-12)
        assert bool(failures) is not passed


# The two benchmark workloads: bae-real is COUNT_FAMILY[0] (fixtures/count_n2_n4.json).
EIGENOP_N2 = {"N": 2, "K": ("0", "1/2"), "partitions": ((1,),) * 5, "b": ("0", "1", "2", "3", "4"), "weight": (3, 2)}
VECTOR_FACTOR_SPECS = {
    **{f.stem: s for f in sorted(FIXTURES.glob("*.json")) if (s := InstanceConfig.from_file(f).spec).all_vector_factors},
    "bae-real": make_spec(COUNT_FAMILY[0]),
    "eigenop-n2": make_spec(EIGENOP_N2),
}


@pytest.mark.parametrize("name", sorted(VECTOR_FACTOR_SPECS))
def test_weight_function_order_is_the_block_member_order(name):
    """verify_eigenvector multiplies omega, in enumerate_indices order, by
    blocks whose rows follow the module's members of the weight: the lead
    tuples of those members are the same index tuples in the same order."""
    spec = VECTOR_FACTOR_SPECS[name]
    module = build_embedded_module(spec)
    leads = [module.members[k][1] for k in module.weight_indices(spec.weight)]
    assert list(enumerate_indices(spec.rank, spec.size, spec.weight.padded(spec.rank))) == leads


@pytest.mark.parametrize("name", sorted(VECTOR_FACTOR_SPECS))
def test_stacked_reports_match_the_per_solution_path(name):
    """One verify_eigenvector call over the root set gives, solution by
    solution, the residual, values and verdict of the per-solution path;
    the negative control, a copy of the first solution with one root moved
    by a tenth of the smallest gap, fails in both."""
    spec = VECTOR_FACTOR_SPECS[name]
    op = build_bethe_operator(spec)
    sols = newton_solve(spec, seed=2024).roots
    found = len(sols)
    moved = sols.shape[1] > 0
    if moved:
        sols = np.concatenate([sols, sols[:1]])
        sols[-1, 0] += 0.1 * gap_unit(spec.points)
    residuals, values = verify_eigenvector(sols, spec, op)
    want = verify_eigenvector_by_solution(sols, spec, op, tol=1e-7)
    assert len(residuals) == len(values) == len(want) == len(sols)
    for residual, value, b in zip(residuals, values, want):
        # a true solution's residual is roundoff, about 1e-16, which no two
        # summation orders repeat to 12 digits: below 1e-14 it is compared absolutely
        assert residual == pytest.approx(b.residual, rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(value, b.values, rtol=1e-12, atol=0)
        assert bool(residual <= 1e-7) is b.passed
    assert np.all(residuals[:found] <= 1e-7)
    if moved:
        assert residuals[-1] > 1e-4


def test_verify_eigenvector_of_no_solutions_is_empty(golden_op):
    spec = golden_op.spec
    residuals, values = verify_eigenvector(np.zeros((0, 1)), spec, golden_op)
    assert residuals.shape == (0,)
    assert values.shape == (0, len(eigenvector_points(spec)), spec.rank)


def test_verify_eigenvector_refuses_a_root_on_a_point(golden_op):
    """A root set with one root on an evaluation point raises NonGenericError,
    and no RuntimeWarning is emitted on the way."""
    spec = golden_op.spec
    sols = np.concatenate([newton_solve(spec, seed=2024).roots[:1], [[0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonGenericError):
            verify_eigenvector(sols, spec, golden_op)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_weight_function_table_matches_the_sum_over_bijections(data):
    """On pairwise distinct roots with N <= 3 and weight vectors of at most 4
    boxes, omega from the table of pole chains equals the direct sum over
    the level bijections: exactly, in exact scalars, on rational and on Q(i)
    roots, and to roundoff on complex float upper roots over exact points."""
    N = data.draw(st.integers(1, 3))
    counts = tuple(data.draw(st.lists(st.integers(0, 2), min_size=N, max_size=N).filter(lambda c: sum(c) <= 4)))
    profile = level_profile(counts, N)
    kind = data.draw(st.sampled_from(["rational", "gaussian", "complex upper"]))
    fractions = st.fractions(-6, 6, max_denominator=3)
    scalar = fractions if kind == "rational" else st.builds(GaussianRational, fractions, fractions)
    roots = data.draw(st.lists(scalar, min_size=sum(profile), max_size=sum(profile), unique=True))
    if kind == "complex upper":
        roots = roots[:profile[0]] + [to_complex(x) for x in roots[profile[0]:]]
    levels = [roots[level] for level in level_slices(profile)]
    got, want = weight_function(levels, N, counts), weight_function_by_bijections(levels, N, counts)
    if kind != "complex upper" or profile[0] == len(roots):
        assert got == want
        assert not any(isinstance(w, (float, complex)) for w in got)
    else:
        got, want = np.array(got, dtype=complex), np.array([to_complex(w) for w in want])
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=1.0)


def test_conjugate_roots_sort_the_same_either_way():
    """A conjugate pair whose real parts are 1 ulp apart is ordered by its
    imaginary parts, whichever real part roundoff made the larger; roots
    farther apart than SAME_REAL go by real part."""
    x = 1.1853654834011367
    y = math.nextafter(x, 2.0)
    for lo, hi in ((x, y), (y, x)):
        upper, lower = complex(lo, 0.328), complex(hi, -0.328)
        for level in ([upper, lower], [lower, upper]):
            assert level_order(level) == [lower, upper]
    far = x * (1 + 10 * SAME_REAL)
    assert level_order([complex(far, -1.0), complex(x, 1.0)]) == [complex(x, 1.0), complex(far, -1.0)]


def test_root_order_does_not_move_with_the_seed():
    """On bae-real the seeds 2024 and 7 find the same six solutions, and
    report each, conjugate pairs included, in the same order."""
    spec = make_spec(COUNT_FAMILY[0])
    first, second = newton_solve(spec, seed=2024), newton_solve(spec, seed=7)
    assert len(first) == len(second) == 6
    assert np.allclose(first.roots, second.roots, rtol=0, atol=1e-8)


@pytest.mark.parametrize("seed", [2024, 1])
@pytest.mark.parametrize("name", ["bae-real", "gauss_n2"])
def test_the_search_returns_one_sorted_roots_array(name, seed):
    """newton_solve's length, the benchmark's solution count, is the number of
    rows of its roots array and the block dimension; a row holds
    l_1 + ... + l_{N-1} roots, every level in level_order, and the rows are
    sorted by their (real, imaginary) parts."""
    spec = VECTOR_FACTOR_SPECS[name]
    result = newton_solve(spec, seed=seed)
    roots = result.roots
    assert len(result) == len(roots) == len(enumerate_weight_basis(spec.rank, spec.size, spec.weight))
    sizes = level_profile(spec.weight, spec.rank)[1:]
    assert roots.shape[1] == sum(sizes)
    keys = [[(z.real, z.imag) for z in row] for row in roots]
    assert keys == sorted(keys)
    for row in roots:
        for level in level_slices(sizes):
            assert list(row[level]) == level_order(row[level])


def test_roots_of_the_wrong_width_are_refused(golden_op):
    """A roots array whose rows do not hold l_1 + ... + l_{N-1} roots raises
    ValueError in every function that takes one, before any evaluation."""
    spec = golden_op.spec
    for roots in ([[0.5, 2.5]], np.zeros((2, 0)), [0.5]):
        with pytest.raises(ValueError, match="should hold"):
            bae_residual(roots, spec)
        with pytest.raises(ValueError, match="should hold"):
            factorized_values(roots, spec, [F(7)])
        with pytest.raises(ValueError, match="should hold"):
            verify_eigenvector(roots, spec, golden_op)


def test_check_points_and_weight_basis_are_built_once(monkeypatch):
    """The check points and the weight basis are cached: a second call returns
    the same object, and checking the six bae-real solutions draws the check
    points from exact_sample_points at most once."""
    spec = make_spec(COUNT_FAMILY[0])
    assert eigenvector_points(spec) is eigenvector_points(make_spec(COUNT_FAMILY[0]))
    assert enumerate_indices(2, 4, (2, 2)) is enumerate_indices(2, 4, (2, 2))
    op = build_bethe_operator(spec)
    sols = newton_solve(spec, seed=2024)
    assert len(sols) == 6
    calls, original = [], betheop.exact_sample_points

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    eigenvector_points.cache_clear()
    monkeypatch.setattr(betheop, "exact_sample_points", counted)
    assert all(verify_eigenvector([row], spec, op)[0][0] <= 1e-8 for row in sols.roots)
    assert len(calls) <= 1


def test_verify_eigenvector_needs_vector_factors():
    spec = ModuleSpec(2, ("0", "1"), ((2, 0), (1, 1)), ("0", "1"), (2, 2))
    with pytest.raises(ValueError, match="all sizes one"):
        verify_eigenvector([[F(5), F(7)]], spec, None)


def test_integral_gap_instance_has_non_generic_point():
    """With K = (0,1) over b = (0,1,2,3) at weight (2,2) one fiber point has a
    repeated level-one root, so only five of the six eigenvectors admit root
    coordinates; this is why the count instances use non-integral gaps."""
    X = QuasiExpSpace((F(0), F(1)), (P(4, -4, 1), P(1, -2, 1)))
    spec = ModuleSpec(2, ("0", "1"), ((1,),) * 4, ("0", "1", "2", "3"), (2, 2))
    assert membership_test(space_stack(X), spec)[0].ok
    _, generic = root_coordinates_from_space(X, tol=1e-6)
    assert not generic  # y_1 = (u-1)^2 has a double root
    sols = newton_solve(spec, seed=2024)
    assert len(sols) == 5


# (points, exponents, upper level sizes) of random generic configurations
BATCH_SHAPES = [
    ((0.0, 1.3, 2.1 + 0.4j, -0.7), (0.0, 0.5), (2,)),
    ((0.0, 1.0, 2.5), (0.0, 1.0 + 0.2j, 2.5), (2, 1)),
]


def _random_rows(rng, rows, total):
    return rng.normal(0, 2, (rows, total)) + 1j * rng.normal(0, 2, (rows, total))


def _exact_point(z):
    """The float point z as an exact Fraction, or as a GaussianRational when it is not real."""
    z = complex(z)
    return F(z.real) if not z.imag else GaussianRational(F(z.real), F(z.imag))


@pytest.mark.parametrize("points, exponents, sizes", BATCH_SHAPES, ids=["N=2", "N=3"])
def test_batched_residual_matches_reference(points, exponents, sizes):
    eqs = BetheEquations(points, exponents, sizes)
    X = _random_rows(np.random.default_rng(5), 20, sum(sizes))
    R, _, ok = eqs.residual(X)
    assert ok.all()
    for row, got in zip(X, R):
        levels = [list(points)] + [list(row[sum(sizes[:a]):sum(sizes[:a + 1])]) for a in range(len(sizes))]
        want = np.array(bae_residual_by_root(levels, exponents))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("points, exponents, sizes", BATCH_SHAPES, ids=["N=2", "N=3"])
def test_residual_of_several_solutions_matches_the_reference_row_by_row(points, exponents, sizes):
    """One call for many solutions gives, row by row in the order given, the
    residuals of the root-by-root reference, also on exact points."""
    X = _random_rows(np.random.default_rng(7), 6, sum(sizes))
    profile = (len(points),) + sizes
    weight = [a - b for a, b in zip(profile, profile[1:] + (0,))]
    for level0, K in ((points, exponents), ([_exact_point(z) for z in points], [_exact_point(k) for k in exponents])):
        spec = ModuleSpec(len(K), K, ((1,),) * len(level0), level0, weight)
        got = bae_residual(X, spec)
        assert got.shape == (len(X), sum(sizes)) and got.dtype == complex
        for roots, row in zip(X, got):
            levels = [list(level0)] + [roots[level].tolist() for level in level_slices(sizes)]
            want = np.array(bae_residual_by_root(levels, exponents), dtype=complex)
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("points, exponents, sizes", BATCH_SHAPES, ids=["N=2", "N=3"])
def test_batched_jacobian_matches_central_differences(points, exponents, sizes):
    eqs = BetheEquations(points, exponents, sizes)
    X = _random_rows(np.random.default_rng(6), 10, sum(sizes))
    _, inv, _ = eqs.residual(X)
    J = eqs.jacobian(inv)
    h = 1e-6
    for k in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[k] = h
        diff = (eqs.residual(X + e)[0] - eqs.residual(X - e)[0]) / (2 * h)
        assert np.max(np.abs(J[:, :, k] - diff)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def test_batched_solve_falls_back_per_row_on_singular_rows():
    A = np.array([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)], dtype=complex)
    x, solved = _solve(A, np.ones((3, 2), dtype=complex))
    assert solved.tolist() == [True, False, True]
    assert np.allclose(x[[0, 2]], [[1, 1], [0.5, 0.5]])


@pytest.mark.parametrize("data", [GOLDEN, COUNT_FAMILY[0]], ids=["golden_n2", "count_n2_n4"])
def test_newton_solve_emits_no_runtime_warnings(data):
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sols = newton_solve(make_spec(data), seed=2024)
    assert len(sols) == {2: 2, 4: 6}[len(data["b"])]


@pytest.mark.parametrize("seed", [4, 9, 18])
def test_structured_seeds_find_every_root_n3(seed):
    """Roots of adjacent levels in one gap used to start on the same point."""
    assert len(newton_solve(make_spec(COUNT_FAMILY[1]), seed=seed)) == 6


@pytest.mark.parametrize("seed", [35, 207])
def test_random_starts_find_every_root_gaussian(seed):
    spec = ModuleSpec(2, ("0", "1/2"), ((1,),) * 4, ("0", "1", "2i", "1+i"), (2, 2))
    assert len(newton_solve(spec, seed=seed)) == 6


def test_recombination_starts_skip_non_generic_structured_rows(monkeypatch):
    """The recombination starts jitter structured finds that passed the genericity filter only.  Here the
    structured family converges to one row with every root on the point 0, which the filter drops: the
    pool is empty, so the recombination slice is the mode-3 draw, whose real parts lie in [0, radius]."""
    calls = []

    def converge_on_the_point(X, eqs, tol, max_iter, limit):
        calls.append(X)
        return np.zeros((1, X.shape[1]), dtype=complex), 0, 0, 0

    monkeypatch.setattr(bae, "damped_newton", converge_on_the_point)
    sols = newton_solve(make_spec(COUNT_FAMILY[0]))
    assert len(sols) == 0 and sols.counters["structured"]["converged"] == 1
    _, random_starts = calls
    recombined = random_starts[-len(range(4, len(random_starts), 5)):]
    assert len(recombined) and np.all(recombined.real >= 0)


def _families(sols):
    return {family: (c["starts"], c["new"]) for family, c in sols.counters.items()}


def test_newton_random_family_skipped_when_structured_seeds_suffice():
    sols = newton_solve(make_spec(GOLDEN), seed=2024)
    assert set(sols.counters) == {"structured", "random"}
    assert sols.counters["random"]["starts"] == 0
    assert sols.counters["structured"]["new"] == len(sols) == 2


def test_newton_random_family_completes_real_data():
    """The structured seeds find 9 of 10 solutions; the random family the last."""
    spec = ModuleSpec(2, ("0", "1/2"), ((1,),) * 5, ("0", "1", "2", "3", "4"), (3, 2))
    sols = newton_solve(spec, seed=2024)
    assert sols.counters["structured"]["new"] == 9
    assert _families(sols)["random"] == (5000, 1)
    assert len(sols) == 10


# The six root configurations (level 1) of the bae-real benchmark instance,
# COUNT_FAMILY[0], in the order newton_solve sorts them.
BAE_REAL_ROOTS = [
    (0.364306186032214, 6.6356938139677855),
    (0.4340674161016936, 2.4511637921054326),
    (1.1853654834011367 - 0.327922163677378j, 1.1853654834011367 + 0.327922163677378j),
    (1.4931912408035408, 6.044153809032066),
    (2.6830395939556433, 4.316960406044357),
    (7.603346387577496 - 3.404034602709745j, 7.603346387577496 + 3.404034602709745j),
]


@pytest.mark.parametrize("seed", [2024, *range(1, 10)])
def test_newton_bae_real_roots_do_not_depend_on_seed(seed):
    """Retiring stalled starts loses no root of bae-real at any seed."""
    found = [[complex(z) for z in row] for row in newton_solve(make_spec(COUNT_FAMILY[0]), seed=seed).roots]
    assert len(found) == len(BAE_REAL_ROOTS)
    for want in BAE_REAL_ROOTS:
        tol = 1e-9 * max(abs(w) for w in want)
        # a conjugate pair's order within the level is set by rounding
        assert any(all(min(abs(g - w) for g in got) <= tol for w in want) for got in found), want


_PINNED = ("starts", "converged", "stalled", "collapsed", "new")


def _pinned(counters) -> dict:
    """(starts, converged, stalled, collapsed, new) of every family of Newton starts."""
    return {family: tuple(c[key] for key in _PINNED) for family, c in counters.items()}


def test_bae_real_reports_stalled_starts():
    """The fixture count_n2_n4 is the bae-real benchmark instance."""
    cfg = InstanceConfig.from_file(FIXTURES / "count_n2_n4.json")
    counters = verify_pipeline(cfg)["counters"]["newton"]
    assert counters["structured"]["stalled"] > 0
    assert all(c["starts"] >= c["converged"] + c["stalled"] + c["collapsed"] for c in counters.values())
    assert _pinned(counters) == {"structured": (45, 23, 1, 5, 6), "random": (0, 0, 0, 0, 0)}
    assert {family: c["evaluations"] for family, c in counters.items()} == {"structured": 38, "random": 0}


def test_bae_real_at_seed_101_retires_its_creeping_rows():
    """At seed 101 one structured row lowers max|F| by just over 10% per 20
    iterations while both its level-1 roots close in on a point.  The stall
    rule alone keeps the chunk running for 90 iterations with it (102
    evaluations in all); the collapse rule retires it."""
    counters = newton_solve(make_spec(COUNT_FAMILY[0]), seed=101).counters
    assert _pinned(counters) == {"structured": (45, 23, 1, 6, 6), "random": (0, 0, 0, 0, 0)}
    assert counters["structured"]["evaluations"] == 39


@pytest.mark.parametrize(
    "name, structured",
    [("build_n3", (225, 75, 5, 22, 12)), ("golden_n2", (9, 7, 0, 0, 2))],
)
def test_newton_counters_of_the_structured_fixtures(name, structured):
    """The structured family's counters are pinned.  A start's path is fixed only for a fixed chunk of
    rows: the batched residual rounds differently for a different number of rows, so run alone or in
    another chunk a start can converge differently, and the pins hold for the search's own chunking."""
    cfg = InstanceConfig.from_file(FIXTURES / f"{name}.json")
    counters = verify_pipeline(cfg)["counters"]["newton"]
    assert _pinned(counters) == {"structured": structured, "random": (0, 0, 0, 0, 0)}


# the bae-real equations in units of the gap, its start radius, and a start
# with both roots about 10^3 radius out
BAE_REAL_EQUATIONS = ((0, 1, 2, 3), (0, 0.5), (2,))
BAE_REAL_RADIUS = 12.0
PLATEAU_START = 1e3 * BAE_REAL_RADIUS * np.array([[-1.28 + 0.98j, 0.91 + 0.03j]])


def test_stall_rule_retires_a_plateau_start():
    """From the plateau start max|F| sits near |K_2 - K_1| = 1/2 for more
    than the stall window, so the start is retired as stalled and returns no
    root."""
    eqs = BetheEquations(*BAE_REAL_EQUATIONS)
    X = PLATEAU_START
    assert abs(np.abs(eqs.residual(X)[0]).max() - 0.5) < 1e-3
    found, stalled, collapsed, evaluations = damped_newton(X, eqs, RESIDUAL_TOL, MAX_ITER, 1e6 * BAE_REAL_RADIUS)
    assert len(found) == collapsed == 0
    assert stalled == 1
    assert evaluations == 1 + STALL_WINDOW  # the start, then one per iteration until the stall


def test_the_state_after_the_last_permitted_step_is_tested():
    """One step from 1e-7 off a root lands within RESIDUAL_TOL; with one
    iteration allowed, that state converges without another evaluation."""
    eqs = BetheEquations(*BAE_REAL_EQUATIONS)
    X = np.array([BAE_REAL_ROOTS[0]]) + 1e-7
    found, stalled, collapsed, evaluations = damped_newton(X, eqs, RESIDUAL_TOL, 1, 1e7)
    assert len(found) == 1 and stalled == collapsed == 0
    assert evaluations == 2
    assert np.abs(eqs.residual(found)[0]).max() <= RESIDUAL_TOL


class _RecordingEquations(BetheEquations):
    """BetheEquations that record the rows of every residual evaluation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = []

    def residual(self, X):
        self.batches.append(len(X))
        return super().residual(X)


@pytest.mark.parametrize("iterations", [1, 3, 6])
def test_a_lone_start_makes_one_evaluation_per_iteration(iterations):
    """A lone row tries every step length in one batched evaluation.  The
    plateau start needs a halved step in each of these iterations and is
    still searching after them."""
    eqs = _RecordingEquations(*BAE_REAL_EQUATIONS)
    found, stalled, collapsed, evaluations = damped_newton(
        PLATEAU_START, eqs, RESIDUAL_TOL, iterations, 1e6 * BAE_REAL_RADIUS
    )
    assert len(found) == stalled == collapsed == 0
    assert eqs.batches == [1] + [len(_DAMPS)] * iterations
    assert evaluations == len(eqs.batches)


def test_damping_batches_stay_under_two_chunks():
    eqs = _RecordingEquations(*BAE_REAL_EQUATIONS)
    X = _random_rows(np.random.default_rng(7), 300, 2) * BAE_REAL_RADIUS
    found, _, _, evaluations = damped_newton(X, eqs, RESIDUAL_TOL, MAX_ITER, 1e6 * BAE_REAL_RADIUS)
    assert len(found)
    assert evaluations == len(eqs.batches)
    assert max(eqs.batches) <= 2 * NEWTON_CHUNK - 1


# a bae-real row whose two roots close in on the point 2 from either side
COLLAPSING_START = np.array([[2 + 1e-3 * (1 + 1j), 2 - 1e-3 * (1 + 1j)]])


def test_collapse_rule_retires_a_pair_closing_on_a_point():
    """Both level-1 roots lie 1.4e-3 from the point 2, inside COLLAPSE_RADIUS:
    the row is retired as collapsed, not counted as stalled, and returns no
    root, without a Newton step."""
    eqs = BetheEquations(*BAE_REAL_EQUATIONS)
    assert eqs.collapsing(eqs.residual(COLLAPSING_START)[1]).tolist() == [True]
    found, stalled, collapsed, evaluations = damped_newton(
        COLLAPSING_START, eqs, RESIDUAL_TOL, MAX_ITER, 1e6 * BAE_REAL_RADIUS
    )
    assert len(found) == stalled == 0
    assert collapsed == evaluations == 1


@pytest.mark.parametrize("root", BAE_REAL_ROOTS)
def test_collapse_rule_keeps_a_start_near_a_root(root):
    eqs = BetheEquations(*BAE_REAL_EQUATIONS)
    X = np.array([root]) + 1e-6
    found, stalled, collapsed, _ = damped_newton(X, eqs, RESIDUAL_TOL, MAX_ITER, 1e6 * BAE_REAL_RADIUS)
    assert len(found) == 1 and stalled == collapsed == 0
    assert np.abs(found - [root]).max() <= 1e-9 * max(map(abs, root))


def test_collapse_rule_keeps_a_row_converged_inside_the_radius():
    """Convergence is tested first: a row within tol of zero residual is
    returned even with both roots inside the radius of a point, and is left
    to the genericity filter."""
    eqs = BetheEquations(*BAE_REAL_EQUATIONS)
    merit = np.abs(eqs.residual(COLLAPSING_START)[0]).max()
    found, stalled, collapsed, evaluations = damped_newton(
        COLLAPSING_START, eqs, merit, MAX_ITER, 1e6 * BAE_REAL_RADIUS
    )
    assert np.array_equal(found, COLLAPSING_START)
    assert stalled == collapsed == 0 and evaluations == 1
    assert not eqs.generic(found, 1e-2).any()


@pytest.mark.parametrize("node, collapsing", [(1.7, True), (2.0, False)], ids=["level-1 root", "point"])
def test_collapse_rule_reads_the_nodes_a_level_couples_to(node, collapsing):
    """N=3: a level-2 pair around a level-1 root collapses onto it; the same
    pair around an evaluation point does not, since level 2 does not couple
    to the points.  At 1.5 radii out neither pair collapses."""
    eqs = BetheEquations((0, 1, 2, 3), (0, 1, 2.5), (2, 2))
    d = COLLAPSE_RADIUS * np.array([0.5, 1.5]) * (1 + 1j) / abs(1 + 1j)
    X = np.stack([np.full(2, 0.5), np.full(2, 1.7), node + d, node - d], axis=1)
    R, inv, ok = eqs.residual(X)
    assert ok.all()
    assert eqs.collapsing(inv).tolist() == [collapsing, False]


def test_newton_random_family_alone_for_complex_points():
    spec = ModuleSpec(2, ("0", "1/2"), ((1,),) * 4, ("0", "1", "2i", "1+i"), (2, 2))
    sols = newton_solve(spec, seed=2024)
    assert _families(sols) == {"structured": (0, 0), "random": (3000, 6)}
    assert all(c["new"] <= c["converged"] <= c["starts"] for c in sols.counters.values())
    assert _pinned(sols.counters) == {"structured": (0, 0, 0, 0, 0), "random": (3000, 2538, 98, 15, 6)}


@pytest.mark.xfail(
    strict=True,
    reason="1/t + 1/(t - 2i) = 1 has the double root t = 1 + i; damped Newton stops about 1e-6 from it "
    "and the absolute dedup_tol 1e-8 keeps each stop as a new solution (ROADMAP items 5 and 11)",
)
def test_newton_count_at_a_double_root():
    assert len(newton_solve(make_spec(JORDAN))) <= 2
