"""Acceptance gate: one test per criterion, one printed line per criterion.

Tolerances are pinned here and nowhere else: exact means exact (zero
residual in rational arithmetic), float comparisons carry the tolerance in
the assertion itself.
"""

import math
import random
import time
from fractions import Fraction

from gaudin.algebra import ModuleSpec, build_embedded_module
from gaudin.bae import (
    factorized_values,
    newton_solve,
    verify_eigenvector,
)
from gaudin.betheop import (
    build_bethe_operator,
    check_polynomiality,
    commutativity_check,
    expected_leading_symbol,
    first_coefficient_residual,
    leading_symbol,
)
from gaudin.harness import cleared_numerators
from gaudin.polynomials import Poly
from gaudin.scalars import to_complex
from gaudin.spaces import expected_exponents, membership_test
from gaudin.spectral import kernel_from_operator, spectrum_analysis

from conftest import COUNT_FAMILY, make_spec, random_exact_space, weight_function_by_index
from oracles import (
    char_at_infinity,
    cleared_operator_polys,
    fundamental_identities,
    kernel_spaces,
    operator_distance,
    rational_reconstruct,
    reconstruction_points,
    report_kernels,
    second_symbol,
    space_stack,
    tensor_weight_dimension,
)

F = Fraction


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exact_identities(exact_family_ops):
    t0 = time.time()
    rng = random.Random(101)
    for op in exact_family_ops:
        assert first_coefficient_residual(op).is_zero()
        assert leading_symbol(op) == expected_leading_symbol(op)
        spec = op.spec
        X = random_exact_space(spec.rank, spec.exponents, spec.weight, rng)
        D = cleared_operator_polys(X)
        assert fundamental_identities(X, D) == (True, True)  # F_1 = -Wr'/Wr, and D kills the basis
        assert char_at_infinity(D) == Poly.from_roots(spec.exponents)
        lamp = spec.weight.padded(spec.rank)
        expect = Poly()
        for i in range(spec.rank):
            expect = expect + Poly.from_roots(
                [spec.exponents[j] for j in range(spec.rank) if j != i]
            ).scale(F(lamp[i]))
        assert second_symbol(D) == -expect
    elapsed = time.time() - t0
    report(1, elapsed < 10, f"(exact identities on {len(exact_family_ops)} instances, {elapsed:.1f}s)")


def test_criterion_2_commutativity(exact_family_ops):
    t0 = time.time()
    for op in exact_family_ops:
        assert commutativity_check(op)
    elapsed = time.time() - t0
    report(2, elapsed < 10, f"(exact commutators of the cleared coefficients, {elapsed:.1f}s)")


def test_criterion_3_cleared_coefficients(exact_family_ops):
    ok = True
    for op in exact_family_ops:
        rep = check_polynomiality(op)
        ok = ok and rep.ok and all(d <= op.spec.size for d in rep.degrees)
    report(3, ok, "(polynomial clearing, scalar local values, indicial identity)")


def test_criterion_4_golden_instance(golden_op):
    t0 = time.time()
    spec = golden_op.spec
    analysis = spectrum_analysis(golden_op)
    assert analysis.count == 2

    sols = newton_solve(spec, seed=2024)
    got = sorted(z.real for z in sols.roots[:, 0])
    expect = sorted([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert len(sols) == 2
    assert all(abs(a - b) <= 1e-10 for a, b in zip(got, expect))

    # coefficientwise match of the eigenvalue operators with the factorized ones
    char_numers = [[[complex(*c) for c in row] for row in rows] for rows in cleared_numerators(analysis.operators)]
    den = spec.complex_pole_polynomial()
    matched = set()
    for row in sols.roots:
        pts = reconstruction_points(spec, spec.size + 3, avoid=list(row))
        numers = []
        for i in (1, 2):
            samples = [
                (complex(pt), factorized_values([row], spec, [pt])[0][0][i - 1]) for pt in pts
            ]
            rec = rational_reconstruct(samples, spec.size, den, tol=1e-8)
            numers.append([complex(rec.coeff(k)) for k in range(spec.size + 1)])
        dists = [operator_distance(numers, cn) for cn in char_numers]
        best = min(range(len(dists)), key=lambda k: dists[k])
        assert dists[best] <= 1e-10
        assert best not in matched
        matched.add(best)

    for m in analysis.memberships:
        assert hasattr(m, "ok") and m.ok

    for row in sols.roots:
        residuals, _ = verify_eigenvector([row], spec, golden_op)
        assert residuals[0] <= 1e-8
    elapsed = time.time() - t0
    report(4, elapsed < 5, f"(2 characters, quadratic roots, operator match, {elapsed:.1f}s)")


def test_criterion_5_count_identities():
    t0 = time.time()
    lines = []
    for data in COUNT_FAMILY:
        spec = make_spec(data)
        module = build_embedded_module(spec)
        op = build_bethe_operator(spec, module)
        dim = len(module.weight_indices(spec.weight))
        oracle = tensor_weight_dimension(
            [p.parts for p in spec.partitions], spec.weight.parts, spec.rank
        )
        assert dim == oracle
        analysis = spectrum_analysis(op)
        assert analysis.count == dim
        assert analysis.diagonalizable
        assert analysis.cluster_sizes.tolist() == [1] * dim
        if spec.all_vector_factors:
            sols = newton_solve(spec, seed=2024)
            assert len(sols) == dim
            lines.append(f"{dim}={analysis.count}={len(sols)}")
        else:
            lines.append(f"{dim}={analysis.count}")
    elapsed = time.time() - t0
    report(5, elapsed < 60, f"(counts {'; '.join(lines)}, {elapsed:.1f}s)")


def test_criterion_6_membership_suite(golden_op):
    specs = [golden_op.spec] + [make_spec(data) for data in COUNT_FAMILY]
    checked = 0
    for spec in specs:
        op = golden_op if spec is golden_op.spec else build_bethe_operator(spec)
        analysis = spectrum_analysis(op)
        target = spec.pole_polynomial()
        tcoeffs = [complex(to_complex(c)) for c in target.coeffs]
        scale = max(abs(c) for c in tcoeffs)
        for X, m in zip(report_kernels(analysis, spec), analysis.memberships):
            assert X is not None and hasattr(m, "ok") and m.ok
            for s, data in m.indicial.items():
                assert tuple(data.exponents) == expected_exponents(
                    spec.partitions[s], spec.rank
                )
            wronskian = cleared_operator_polys(X)[0]  # monic
            for k, tc in enumerate(tcoeffs):
                got = complex(wronskian.coeff(k)) if wronskian.degree >= k else 0.0
                assert abs(got - tc) <= 1e-8 * scale
            checked += 1
    # negative control
    rng = random.Random(31)
    spec = golden_op.spec
    X = random_exact_space(2, spec.exponents, spec.weight, rng)
    neg = membership_test(space_stack(X), spec)[0]
    assert not neg.ok
    reasons = {c.name: c.detail for c in neg.checks if not c.passed}
    assert "pole outside b" in reasons.get("poles-confined-to-points", "")
    report(6, True, f"({checked} kernels, exponents and Wronskians verified)")


def test_criterion_7_weight_function_example():
    rng = random.Random(77)
    for _ in range(3):
        t01, t02, t1, t2 = (F(v) for v in rng.sample(range(2, 60), 4))
        got = weight_function_by_index([(t01, t02), (t1,), (t2,)], 3, (1, 0, 1))
        assert got[(3, 1)] == 1 / ((t2 - t1) * (t1 - t01))
        assert got[(1, 3)] == 1 / ((t2 - t1) * (t1 - t02))
        assert set(got) == {(3, 1), (1, 3)}
    report(7, True, "(two-term formula exact at 3 rational tuples)")


def test_criterion_8_round_trip():
    rng = random.Random(88)
    spec = ModuleSpec(2, ("0", "1"), ((2, 1), (1, 0)), ("0", "1"), (2, 2))
    worst = 0.0
    for _ in range(10):
        X = random_exact_space(2, (F(0), F(1)), (2, 2), rng)
        Y, = kernel_spaces(kernel_from_operator(space_stack(X), spec)[0], spec)
        for p, q in zip(X.polys, Y.polys):
            for k in range(max(p.degree, q.degree) + 1):
                err = abs(complex(p.coeff(k)) - complex(q.coeff(k)))
                worst = max(worst, err)
    assert worst <= 1e-10
    report(8, True, f"(10 spaces recovered, worst coefficient error {worst:.2e})")
