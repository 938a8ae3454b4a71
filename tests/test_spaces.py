import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaudin import spaces
from gaudin.algebra import ModuleSpec, Partition
from gaudin.betheop import build_bethe_operator
from gaudin.harness import InstanceConfig, spectrum_pipeline, wronski_pipeline
from gaudin.polynomials import Poly
from gaudin.scalars import GaussianRational, format_scalar
from gaudin.spaces import (
    QuasiExpSpace,
    cleared_operators,
    expected_exponents,
    membership_test,
    shifted_derivatives,
    trailing_minors,
)
from gaudin.spectral import spectrum_analysis

from conftest import make_spec, random_exact_space
from oracles import (
    char_at_infinity,
    cleared_operator_polys,
    cleared_operator_polys_by_cofactors,
    fundamental_identities,
    poly_det,
    poly_stack,
    report_kernels,
    second_symbol,
    shifted_derivative_polys,
    space_stack,
)

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_space_validation():
    with pytest.raises(ValueError):
        QuasiExpSpace((F(0), F(0)), (P(0, 1), P(1)))
    with pytest.raises(ValueError):
        QuasiExpSpace((F(0), F(1)), (P(1), P(0, 1)))  # degrees must not increase


def _wronskian_and_map(X):
    """The ``wronski`` report's monic Wronskian and Wronski map of an exact space X, over the
    points 0, 1, ..., n - 1 with one vector factor each, as coefficient lists of complex floats."""
    n = X.size
    config = InstanceConfig.from_dict({
        "N": X.rank, "K": [format_scalar(k) for k in X.exponents], "partitions": [[1]] * n,
        "b": [str(s) for s in range(n)], "weight": list(X.degrees),
        "space": {"polys": [[format_scalar(c) for c in p.coeffs] for p in X.polys]},
    })
    out = wronski_pipeline(config)["wronskian"]
    return [complex(*c) for c in out["poly"]], [complex(*a) for a in out["map"]]


def test_wronskian_of_space_rank_one():
    X = QuasiExpSpace((F(2),), (P(-3, 1, 0, 1),))
    assert cleared_operator_polys(X)[0] == X.polys[0]
    poly, coefficients = _wronskian_and_map(X)
    assert poly == [complex(c) for c in X.polys[0].coeffs]
    # signed coefficients reproduce the monic part
    rebuilt = [1] + [(-1) ** s * a for s, a in enumerate(coefficients, start=1)]
    assert rebuilt[::-1] == poly


def test_wronskian_of_space_matches_symbolic_two_by_two():
    p1, p2 = P(3, 1), P(-1, 2, 1)
    K = (F(0), F(2))
    X = QuasiExpSpace(K, (p2, p1))
    direct = poly_det([shifted_derivative_polys(K[0], p2, 1), shifted_derivative_polys(K[1], p1, 1)])
    assert direct == cleared_operator_polys(X)[0].scale(K[1] - K[0])


def test_wronski_sign_roundtrip_random():
    rng = random.Random(2)
    for _ in range(5):
        X = random_exact_space(2, (F(0), F(1)), (2, 1), rng)
        poly, coefficients = _wronskian_and_map(X)
        assert poly == [complex(c) for c in cleared_operator_polys(X)[0].coeffs]
        rebuilt = [1] + [(-1) ** s * a for s, a in enumerate(coefficients, start=1)]
        assert rebuilt[::-1] == poly


def test_degenerate_space_detected():
    X = QuasiExpSpace((F(0), F(1)), (P(0, 1), P(0, 1)))
    # independent functions, fine; a truly dependent family needs equal
    # exponents, which the type forbids, so force degeneracy via zero poly
    with pytest.raises(ValueError):
        QuasiExpSpace((F(0), F(1)), (P(0, 1), Poly()))


def test_fundamental_operator_rank_one():
    X = QuasiExpSpace((F(3),), (P(-2, 1),))
    g0, g1 = cleared_operator_polys(X)
    # D = d/du - 3 - 1/(u-2)
    for pt in (F(5), F(7)):
        assert g1(pt) / g0(pt) == -3 - 1 / (pt - 2)


def test_fundamental_operator_annihilates_random():
    rng = random.Random(4)
    for N, K, lam in ((2, (F(0), F(1)), (2, 2)), (3, (F(0), F(1), F(2)), (2, 1, 1))):
        X = random_exact_space(N, K, lam, rng)
        gs = cleared_operator_polys(X)
        for k, p in zip(X.exponents, X.polys):
            parts = shifted_derivative_polys(k, p, N)
            assert sum((g * parts[N - i] for i, g in enumerate(gs)), Poly()).is_zero()


def _identity_spaces():
    """The three ``wronski`` fixture spaces and random exact spaces of ranks 1 to 4."""
    spaces = [InstanceConfig.from_file(FIXTURES / f"{name}.json").space
              for name in ("wronski_cell_n2", "wronski_n3", "wronski_rank1")]
    rng = random.Random(32)
    for N in (1, 2, 3, 4):
        exponents = tuple(F(k, rng.randint(1, 3)) for k in rng.sample(range(-6, 7), N))
        spaces += [random_exact_space(N, exponents, sorted((rng.randint(0, 3) for _ in range(N)), reverse=True), rng)
                   for _ in range(2)]
    return spaces


def test_cleared_operators_satisfy_the_fundamental_identities():
    """Each row [G_0, ..., G_N] of ``cleared_operators`` satisfies, exactly, G_1 = -(G_0' + sum_i K_i G_0),
    which is F_1 = -Wr'/Wr, and sum_i G_i f^(N-i) = 0 for each basis element f.  A copy with one
    coefficient of G_1 changed fails both."""
    for X in _identity_spaces():
        gs = cleared_operator_polys(X)
        assert fundamental_identities(X, gs) == (True, True)
        coeffs = list(gs[1].coeffs) or [F(0)]
        coeffs[0] += 1
        assert fundamental_identities(X, [gs[0], Poly(coeffs)] + gs[2:]) == (False, False)


@pytest.mark.parametrize("kind", ["fraction", "gaussian", "complex"])
def test_shifted_derivatives_equal_the_poly_loop(kind):
    """The stacked derivative table equals (k + d/du) q = k q + q' applied one Poly at a time."""
    rng = random.Random(11)

    def scalar():
        re = F(rng.randint(-6, 6), rng.randint(1, 4))
        if kind == "fraction":
            return re
        im = F(rng.randint(-6, 6), rng.randint(1, 4))
        return GaussianRational(re, im) if kind == "gaussian" else complex(re, im)

    for width in (1, 2, 4):
        k = scalar()
        stack = np.array([[scalar() for _ in range(width)] for _ in range(3)], dtype=complex if kind == "complex" else object)
        table = shifted_derivatives(k, stack, 4)
        assert table.shape == (3, 5, width)
        for row, part in zip(table, stack):
            expect = shifted_derivative_polys(k, Poly(part.tolist()), 4)
            got = [Poly(r.tolist()) for r in row]
            if kind == "complex":
                for g, e in zip(got, expect):
                    assert np.allclose(g.coeffs + (0,) * (width - len(g.coeffs)),
                                       e.coeffs + (0,) * (width - len(e.coeffs)), rtol=1e-12, atol=1e-12)
            else:
                assert got == expect


def test_char_at_infinity_rank_one():
    D = cleared_operator_polys(QuasiExpSpace((F(4),), (P(1),)))
    assert char_at_infinity(D) == P(-4, 1)


def test_char_at_infinity_random():
    rng = random.Random(9)
    for N, K, lam in ((2, (F(0), F(1)), (2, 1)), (3, (F(0), F(2), F(5)), (1, 1, 1))):
        X = random_exact_space(N, K, lam, rng)
        D = cleared_operator_polys(X)
        assert char_at_infinity(D) == Poly.from_roots(K)


def test_second_symbol_random():
    """The 1/u coefficients satisfy sum F_i1 a^{N-i} = -sum lam_i prod_{j!=i}(a-K_j)."""
    rng = random.Random(10)
    for N, K, lam in ((2, (F(0), F(1)), (2, 1)), (3, (F(0), F(1), F(3)), (2, 1, 1))):
        X = random_exact_space(N, K, lam, rng)
        D = cleared_operator_polys(X)
        lamp = list(lam) + [0] * (N - len(lam))
        expect = Poly()
        for i in range(N):
            expect = expect + Poly.from_roots([K[j] for j in range(N) if j != i]).scale(
                F(lamp[i])
            )
        assert second_symbol(D) == -expect


def test_constant_term_at_infinity_example():
    # F_1 = -(K_1+K_2) - 2/u has constant term -(K_1+K_2), read off G_0 = 2u, G_1 = -6u - 4
    assert char_at_infinity([P(0, 2), P(-4, -6)]) == P(-3, 1)
    assert second_symbol([P(0, 2), P(-4, -6)]) == P(-2)
    with pytest.raises(ValueError):
        char_at_infinity([P(0, 1), P(0, 0, 1)])  # d/du + u grows at infinity


def test_indicial_first_order():
    X = QuasiExpSpace((F(0),), (P(-5, 1),))
    spec = ModuleSpec(1, ("0",), ((1,),), ("5",), (1,))
    data = membership_test(space_stack(X), spec)[0].indicial[0]
    assert data.exponents == (1,)
    assert data.polynomial == P(-1, 1)


def test_expected_exponents_formulas():
    assert expected_exponents(Partition((1, 0)), 2) == (0, 2)
    assert expected_exponents(Partition((2, 0)), 2) == (0, 3)
    assert expected_exponents(Partition((1, 1)), 2) == (1, 2)
    assert expected_exponents(Partition((1, 0, 0)), 3) == (0, 1, 3)


def test_membership_positive_symmetric_cell():
    # X = span{u, e^u u} lies over b=0 with partition (1,1)
    X = QuasiExpSpace((F(0), F(1)), (P(0, 1), P(0, 1)))
    spec = ModuleSpec(2, ("0", "1"), ((1, 1),), ("0",), (1, 1))
    report = membership_test(space_stack(X), spec)[0]
    assert report.ok
    assert report.indicial[0].exponents == (1, 2)


def test_membership_positive_row_cell():
    # X = span{(u+2), e^u (u-2)} lies over b=0 with partition (2,0)
    X = QuasiExpSpace((F(0), F(1)), (P(2, 1), P(-2, 1)))
    spec = ModuleSpec(2, ("0", "1"), ((2, 0),), ("0",), (1, 1))
    report = membership_test(space_stack(X), spec)[0]
    assert report.ok
    assert report.indicial[0].exponents == (0, 3)


def test_membership_negative_random():
    rng = random.Random(6)
    spec = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
    X = random_exact_space(2, (F(0), F(1)), (1, 1), rng)
    report = membership_test(space_stack(X), spec)[0]
    assert not report.ok
    reasons = {c.name: c.detail for c in report.checks if not c.passed}
    assert "pole outside b" in reasons.get("poles-confined-to-points", "")


def test_membership_wrong_cell_fails():
    # the (2,0)-cell point must fail the (1,1)-cell test over the same fiber
    X = QuasiExpSpace((F(0), F(1)), (P(2, 1), P(-2, 1)))
    spec = ModuleSpec(2, ("0", "1"), ((1, 1),), ("0",), (1, 1))
    report = membership_test(space_stack(X), spec)[0]
    assert not report.ok
    failed = [c.name for c in report.checks if not c.passed]
    assert any("indicial" in name for name in failed)


# Two vector factors at 0 and 1 (P = u^2 - u), and one factor of cell (1,1) at 0 (P = u^2).
TWO_POINTS = ModuleSpec(2, ("0", "1"), ((1,), (1,)), ("0", "1"), (1, 1))
CELL_AT_ZERO = ModuleSpec(2, ("0", "1"), ((1, 1),), ("0",), (1, 1))


@pytest.mark.parametrize(
    "spec, gs, verdicts",
    [
        # G_0 = P, and G_1 = -(G_0' + G_0) gives both indicial polynomials
        (TWO_POINTS, [P(0, -1, 1), P(1, -1, -1), P(0, 1)], [True, True, True, True]),
        # G_0 = P (u + 1): a pole at -1, where G_0'(0) still fits the point 0
        (TWO_POINTS, [P(0, -1, 0, 1), P(1, -1, -1), P(0, 1)], [False, False, True, False]),
        # G_0 = u^2 (u - 1): the double root at 0 counts once, n_s = 1 there
        (TWO_POINTS, [P(0, 0, -1, 1), P(1, -1, -1), P(0, 1)], [False, False, False, True]),
        # span{u, e^u u} with G_1 + 1: G_1 no longer vanishes at 0, where n_s = 2
        (CELL_AT_ZERO, [P(0, 0, 1), P(1, -2, -1), P(2, 1)], [True, True, False]),
    ],
    ids=["pole-polynomial", "root-off-the-points", "double-root-at-a-vector-point", "irregular-G1"],
)
def test_membership_verdicts_agree_exact_and_float(spec, gs, verdicts):
    """The exact rule gives these verdicts on every check; a kernel recovered in floats is not tested by
    it, but takes its verdicts from the block's exact identities."""
    assert [c.passed for c in membership_test(poly_stack([gs]), spec)[0].checks] == verdicts


def test_wronskian_detail_does_not_move_with_roundoff():
    """The spectral stage's Wronskian detail names the block's exact identity, so it does not move with
    roundoff: bae-real gives one text for every character at seeds 2024 and 1 and rescaled to (cK, b/c) by
    c = 1/1000 and 1000.  The exact detail of a supplied space prints its exact G_0."""
    details = set()
    for c in (F(1), F(1, 1000), F(1000)):
        for seed in (2024, 1):
            spec = ModuleSpec(2, (0, c / 2), ((1,),) * 4, tuple(F(b) / c for b in range(4)), (2, 2))
            for entry in spectrum_pipeline(InstanceConfig(spec, seed=seed))["characters"]:
                details.add(entry["membership_checks"][0]["detail"])
    assert details == {"A_1 = -(P' + sum(K) P) I on the block"}
    spec = ModuleSpec(2, ("0", "1"), ((1, 0), (1, 0)), ("0", "1"), (1, 1))
    assert membership_test(poly_stack([[P(0, -1, 1), P(), P()]]), spec)[0].checks[0].detail == "got u^2 - u"


def test_membership_at_a_point_beyond_float_range():
    """An exact space compares exactly: a point of 10^400 has no float, and the test passes."""
    b = F(10) ** 400
    X = QuasiExpSpace((F(3),), (P(-b, 1),))
    spec = ModuleSpec(1, ("3",), ((1,),), (str(b),), (1,))
    report = membership_test(space_stack(X), spec)[0]
    assert report.ok
    assert report.indicial[0].exponents == (1,)


def test_exponent_sum_fuchs_count():
    """Sum of exponents at b_s minus N(N-1)/2 equals the local multiplicity."""
    cases = [
        (QuasiExpSpace((F(0), F(1)), (P(0, 1), P(0, 1))),
         ModuleSpec(2, ("0", "1"), ((1, 1),), ("0",), (1, 1))),
        (QuasiExpSpace((F(0), F(1)), (P(2, 1), P(-2, 1))),
         ModuleSpec(2, ("0", "1"), ((2, 0),), ("0",), (1, 1))),
    ]
    for X, spec in cases:
        report = membership_test(space_stack(X), spec)[0]
        assert report.ok
        N = spec.rank
        for s, data in report.indicial.items():
            assert sum(data.exponents) - N * (N - 1) // 2 == spec.factor_sizes[s]


def test_cleared_polys_structure():
    rng = random.Random(12)
    X = random_exact_space(2, (F(0), F(1)), (2, 1), rng)
    gs = cleared_operator_polys(X)
    assert gs[0].leading == 1
    assert gs[0].degree == X.size
    # F_1 = G_1 / G_0 = -Wr'/Wr, with Wr = e^{(K_1 + K_2) u} G_0 up to a constant
    assert gs[1] == -(gs[0].derivative() + gs[0].scale(F(1)))


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _random_spaces(N, rng, count):
    """count random exact spaces with one set of distinct exponents and degrees, stacked as well."""
    den = rng.randint(1, 3)
    exponents = tuple(F(k, den) for k in rng.sample(range(-6, 7), N))
    lam = sorted((rng.randint(0, 3) for _ in range(N)), reverse=True)
    family = [random_exact_space(N, exponents, lam, rng) for _ in range(count)]
    parts = [np.array([X.polys[i].coeffs for X in family], dtype=object) for i in range(N)]
    return exponents, family, parts


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_minors_equal_the_cofactor_reference_exactly(N):
    """The stacked maximal minors of random Fraction spaces equal the cofactor minors exactly, space by
    space, and so do their trailing determinants (the trailing Wronskians of the Bethe roots)."""
    rng = random.Random(40 + N)
    for _ in range(3):
        exponents, family, parts = _random_spaces(N, rng, 4)
        stacked = cleared_operators(exponents, parts)
        det = trailing_minors(exponents, parts)
        for c, X in enumerate(family):
            expect = cleared_operator_polys_by_cofactors(X)
            assert [Poly(g) for g in stacked[c].tolist()] == expect == cleared_operator_polys(X)
            table = [shifted_derivative_polys(k, p, N - 1) for k, p in zip(X.exponents, X.polys)]
            for a in range(N):
                assert Poly(det(tuple(range(N - a)))[c].tolist()) == poly_det([row[:N - a] for row in table[a:]])


@pytest.mark.parametrize("name", ["wronski_cell_n2", "wronski_n3", "wronski_rank1"])
def test_minors_of_the_fixture_spaces_equal_the_cofactor_reference(name):
    X = InstanceConfig.from_file(FIXTURES / f"{name}.json").space
    assert cleared_operator_polys(X) == cleared_operator_polys_by_cofactors(X)


def _float_kernel_cases():
    bae_real = {"N": 2, "K": ("0", "1/2"), "partitions": ((1,),) * 4, "b": tuple("0123"), "weight": (2, 2)}
    eigenop = {**bae_real, "partitions": ((1,),) * 5, "b": tuple("01234"), "weight": (3, 2)}
    return [pytest.param(make_spec(eigenop), id="eigenop-n2"), pytest.param(make_spec(bae_real), id="bae-real"),
            pytest.param(InstanceConfig.from_file(FIXTURES / "gauss_n2.json").spec, id="gauss_n2")]


@pytest.mark.parametrize("spec", _float_kernel_cases())
def test_minors_of_recovered_kernels_match_the_cofactor_reference(spec):
    """On the float kernels of the spectral stage the stacked minors agree with the cofactor minors of
    each kernel within 1e-12 relative."""
    report = spectrum_analysis(build_bethe_operator(spec))
    exponents = [complex(k) for k in spec.exponents]
    stacked = cleared_operators(exponents, report.kernels)
    polys = [cleared_operator_polys_by_cofactors(X) for X in report_kernels(report, spec)]
    assert len(polys) == len(stacked) == report.count > 0
    for G, H in zip(stacked, polys):
        for g, h in zip(G, H):
            h = np.array(h.coeffs + (0j,) * (len(g) - len(h.coeffs)))
            assert np.abs(g - h).max() <= 1e-12 * max(np.abs(g).max(), np.abs(h).max())


def _assert_same_reports(got, expect):
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.ok == e.ok
        assert [(c.name, c.passed, c.detail) for c in g.checks] == [(c.name, c.passed, c.detail) for c in e.checks]
        assert {s: d.exponents for s, d in g.indicial.items()} == {s: d.exponents for s, d in e.indicial.items()}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exact_membership_is_the_same_on_the_array_stack(N):
    """Random exact spaces, which mostly fail and then read off the exponents they have: the array stack
    of ``cleared_operators`` and the stacked cofactor minors of each space give the same reports and
    indicial polynomials."""
    rng = random.Random(N)
    exponents, family, parts = _random_spaces(N, rng, 5)
    spec = ModuleSpec(N, exponents, [[1]] * family[0].size, list(range(family[0].size)), family[0].weight)
    got = membership_test(cleared_operators(exponents, parts), spec)
    expect = membership_test(poly_stack([cleared_operator_polys_by_cofactors(X) for X in family]), spec)
    _assert_same_reports(got, expect)
    for g, e in zip(got, expect):
        assert {s: d.polynomial for s, d in g.indicial.items()} == {s: d.polynomial for s, d in e.indicial.items()}


def test_indicial_data_is_formed_when_read(monkeypatch):
    """A membership report forms its indicial polynomials only when ``indicial`` is read."""
    X = InstanceConfig.from_file(FIXTURES / "wronski_n3.json")
    formed = []
    monkeypatch.setattr(spaces, "IndicialData", lambda *args: formed.append(args) or args)
    report = membership_test(space_stack(X.space), X.spec)[0]
    assert report.ok and not formed
    assert len(report.indicial) == len(X.spec.points) == len(formed)
