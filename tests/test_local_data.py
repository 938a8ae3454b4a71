"""Both sides' local data at the points, stacked, against the point-by-point references.

``check_polynomiality`` expands every cleared coefficient at every point from
one integer ``point_table``, and ``membership_test`` expands every operator
of an exact stack at every point from the same table; the references in
``oracles`` expand one point at a time with a ``taylor_matrix`` built in the
field of the point.  The reports must be equal.  The membership checks a
fitted character of the spectral stage gets are decided from the block's
local data and must equal the reference decision, and the float kernels must
bear them out.  The exponents an exact space has instead are read off by
``_integer_roots``, tested on its own.  The cases cover every fixture
(``gauss_n2`` over Q(i), ``mixed_cells`` and ``hook_n3`` with points of
different n_s, ``trivial_*`` without points), the Jordan instance, the two
benchmark instances rescaled to (cK, b/c), and Q(i) and fractional points.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaudin.bae import gap_unit
from gaudin.betheop import build_bethe_operator, check_polynomiality, wronskian_identity
from gaudin.harness import InstanceConfig, membership_checks, spectrum_pipeline
from gaudin.polynomials import Poly
from gaudin.scalars import GaussianRational, parse_scalar
from gaudin.spaces import _integer_roots, membership_test
from gaudin.spectral import spectrum_analysis

from conftest import JORDAN, mutant_operator, random_exact_space, unit_matrix
from oracles import (
    check_polynomiality_by_point,
    cleared_operator_polys,
    membership_checks_by_point,
    membership_test_by_point,
    poly_stack,
    report_kernels,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _vectors(points, weight, K=("0", "1/2")):
    return {"N": len(weight), "K": list(K), "partitions": [[1]] * len(points), "b": list(points),
            "weight": list(weight)}


def _rescaled(data, c):
    """The instance (cK, b/c), whose block operators differ only by powers of c."""
    return {**data, "K": [str(parse_scalar(k) * c) for k in data["K"]],
            "b": [str(parse_scalar(b) / c) for b in data["b"]]}


BAE_REAL = _vectors(["0", "1", "2", "3"], [2, 2])
EIGENOP_N2 = _vectors(["0", "1", "2", "3", "4"], [3, 2])

CASES = {f.stem: json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))}
CASES["jordan"] = json.loads(json.dumps(JORDAN))
for name, data in (("bae-real", BAE_REAL), ("eigenop-n2", EIGENOP_N2)):
    for c in (Fraction(1, 1000), Fraction(1000)):
        CASES[f"{name}-c{c}"] = _rescaled(data, c)
CASES["qi-fractional"] = _vectors(["1/2", "1/3", "2i"], [2, 1])
CASES["fractional-1-1"] = _vectors(["0", "1/3"], [1, 1])
CASES["fractional-2-0"] = _vectors(["0", "1/3"], [2, 0])


def _config(name):
    return InstanceConfig.from_dict(CASES[name])


def _mutant(op):
    """B_1 + e_{0, dim-1} / (u - b_0): the leading local coefficient at b_0 is no longer scalar
    (on a block of dimension 1, the indicial identity at b_0 fails instead)."""
    b0 = op.spec.points[0]
    return mutant_operator(op, 1, unit_matrix(op.dim, 0, op.dim - 1), Poly([-b0, b0 ** 0]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_polynomiality_matches_the_point_by_point_reference(name):
    op = build_bethe_operator(_config(name).spec)
    ops = [op] + ([_mutant(op)] if op.dim and op.spec.points else [])
    for case in ops:
        assert check_polynomiality(case) == check_polynomiality_by_point(case)
    if len(ops) > 1:
        assert not check_polynomiality(ops[1]).ok


def assert_same_reports(got, expect):
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.ok == e.ok
        assert [(c.name, c.passed, c.detail) for c in g.checks] == [(c.name, c.passed, c.detail) for c in e.checks]
        assert g.indicial.keys() == e.indicial.keys()
        for s, data in g.indicial.items():
            assert data.exponents == e.indicial[s].exponents
            assert data.polynomial == e.indicial[s].polynomial


def _decided(op):
    return membership_checks(op.spec, wronskian_identity(op), check_polynomiality(op))


@pytest.mark.parametrize("name", sorted(CASES))
def test_membership_test_matches_the_point_by_point_reference(name):
    """The membership checks a fitted character gets from the block equal the reference decision
    (``membership_checks_by_point``), on the block and on the mutant, which breaks A_1 and the
    leading local coefficient at b_0 and so fails both Wronskian checks and the one at b_0; every
    fitted character of the spectral stage carries them."""
    config = _config(name)
    op = build_bethe_operator(config.spec)
    ops = [op] + ([_mutant(op)] if op.dim and op.spec.points else [])
    for case in ops:
        assert [(c["name"], c["passed"]) for c in _decided(case)] == membership_checks_by_point(case)
    if len(ops) > 1:
        failed = {c["name"] for c in _decided(ops[1]) if not c["passed"]}
        assert failed == {"wronskian-matches-pole-polynomial", "poles-confined-to-points", "indicial-exponents-at-point-0"}
    entries = spectrum_pipeline(config)["characters"]
    assert all(entry["membership_checks"] == _decided(op) for entry in entries if "membership_error" not in entry)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_membership_matches_the_point_by_point_reference(name):
    """Exact spaces: the fixture's own space where it has one, and random spaces of the block's
    exponents and degrees, which mostly fail and then read off the exponents they have instead."""
    config = _config(name)
    spec = config.spec
    rng = random.Random(7)
    spaces = [config.space] if config.space is not None else []
    spaces += [random_exact_space(spec.rank, spec.exponents, spec.weight, rng) for _ in range(3)]
    stack = [cleared_operator_polys(X) for X in spaces]
    assert_same_reports(membership_test(poly_stack(stack), spec), membership_test_by_point(stack, spec))


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_and_float_membership_agree(name):
    """The exact verdicts of the block and the float kernels agree: every character passes its
    membership, and each fitted kernel's float G_0, its monic Wronskian part, is the pole polynomial
    P, as the Wronskian checks, decided exactly, say: within 1e-8 of P's largest coefficient with u
    in units of the smallest gap between the points, as the kernels are fitted."""
    config = _config(name)
    spec = config.spec
    report = spectrum_analysis(build_bethe_operator(spec), config.tolerances, config.seed)
    assert all(entry["membership"] for entry in spectrum_pipeline(config)["characters"])
    pole = np.array([complex(c) for c in spec.pole_polynomial().coeffs])
    units = gap_unit(spec.points) ** (np.arange(len(pole)) - len(pole) + 1)  # u^k -> u^k / s^(n - k)
    for X in report_kernels(report, spec):
        g0 = np.array([complex(c) for c in cleared_operator_polys(X)[0].coeffs])
        assert g0.shape == pole.shape
        assert np.abs((g0 - pole) * units).max() <= 1e-8 * np.abs(pole * units).max()


def _roots(*roots, scale=Fraction(1)):
    return Poly.from_roots([Fraction(r) for r in roots]).scale(scale)


@pytest.mark.parametrize("poly, low, high, expect", [
    (_roots(2, 2, -1), -1, 5, (-1, 2, 2)),
    (_roots(-1, 7, 3, 3, 3), -1, 7, (-1, 3, 3, 3, 7)),
    (_roots(0, 4, scale=GaussianRational(Fraction(1, 2), Fraction(-3))), -1, 6, (0, 4)),
    (Poly([GaussianRational(0, -1), Fraction(1)]), -1, 3, None),  # the root i
    (_roots(1, Fraction(1, 2)), -1, 5, None),
    (_roots(1, 8), -1, 7, None),  # 8 lies outside the range
    (Poly([Fraction(3)]), -1, 2, ()),
], ids=["double", "ends", "gaussian", "gaussian-root", "half", "outside", "constant"])
def test_integer_roots(poly, low, high, expect):
    """The integer roots in [low, high] with multiplicity, or None unless they are all the roots."""
    assert _integer_roots(poly, low, high) == expect
