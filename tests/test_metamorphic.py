"""Scaling invariance of the spectrum side and of the whole `verify` run.

The substitution u = c*v maps the instance (K, b) to the equivalent instance
(cK, b/c), so `gaudin spectrum` must give both the same check verdicts and
the same number of characters, and `gaudin verify` the same verdicts and the
same number of Bethe-root solutions.  Reordering the tensor factors, that
is permuting b together with the partitions, must not change them either.
"""

import functools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gaudin.bae import newton_solve
from gaudin.betheop import build_bethe_operator, check_polynomiality, wronskian_identity
from gaudin.harness import InstanceConfig, membership_checks, spectrum_pipeline, verify_pipeline
from gaudin.polynomials import Poly
from gaudin.scalars import format_scalar, parse_scalar
from gaudin.spaces import QuasiExpSpace
from gaudin.spectral import spectrum_analysis

from oracles import report_kernels

F = Fraction

# name -> (number of vector factors at b = 0, 1, ..., weight)
SHAPES = {"lam22-4pts": (4, (2, 2)), "lam32-5pts": (5, (3, 2))}


@functools.lru_cache(maxsize=None)
def spectrum_verdicts(shape, c, gap=F(1, 2)):
    """Verdicts and character count of `spectrum` on the shape with K = c (0, gap) and b = 0, 1/c, 2/c, ..."""
    npts, weight = SHAPES[shape]
    data = {
        "N": 2,
        "K": [str(c * k) for k in (F(0), gap)],
        "partitions": [[1]] * npts,
        "b": [str(F(b) / c) for b in range(npts)],
        "weight": list(weight),
    }
    out = spectrum_pipeline(InstanceConfig.from_dict(data))
    return {check.name: check.passed for check in out["checks"]}, len(out["characters"])


@pytest.mark.parametrize(
    "shape, c",
    [
        ("lam22-4pts", F(1, 1000)),
        ("lam22-4pts", F(1000)),
        ("lam32-5pts", F(1, 1000)),
        ("lam32-5pts", F(1000)),
    ],
    ids=["lam22-4pts-c=1/1000", "lam22-4pts-c=1000", "lam32-5pts-c=1/1000", "lam32-5pts-c=1000"],
)
def test_spectrum_invariant_under_scaling(shape, c):
    assert spectrum_verdicts(shape, c) == spectrum_verdicts(shape, F(1))


@pytest.mark.parametrize("gap", [F(1, 200), F(1, 2000)], ids=["gap=1/200", "gap=1/2000"])
@pytest.mark.parametrize("c", [F(1, 1000), F(1000)], ids=["c=1/1000", "c=1000"])
def test_small_exponent_gap_spectrum_invariant_under_scaling(gap, c):
    """bae-real with the exponent gap cut to 1/200 and 1/2000: at every scale every check of the spectrum
    passes, kernel-membership included, on 6 characters."""
    verdicts, count = spectrum_verdicts("lam22-4pts", c, gap)
    assert (verdicts, count) == spectrum_verdicts("lam22-4pts", F(1), gap)
    assert count == 6 and verdicts["kernel-membership"] and all(verdicts.values())


# name -> (K, number of vector factors at b = 0, 1, ..., weight)
VERIFY_SHAPES = {"golden": ((0, 1), 2, (1, 1)), "bae-real": ((0, F(1, 2)), 4, (2, 2))}


def verify_config(shape, c):
    K, npts, weight = VERIFY_SHAPES[shape]
    data = {
        "N": 2,
        "K": [str(c * k) for k in K],
        "partitions": [[1]] * npts,
        "b": [str(F(b) / c) for b in range(npts)],
        "weight": list(weight),
    }
    return InstanceConfig.from_dict(data)


@functools.lru_cache(maxsize=None)
def verify_verdicts(shape, c):
    out = verify_pipeline(verify_config(shape, c))
    return {check.name: check.passed for check in out["checks"]}, len(out["bae"])


@pytest.mark.parametrize("shape", sorted(VERIFY_SHAPES))
@pytest.mark.parametrize("c", [F(1, 1000), F(1000)], ids=["c=1/1000", "c=1000"])
def test_verify_invariant_under_scaling(shape, c):
    assert verify_verdicts(shape, c) == verify_verdicts(shape, F(1))


@functools.lru_cache(maxsize=None)
def bae_real_newton_counters(c, seed):
    return newton_solve(verify_config("bae-real", c).spec, seed=seed).counters


@pytest.mark.parametrize("seed", [2024, 101])
@pytest.mark.parametrize("c", [F(1, 1000), F(1000)], ids=["c=1/1000", "c=1000"])
def test_newton_counters_invariant_under_scaling(c, seed):
    """The root search runs in units of the smallest gap, so every Newton
    counter, retired rows and evaluations included, is the same at every
    scale."""
    assert bae_real_newton_counters(c, seed) == bae_real_newton_counters(F(1), seed)


def mixed_cell_spec(c, partitions):
    data = {
        "N": 2,
        "K": [str(c * k) for k in (F(0), F(1))],
        "partitions": partitions,
        "b": [str(F(b) / c) for b in range(2)],
        "weight": [2, 2],
    }
    return InstanceConfig.from_dict(data).spec


def swapped_failures(out, swapped_spec) -> set:
    """The membership checks that fail when the block of a ``spectrum_pipeline`` result is decided against
    other partitions of the same sizes, which keep the pole polynomial."""
    op = replace(out["operator"], spec=swapped_spec)
    return {c["name"] for c in membership_checks(op.spec, wronskian_identity(op), check_polynomiality(op))
            if not c["passed"]}


@pytest.mark.parametrize("c", [F(1), F(1, 1000), F(1000)], ids=["c=1", "c=1/1000", "c=1000"])
def test_wrong_partition_fails_float_membership(c):
    """The block over b = (0, 1/c) with partitions ((2, 0), (1, 1)) passes membership at every scale,
    also where its float kernel sits at large or close points, and a wrong cell is still rejected:
    decided against the swapped partitions, which keep the pole polynomial, it fails at both points."""
    out = spectrum_pipeline(InstanceConfig(mixed_cell_spec(c, [[2, 0], [1, 1]])))
    entry, = out["characters"]
    assert entry["membership"] and all(check.passed for check in out["checks"])
    failed = swapped_failures(out, mixed_cell_spec(c, [[1, 1], [2, 0]]))
    assert failed == {"indicial-exponents-at-point-0", "indicial-exponents-at-point-1"}


def five_point_spec(c, far):
    """K = c*(0, 1/2); vector factors at b = 0, 1/c, 2/c and the cells `far` at 3/c, 4/c."""
    data = {
        "N": 2,
        "K": [str(c * k) for k in (F(0), F(1, 2))],
        "partitions": [[1], [1], [1], *far],
        "b": [str(F(b) / c) for b in range(5)],
        "weight": [4, 3],
    }
    return InstanceConfig.from_dict(data).spec


@functools.lru_cache(maxsize=None)
def five_point_kernels():
    spec = five_point_spec(F(1), [[2, 0], [1, 1]])
    return tuple(report_kernels(spectrum_analysis(build_bethe_operator(spec)), spec))


def scaled_space(X, c):
    """{f(c*v) : f in X}, the same space over the instance scaled by c.

    Coefficient k of a degree-d polynomial part is multiplied by c**(k - d),
    which keeps the part monic and adds no cancellation, so the scaled space
    carries the roundoff of X and no more.
    """
    polys = [
        Poly([a * float(c) ** (k - p.degree) for k, a in enumerate(p.coeffs)]) for p in X.polys
    ]
    return QuasiExpSpace([k * c for k in X.exponents], polys)


@pytest.mark.parametrize("c", [F(1), F(1, 1000), F(1000)], ids=["c=1", "c=1/1000", "c=1000"])
def test_wrong_partition_fails_float_membership_at_five_points(c):
    """The five-point shape of lam32-5pts with mixed cells at the two far points.

    At c = 1/1000 the points reach 4000; at c = 1000 they are 1/1000 apart
    and the indicial polynomials are tiny, so only an exact comparison
    tells a wrong cell from a right one.  All 7 characters must pass their
    own partitions, and the block decided against the swapped far cells,
    which keep the pole polynomial, must fail at exactly the two swapped
    points.
    """
    out = spectrum_pipeline(InstanceConfig(five_point_spec(c, [[2, 0], [1, 1]])))
    assert len(out["characters"]) == 7 and all(entry["membership"] for entry in out["characters"])
    failed = swapped_failures(out, five_point_spec(c, [[1, 1], [2, 0]]))
    assert failed == {"indicial-exponents-at-point-3", "indicial-exponents-at-point-4"}


def _relative_distance(X, Y):
    """Largest relative difference between matching coefficients of two spaces."""
    return max(
        abs(complex(a) - complex(b)) / max(abs(complex(a)), abs(complex(b)))
        for p, q in zip(X.polys, Y.polys)
        for a, b in zip(p.coeffs, q.coeffs)
    )


@pytest.mark.parametrize("c", [F(1), F(1, 1000), F(1000)], ids=["c=1", "c=1/1000", "c=1000"])
def test_kernel_recovery_invariant_under_scaling(c):
    """Kernel recovery on the five-point mixed-cell shape at every scale.

    At c = 1/1000 the points reach 4000 and K_2 = 1/2000, so the kernel
    system is badly scaled in u; it must be solved in units of the smallest
    gap between the points.  Every kernel must be recovered, pass membership
    and be the c = 1 kernel of some character, scaled by c.
    """
    spec = five_point_spec(c, [[2, 0], [1, 1]])
    out = spectrum_pipeline(InstanceConfig(spec))
    kernels = report_kernels(out["spectrum"], spec)
    assert len(kernels) == 7
    assert all(entry["membership"] for entry in out["characters"])
    scaled = [scaled_space(X, c) for X in five_point_kernels()]
    matched = {min(range(7), key=lambda k: _relative_distance(Y, scaled[k])) for Y in kernels}
    assert len(matched) == 7
    for Y in kernels:
        assert min(_relative_distance(Y, Z) for Z in scaled) <= 1e-9


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture_data(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


@functools.lru_cache(maxsize=None)
def reordered_verdicts(name, order):
    """Verdicts and counts of `verify` with the tensor factors taken in this order."""
    data = fixture_data(name)
    for key in ("b", "partitions"):
        data[key] = [data[key][s] for s in order]
    out = verify_pipeline(InstanceConfig.from_dict(data))
    verdicts = [(check.name, bool(check.passed)) for check in out["checks"]]
    return verdicts, len(out["characters"]), len(out.get("bae", []))


@pytest.mark.parametrize("name", ["golden_n2", "count_n2_n4", "mixed_cells", "hook_n3"])
@pytest.mark.parametrize("how", ["reversed", "rotated"])
def test_verify_invariant_under_reordering(name, how):
    identity = tuple(range(len(fixture_data(name)["b"])))
    order = identity[::-1] if how == "reversed" else identity[1:] + identity[:1]
    assert reordered_verdicts(name, order) == reordered_verdicts(name, identity)


def _gauss_n3(seed, c, order):
    """gauss_n3 (data over Q(i), N=3) scaled by c, with its factors taken in this order."""
    data = fixture_data("gauss_n3")
    data["K"] = [format_scalar(parse_scalar(k) * c) for k in data["K"]]
    data["b"] = [format_scalar(parse_scalar(data["b"][s]) * (1 / c)) for s in order]
    data["partitions"] = [data["partitions"][s] for s in order]
    data["options"] = {**data["options"], "seed": seed}
    return data


@functools.lru_cache(maxsize=None)
def gauss_n3_verdicts(seed, c, order):
    out = spectrum_pipeline(InstanceConfig.from_dict(_gauss_n3(seed, c, order)))
    return [(check.name, bool(check.passed)) for check in out["checks"]], len(out["characters"])


@pytest.mark.parametrize("seed", [2024, 1])
@pytest.mark.parametrize("c, order", [(F(1), (0, 1, 2, 3)), (F(1, 1000), (0, 1, 2, 3)), (F(1000), (0, 1, 2, 3)),
                                      (F(1), (3, 1, 0, 2))], ids=["c=1", "c=1/1000", "c=1000", "reordered"])
def test_complex_n3_spectrum_invariant_under_scaling_and_reordering(seed, c, order):
    """The first complex block with N=3, whose non-symmetric eigenproblem takes eig's vectors unrefined:
    scaled by c or with its factors reordered, spectrum gives the same verdicts, all passing, and 12 characters."""
    verdicts, count = gauss_n3_verdicts(seed, c, order)
    assert (verdicts, count) == gauss_n3_verdicts(seed, F(1), (0, 1, 2, 3))
    assert count == 12 and all(passed for _, passed in verdicts)
