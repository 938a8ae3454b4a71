"""Scaling invariance of the spectrum side and of the whole `verify` run.

The substitution u = c*v maps the instance (K, b) to the equivalent instance
(cK, b/c), so `gaudin spectrum` must give both the same check verdicts and
the same number of characters, and `gaudin verify` the same verdicts and the
same number of Bethe-root solutions.
"""

import functools
from fractions import Fraction

import pytest

from gaudin.harness import InstanceConfig, spectrum_pipeline, verify_pipeline

F = Fraction

# name -> (number of vector factors at b = 0, 1, ..., weight); K = (0, 1/2)
SHAPES = {"lam22-4pts": (4, (2, 2)), "lam32-5pts": (5, (3, 2))}


@functools.lru_cache(maxsize=None)
def spectrum_verdicts(shape, c):
    npts, weight = SHAPES[shape]
    data = {
        "N": 2,
        "K": [str(c * k) for k in (F(0), F(1, 2))],
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
        pytest.param(
            "lam32-5pts",
            F(1, 1000),
            marks=pytest.mark.xfail(
                strict=True,
                reason="points up to 4000: the float Taylor shift in spaces.membership_test "
                "misreads indicial-exponents-at-point-*",
            ),
        ),
        ("lam32-5pts", F(1000)),
    ],
    ids=["lam22-4pts-c=1/1000", "lam22-4pts-c=1000", "lam32-5pts-c=1/1000", "lam32-5pts-c=1000"],
)
def test_spectrum_invariant_under_scaling(shape, c):
    assert spectrum_verdicts(shape, c) == spectrum_verdicts(shape, F(1))


# name -> (K, number of vector factors at b = 0, 1, ..., weight)
VERIFY_SHAPES = {"golden": ((0, 1), 2, (1, 1)), "bae-real": ((0, F(1, 2)), 4, (2, 2))}


@functools.lru_cache(maxsize=None)
def verify_verdicts(shape, c):
    K, npts, weight = VERIFY_SHAPES[shape]
    data = {
        "N": 2,
        "K": [str(c * k) for k in K],
        "partitions": [[1]] * npts,
        "b": [str(F(b) / c) for b in range(npts)],
        "weight": list(weight),
    }
    out = verify_pipeline(InstanceConfig.from_dict(data))
    return {check.name: check.passed for check in out["checks"]}, len(out["bae"])


@pytest.mark.parametrize("shape", sorted(VERIFY_SHAPES))
@pytest.mark.parametrize("c", [F(1, 1000), F(1000)], ids=["c=1/1000", "c=1000"])
def test_verify_invariant_under_scaling(shape, c):
    assert verify_verdicts(shape, c) == verify_verdicts(shape, F(1))
