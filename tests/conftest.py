from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gaudin.algebra import ModuleSpec, Partition, build_embedded_module, enumerate_indices
from gaudin.bae import weight_function
from gaudin.betheop import build_bethe_operator
from gaudin.linalg import MatrixPoly
from gaudin.polynomials import Poly
from gaudin.spaces import QuasiExpSpace


def make_spec(data) -> ModuleSpec:
    return ModuleSpec(
        data["N"], data["K"], data["partitions"], data["b"], data["weight"]
    )


def weight_function_by_index(levels, rank: int, counts) -> dict:
    """The weight function at the roots of ``levels`` as {J: omega_J}, J in ``enumerate_indices`` order."""
    return dict(zip(enumerate_indices(rank, sum(counts), counts), weight_function(levels, rank, counts)))


def random_exact_space(N: int, exponents, lam, rng) -> QuasiExpSpace:
    """Monic parts with small random rational coefficients."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    polys = []
    for d in lam.padded(N):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
        polys.append(Poly(coeffs + [Fraction(1)]))
    return QuasiExpSpace(tuple(exponents), tuple(polys))


def mutant_operator(op, i, num: MatrixPoly, den: Poly):
    """A copy of op with B_i replaced by B_i + num / den, over the denominator op.denominator * den."""
    nums = [a * den for a in op.numerators]
    nums[i - 1] = nums[i - 1] + num * op.denominator
    return replace(op, numerators=nums, denominator=op.denominator * den)


def unit_matrix(dim, i, j) -> MatrixPoly:
    """The constant matrix polynomial e_ij on a block of dimension dim."""
    m = np.zeros((1, dim, dim), dtype=object)
    m[0, i, j] = 1
    return MatrixPoly(m)


GOLDEN = {"N": 2, "K": ("0", "1"), "partitions": ((1,), (1,)), "b": ("0", "1"), "weight": (1, 1)}

# (K_2 - K_1)^2 + 4/(b_1 - b_2)^2 = 0: the 2-dim weight block is one Jordan
# block, so the Bethe algebra does not act semisimply
JORDAN = {"N": 2, "K": ("0", "1"), "partitions": ((1,), (1,)), "b": ("0", "2i"), "weight": (1, 1)}

# the instance family for the exact-identity criteria
EXACT_FAMILY = [
    {"N": 1, "K": ("1",), "partitions": ((1,),), "b": ("0",), "weight": (1,)},
    GOLDEN,
    {"N": 2, "K": ("0", "1"), "partitions": ((2, 0),), "b": ("0",), "weight": (1, 1)},
    {"N": 2, "K": ("0", "1"), "partitions": ((1, 1),), "b": ("0",), "weight": (1, 1)},
    {"N": 3, "K": ("0", "1", "2"), "partitions": ((1,), (1,), (1,)), "b": ("0", "1", "2"), "weight": (1, 1, 1)},
]

# real-data count instances; exponent gaps are chosen non-integral because
# integral gaps can make a fiber point non-generic (see the ledger test in
# test_bae.py), which is invisible to the spectral side but starves the
# Bethe-ansatz parameterization
COUNT_FAMILY = [
    {"N": 2, "K": ("0", "1/2"), "partitions": ((1,),) * 4, "b": ("0", "1", "2", "3"), "weight": (2, 2)},
    {"N": 3, "K": ("0", "1", "5/2"), "partitions": ((1,),) * 3, "b": ("0", "1", "2"), "weight": (1, 1, 1)},
    {"N": 2, "K": ("0", "1"), "partitions": ((2, 0), (1, 1)), "b": ("0", "1"), "weight": (2, 2)},
]


@pytest.fixture(scope="session")
def golden_spec():
    return make_spec(GOLDEN)


@pytest.fixture(scope="session")
def golden_module(golden_spec):
    return build_embedded_module(golden_spec)


@pytest.fixture(scope="session")
def golden_op(golden_spec, golden_module):
    return build_bethe_operator(golden_spec, golden_module)


@pytest.fixture(scope="session")
def exact_family_ops():
    out = []
    for data in EXACT_FAMILY:
        spec = make_spec(data)
        module = build_embedded_module(spec)
        out.append(build_bethe_operator(spec, module))
    return out


@pytest.fixture(scope="session")
def count_family_specs():
    return [make_spec(data) for data in COUNT_FAMILY]
