"""Bethe algebra of the twisted gl_N Gaudin model, exactly, at desk scale.

Two sides of one correspondence:

* the spectral side: weight subspaces of tensor products of evaluation
  modules, the universal differential operator with matrix coefficients,
  and its simultaneous diagonalization;
* the function side: spaces of quasi-exponentials, Wronskians, fundamental
  differential operators, indicial exponents, and Bethe ansatz roots.

Construction-phase arithmetic is exact (rationals or Gaussian rationals);
floats appear only in the eigenvalue stage.
"""

__version__ = "0.1.0"

from .algebra import (
    ModuleSpec,
    Partition,
    build_embedded_module,
    enumerate_weight_basis,
    find_singular_vector,
)
from .bae import (
    bae_residual,
    newton_solve,
    root_coordinates_from_space,
    weight_function,
)
from .betheop import BetheOperator, build_bethe_operator
from .polynomials import Poly
from .spaces import (
    QuasiExpSpace,
    membership_test,
)
from .spectral import (
    Tolerances,
    character_to_operator,
    joint_diagonalize,
    kernel_from_operator,
    spectrum_analysis,
)

__all__ = [
    "BetheOperator",
    "ModuleSpec",
    "Partition",
    "Poly",
    "QuasiExpSpace",
    "Tolerances",
    "bae_residual",
    "build_bethe_operator",
    "build_embedded_module",
    "character_to_operator",
    "enumerate_weight_basis",
    "find_singular_vector",
    "joint_diagonalize",
    "kernel_from_operator",
    "membership_test",
    "newton_solve",
    "root_coordinates_from_space",
    "spectrum_analysis",
    "weight_function",
]
