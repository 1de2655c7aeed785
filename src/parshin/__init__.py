"""Exact multidimensional residues and Tate-type Lie cocycles via operator traces.

The package computes Parshin-style residues of Laurent forms and the
Heisenberg / affine Kac-Moody / Virasoro family of Lie cocycles through one
mechanism: trace formulas for banded lattice operators cut by half-space
projectors.  Every identity the construction rests on (cube-complex
relations, contracting homotopies, the spectral-sequence lift) is exposed
and machine-verified against independent oracles in exact rational
arithmetic.

``import parshin`` loads the residue and cocycle layers and the cube complex
(``errors``, ``matrices``, ``liealg``, ``laurent``, ``opalg``, ``residue``,
``cocycle``, ``cube``).  The chain type and the seeded checks load on first
use: ``TensorChain``, ``verify_cocycle``, ``operator_vs_closed_form`` and the
submodules ``chains``, ``sampling`` and ``verify`` resolve through the module
``__getattr__`` below, so a process that computes a residue never compiles
them.
"""

import importlib

from .cocycle import flavor, phi, phi_closed_form, virasoro_phi, virasoro_table
from .cube import (
    CubeElement,
    boundary,
    boundary_hat,
    epsilon,
    homotopy,
    homotopy_hat,
    lift_closed_form,
    lift_iterative,
    rho,
)
from .errors import ParshinError
from .laurent import GLaurent, LaurentPoly, parse_poly, parshin_oracle, partial
from .liealg import LieAlgebra, LieElement, abelian, ad, heisenberg3, is_centreless, killing_nform, sl2, validate
from .opalg import (
    Box,
    KernelAtom,
    LatticeOperator,
    WeightPoly,
    derivation_operator,
    mul_operator,
    projector,
)
from .residue import ResidueReport, ack_residue_n1, raw_sum, residue, residue_det_monomial

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CubeElement",
    "GLaurent",
    "KernelAtom",
    "LatticeOperator",
    "LaurentPoly",
    "LieAlgebra",
    "LieElement",
    "ParshinError",
    "ResidueReport",
    "TensorChain",
    "WeightPoly",
    "abelian",
    "ack_residue_n1",
    "ad",
    "boundary",
    "boundary_hat",
    "derivation_operator",
    "epsilon",
    "flavor",
    "heisenberg3",
    "homotopy",
    "homotopy_hat",
    "is_centreless",
    "killing_nform",
    "lift_closed_form",
    "lift_iterative",
    "mul_operator",
    "operator_vs_closed_form",
    "parse_poly",
    "parshin_oracle",
    "partial",
    "phi",
    "phi_closed_form",
    "projector",
    "raw_sum",
    "residue",
    "residue_det_monomial",
    "rho",
    "sl2",
    "validate",
    "verify_cocycle",
    "virasoro_phi",
    "virasoro_table",
]

# exported names whose module loads on first use, and the modules that do
_LAZY_NAMES = {"TensorChain": "chains", "operator_vs_closed_form": "verify", "verify_cocycle": "verify"}
_LAZY_MODULES = ("chains", "sampling", "verify")


def __getattr__(name):
    if name in _LAZY_MODULES:
        # importing a submodule binds it as this package's attribute
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(__getattr__(_LAZY_NAMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
