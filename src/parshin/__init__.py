"""Exact multidimensional residues and Tate-type Lie cocycles via operator traces.

The package computes Parshin-style residues of Laurent forms and the
Heisenberg / affine Kac-Moody / Virasoro family of Lie cocycles through one
mechanism: trace formulas for banded lattice operators cut by half-space
projectors.  Every identity the construction rests on (cube-complex
relations, contracting homotopies, the spectral-sequence lift) is exposed
and machine-verified against independent oracles in exact rational
arithmetic.
"""

from .chains import TensorChain
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
from .verify import operator_vs_closed_form, verify_cocycle

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
