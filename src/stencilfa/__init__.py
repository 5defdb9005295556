"""Fourier analysis of translationally invariant operators on crystals.

The package models discretized PDE operators, smoothers, and grid-transfer
operators as multiplication operators on crystal lattices, evaluates their
frequency symbols exactly on rational samples of the dual torus, and computes
spectra and spectral radii of composite expressions such as two-grid error
propagators.  See the README for a tour and ``stencilfa.gallery`` for three
fully worked examples.
"""

from .crystal import (
    SAMPLE_CAP,
    DualSample,
    DualTorus,
    Lattice,
    QuotientMap,
    StructureElement,
    TorusTooLargeError,
    dual_basis,
    lcm_lattice,
    sample_dual_torus,
)
from .expr import ExprSyntaxError, eval_position, parse, render
from .gallery import GalleryEntry, build, entry_names
from .intlat import hnf, snf
from .operator import (
    MultiplicationOperator,
    add,
    adjoint,
    change_structure_element,
    identity_operator,
    lattice_coarsening,
    make_compatible,
    mask_central,
    mul,
    normalize,
    scale,
    triangular_splitting,
)
from .oracle import assemble_dense, eval_dense, wave_basis
from .symbol import (
    SpectrumRecord,
    SpectrumRecords,
    SpectrumResult,
    compute_spectrum,
    pinv_matrix,
    spectrum_blocks,
    symbol_at,
)

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_CAP",
    "DualSample",
    "DualTorus",
    "ExprSyntaxError",
    "GalleryEntry",
    "Lattice",
    "MultiplicationOperator",
    "QuotientMap",
    "SpectrumRecord",
    "SpectrumRecords",
    "SpectrumResult",
    "StructureElement",
    "TorusTooLargeError",
    "add",
    "adjoint",
    "assemble_dense",
    "build",
    "change_structure_element",
    "compute_spectrum",
    "dual_basis",
    "entry_names",
    "eval_dense",
    "eval_position",
    "hnf",
    "identity_operator",
    "lattice_coarsening",
    "lcm_lattice",
    "make_compatible",
    "mask_central",
    "mul",
    "normalize",
    "parse",
    "pinv_matrix",
    "render",
    "sample_dual_torus",
    "scale",
    "snf",
    "spectrum_blocks",
    "symbol_at",
    "triangular_splitting",
    "wave_basis",
]
