"""Built-in example problems with exact multiplier tables.

Three classical analyses ship with the package:

* ``laplacian-rb``: the 5-point Laplacian rewritten on the red-black
  sublattice, with the red and black half-sweep operators of a red-black
  Gauss-Seidel iteration.
* ``graphene``: the tight-binding Hamiltonian on the hexagonal crystal, a
  four-color overlapping block smoother and a Galerkin two-grid method.
* ``curlcurl``: the staggered edge discretization of the 2D curl-curl
  equation with a half-hybrid (auxiliary nodal space) smoother and a
  Galerkin coarse-grid correction.

Every multiplier table is transcribed literally; nothing in here is fitted
or tuned.  Each constructor returns a GalleryEntry bundling the named
operators, a default analysis expression, and a default resolution matrix,
so the spectra can be reproduced without further input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, sqrt
from typing import Callable

import numpy as np

from .crystal import Lattice, StructureElement
from .expr import eval_position, literal_text, parse
from .operator import (
    MultiplicationOperator,
    change_structure_element,
    identity_operator,
    lattice_coarsening,
    mask_central,
    normalize,
    triangular_splitting,
)


@dataclass(frozen=True)
class GalleryEntry:
    """A named operator set plus its default ``expression`` and ``resolution``.

    ``build`` and ``cli.load_operator_file`` both return one.  Either default
    may be None (a file without it); ``resolution`` is the matrix, as a tuple
    of int tuples, that ``compute_spectrum`` takes as ``m``.
    """

    name: str
    parameters: dict[str, float]
    operators: dict[str, MultiplicationOperator]
    expression: str | None
    resolution: tuple[tuple[int, ...], ...] | None
    notes: str = ""

    @property
    def dim(self) -> int:
        return next(iter(self.operators.values())).dim


def laplacian_rb(h: float = 1.0) -> GalleryEntry:
    """5-point Laplacian on the red-black crystal with half-sweep operators.

    The scalar Laplacian lives on the square lattice with spacing h; the
    red-black splitting rewrites it on the sublattice spanned by a1+a2 and
    a1-a2, where red points sit on the sublattice itself and black points at
    the cell center.  Sr and Sb keep only the central diagonal entry of the
    red and black slot, so (I - pinv(Sb)*L)*(I - pinv(Sr)*L) is the error
    propagator of one red-black Gauss-Seidel sweep.
    """
    if not (isfinite(h) and h > 0):
        raise ValueError("grid spacing h must be finite and positive")
    a = Lattice(np.eye(2) / h)
    point = StructureElement([(0, 0)])
    w = 1.0 / (h * h)
    five_point = {
        (0, 0): [[4.0 * w]],
        (1, 0): [[-w]],
        (-1, 0): [[-w]],
        (0, 1): [[-w]],
        (0, -1): [[-w]],
    }
    l_fine = MultiplicationOperator(a, point, point, five_point)
    rb = Lattice(a.basis @ np.array([[1.0, 1.0], [1.0, -1.0]]))
    l = normalize(lattice_coarsening(l_fine, rb))
    sr = mask_central(l, (True, False))
    sb = mask_central(l, (False, True))
    ident = identity_operator(a, point)
    return GalleryEntry(
        name="laplacian-rb",
        parameters={"h": h},
        operators={"L": l, "Sr": sr, "Sb": sb, "I": ident},
        expression="(I - pinv(Sb)*L)*(I - pinv(Sr)*L)",
        resolution=((16, 0), (0, 16)),
        notes="5-point Laplacian, red-black Gauss-Seidel error propagator",
    )


def graphene(omega: float = 0.5) -> GalleryEntry:
    """Graphene tight-binding operator with 4-color smoother and two-grid.

    The hexagonal crystal has primitive vectors a1 = (3/2, sqrt(3)/2) and
    a2 = (3/2, -sqrt(3)/2) and two atoms per cell at (a1+a2)/3 and
    2(a1+a2)/3.  L couples nearest neighbors with weight -1.  The smoother
    partitions the crystal rewritten on 2A into overlapping six-atom
    hexagons, one family per shift in {0, a1, a2, a1+a2}; S1..S4 are the
    corresponding block-diagonal pieces.  R is the published restriction to
    the coarse two-atom crystal and the default expression is the two-grid
    error propagator G*E*G with a pre- and post-sweep of all four colors.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("relaxation weight omega must lie in (0, 1]")
    half = sqrt(3.0) / 2.0
    a = Lattice([[1.5, 1.5], [half, -half]])
    third = Fraction(1, 3)
    se = StructureElement([(third, third), (2 * third, 2 * third)])
    hopping = {
        (0, 0): [[0.0, -1.0], [-1.0, 0.0]],
        (0, -1): [[0.0, -1.0], [0.0, 0.0]],
        (1, 0): [[0.0, 0.0], [-1.0, 0.0]],
        (-1, 0): [[0.0, -1.0], [0.0, 0.0]],
        (0, 1): [[0.0, 0.0], [-1.0, 0.0]],
    }
    l = MultiplicationOperator(a, se, se, hopping)
    coarse = Lattice(2.0 * a.basis)
    l_hat = lattice_coarsening(l, coarse)

    # Overlapping hexagon blocks: shift the 8-point structure element by each
    # coset representative of A / 2A, then keep the six interior slots of the
    # central multiplier.
    hexagon = tuple(1 <= i <= 6 for i in range(8))
    shifts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    smoothers: dict[str, MultiplicationOperator] = {}
    for color, shift in enumerate(shifts, start=1):
        shifted = l_hat.domain_se.shifted(shift)
        l_shift = change_structure_element(l_hat, shifted, shifted)
        smoothers[f"S{color}"] = mask_central(l_shift, hexagon)

    # Restriction to the coarse two-atom crystal; offsets are in integer
    # coordinates of the 2A basis and the matrices act on the 8-slot fine
    # structure element (atom index fastest).
    quarter, half_w = 0.25, 0.5
    restrict_table = {
        (0, 0): [
            [0, 1, 0, -half_w, 0, -half_w, 0, quarter],
            [quarter, 0, -half_w, 0, -half_w, 0, 1, 0],
        ],
        (1, -1): [
            [0, 0, 0, 0, 0, quarter, 0, 0],
            [0, 0, 0, 0, quarter, 0, 0, 0],
        ],
        (0, -1): [
            [0, 0, 0, quarter, 0, -half_w, 0, -half_w],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ],
        (1, 0): [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [-half_w, 0, quarter, 0, -half_w, 0, 0, 0],
        ],
        (-1, -1): [
            [0, 0, 0, 0, 0, 0, 0, quarter],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ],
        (1, 1): [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [quarter, 0, 0, 0, 0, 0, 0, 0],
        ],
        (-1, 0): [
            [0, 0, 0, -half_w, 0, quarter, 0, -half_w],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ],
        (0, 1): [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [-half_w, 0, -half_w, 0, quarter, 0, 0, 0],
        ],
        (-1, 1): [
            [0, 0, 0, quarter, 0, 0, 0, 0],
            [0, 0, quarter, 0, 0, 0, 0, 0],
        ],
    }
    r = MultiplicationOperator(coarse, l_hat.domain_se, se, restrict_table)
    ident = identity_operator(a, se)

    scale = literal_text(float(omega))
    sweep = "*".join(f"(I - {scale}*pinv(S{color})*L)" for color in (1, 2, 3, 4))
    cgc = "(I - adj(R)*pinv(R*L*adj(R))*R*L)"
    return GalleryEntry(
        name="graphene",
        parameters={"omega": omega},
        operators={"L": l, **smoothers, "R": r, "I": ident},
        expression=f"{sweep}*{cgc}*{sweep}",
        resolution=((41, 0), (0, 41)),
        notes="graphene tight-binding, 4-color hexagon smoother, Galerkin two-grid",
    )


def curlcurl(sigma_h: float = 0.01) -> GalleryEntry:
    """Staggered curl-curl operator with the half-hybrid smoother.

    Degrees of freedom sit on the horizontal and vertical edge midpoints of
    the unit square lattice.  K is the curl-curl operator plus sigma_h times
    the mass term.  The smoother combines a lexicographic Gauss-Seidel sweep
    on the edges (bottom-to-top, left-to-right, with the vertical edge slot
    shifted by a1 - a2 so the sweep updates a horizontal edge before the
    vertical edge of the same cell) with one Gauss-Seidel sweep on the nodal
    auxiliary space reached through the discrete gradient R_N.  R is the
    published restriction for the Galerkin coarse-grid correction on 2A.
    """
    if not (isfinite(sigma_h) and sigma_h >= 0):
        raise ValueError("sigma_h must be finite and nonnegative")
    a = Lattice(np.eye(2))
    h_edge = (Fraction(1, 2), Fraction(0))
    v_edge = (Fraction(0), Fraction(1, 2))
    edges = StructureElement([h_edge, v_edge])
    d = -1.0 + sigma_h / 6.0
    c = 2.0 + 2.0 * sigma_h / 3.0
    curl_table = {
        (-1, 1): [[0.0, 0.0], [-1.0, 0.0]],
        (0, 1): [[d, 0.0], [1.0, 0.0]],
        (-1, 0): [[0.0, 0.0], [1.0, d]],
        (0, 0): [[c, -1.0], [-1.0, c]],
        (1, 0): [[0.0, 1.0], [0.0, d]],
        (0, -1): [[d, 1.0], [0.0, 0.0]],
        (1, -1): [[0.0, -1.0], [0.0, 0.0]],
    }
    k = MultiplicationOperator(a, edges, edges, curl_table)

    # Edge sweep: represent the vertical edge as e_v + a1 - a2 so that the
    # bottom-to-top/left-to-right order updates the horizontal edge first.
    hat = StructureElement([h_edge, (Fraction(1), Fraction(-1, 2))])
    k_hat = change_structure_element(k, hat, hat)
    s_e = triangular_splitting(k_hat)

    # Nodal auxiliary space: discrete gradient onto the lattice points.
    nodes = StructureElement([(0, 0)])
    r_n = MultiplicationOperator(
        a,
        edges,
        nodes,
        {
            (-1, 0): [[1.0, 0.0]],
            (0, 0): [[-1.0, -1.0]],
            (0, -1): [[0.0, 1.0]],
        },
    )
    k_n = eval_position(parse("R_N*K*adj(R_N)"), {"R_N": r_n, "K": k})
    s_n = triangular_splitting(k_n)

    # Coarse-grid restriction: the fine edges written on 2A (cell copies in
    # the order 0, a1, a2, a1+a2, edge slot fastest) map onto the two coarse
    # edges; each coarse edge averages its six nearest fine edges of the
    # same orientation.
    coarse = Lattice(2.0 * np.eye(2))
    f_points = []
    for cell in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for p in (h_edge, v_edge):
            f_points.append(tuple((q + s) / 2 for q, s in zip(p, cell)))
    fine_on_coarse = StructureElement(f_points)
    coarse_edges = StructureElement([h_edge, v_edge])
    quarter, half_w = 0.25, 0.5
    restrict_table = {
        (0, 0): [
            [half_w, 0, half_w, 0, quarter, 0, quarter, 0],
            [0, half_w, 0, quarter, 0, half_w, 0, quarter],
        ],
        (-1, 0): [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, quarter, 0, 0, 0, quarter],
        ],
        (0, -1): [
            [0, 0, 0, 0, quarter, 0, quarter, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ],
    }
    r = MultiplicationOperator(coarse, fine_on_coarse, coarse_edges, restrict_table)
    ident = identity_operator(a, edges)

    return GalleryEntry(
        name="curlcurl",
        parameters={"sigma_h": sigma_h},
        operators={"K": k, "S_E": s_e, "R_N": r_n, "S_N": s_n, "R": r, "I": ident},
        expression="(I - adj(R_N)*pinv(S_N)*R_N*K)*(I - pinv(S_E)*K)",
        resolution=((32, 0), (0, 32)),
        notes="curl-curl edge discretization, half-hybrid smoother",
    )


GALLERY: dict[str, Callable[..., GalleryEntry]] = {
    "laplacian-rb": laplacian_rb,
    "graphene": graphene,
    "curlcurl": curlcurl,
}


def build(name: str, **parameters: float) -> GalleryEntry:
    try:
        ctor = GALLERY[name]
    except KeyError:
        known = ", ".join(sorted(GALLERY))
        raise ValueError(f"unknown gallery entry '{name}' (known: {known})") from None
    return ctor(**parameters)


def entry_names() -> list[str]:
    return sorted(GALLERY)
