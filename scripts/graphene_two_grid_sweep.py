"""Two-grid convergence factor of the graphene model versus relaxation weight.

Sweeps omega for the four-color hexagon smoother with a Galerkin coarse-grid
correction and prints rho(omega).  At omega = 0.5 and the default resolution
of 41 the factor lands on 0.16685902, matching the reference value to the
printed digits.

    python3 scripts/graphene_two_grid_sweep.py
    python3 scripts/graphene_two_grid_sweep.py --resolution 21 --omega 0.4 0.5 0.6
"""

import argparse
import time

import numpy as np

from stencilfa import build, compute_spectrum, parse


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolution", type=int, default=41)
    ap.add_argument(
        "--omega",
        type=float,
        nargs="+",
        default=[round(0.1 * i, 1) for i in range(2, 11)],
    )
    args = ap.parse_args()

    m = args.resolution * np.eye(2, dtype=int)
    print(f"resolution {args.resolution} x {args.resolution} on the doubled crystal")
    print(f"{'omega':>8s} {'rho':>12s} {'seconds':>8s}")
    best = (None, np.inf)
    for omega in args.omega:
        entry = build("graphene", omega=omega)
        start = time.perf_counter()
        result = compute_spectrum(parse(entry.expression), entry.operators, m)
        elapsed = time.perf_counter() - start
        print(f"{omega:8.3f} {result.rho:12.8f} {elapsed:8.2f}")
        if result.rho < best[1]:
            best = (omega, result.rho)
    print(f"\nbest sampled weight: omega = {best[0]:g} with rho = {best[1]:.8f}")


if __name__ == "__main__":
    main()
