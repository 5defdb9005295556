"""How the hybrid edge/node smoother for the curl-curl operator degrades.

The curl-curl bilinear form annihilates gradients, so the pointwise edge
sweep cannot damp the near-kernel gradient modes; the auxiliary nodal sweep
reaches them through the discrete gradient, but their damping is still set
by the zero-order term.  The spectral radius therefore approaches 1 like
1 - sigma_h/2 as sigma_h -> 0, which this sweep makes visible.

``--resolution M`` samples the torus A*M of the edge lattice A, the torus of
``stencilfa spectrum --example curlcurl --resolution M``: compute_spectrum
binds only the operators the expression names, so the entry's restriction R,
which lives on the coarse lattice 2A and is not in the expression, plays no
part.

    python3 scripts/curlcurl_smoother_scaling.py
    python3 scripts/curlcurl_smoother_scaling.py --resolution 16 --csv out.csv
"""

import argparse
from pathlib import Path

import numpy as np

from stencilfa import build, compute_spectrum, parse


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolution", type=int, default=8)
    ap.add_argument(
        "--sigma",
        type=float,
        nargs="+",
        default=[10.0 ** e for e in (-3, -2.5, -2, -1.5, -1, -0.5, 0)],
    )
    ap.add_argument("--csv", help="also write the table to this file")
    args = ap.parse_args()

    m = args.resolution * np.eye(2, dtype=int)
    rows = []
    print(f"{'sigma_h':>10s} {'rho':>12s} {'1 - sigma_h/2':>14s}")
    for sigma in sorted(args.sigma):
        entry = build("curlcurl", sigma_h=sigma)
        result = compute_spectrum(parse(entry.expression), entry.operators, m)
        reference = 1.0 - sigma / 2.0
        print(f"{sigma:10.4g} {result.rho:12.8f} {reference:14.8f}")
        rows.append((sigma, result.rho, reference))

    if args.csv:
        lines = ["sigma_h,rho,one_minus_half_sigma"]
        lines += [f"{s!r},{r!r},{p!r}" for s, r, p in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
