"""Wall time and rho of compute_spectrum on fixed gallery workloads.

Each workload is the gallery entry's default expression at resolution n*I:
graphene at 41 (the two-grid propagator, 9 pinv per sample), curlcurl at 64
and laplacian-rb at 64 (the red-black propagator, in no perfbench workload).
Every workload runs five times (REPEATS) in this process and the record keeps each
run's seconds, the best and the median, and the rho of the last run, so a
speed-up that changes an answer shows in the file.  BLAS runs on one thread
unless the environment sets otherwise.

    python3 scripts/bench_spectrum.py --tag main
    python3 scripts/bench_spectrum.py --tag ci --size tiny --out-dir /tmp

writes BENCH_<tag>.json in --out-dir (default: the current directory).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from stencilfa import build, compute_spectrum, parse

REPEATS = 5
RESOLUTION = {
    "full": {"graphene": 41, "curlcurl": 64, "laplacian-rb": 64},
    "tiny": {"graphene": 5, "curlcurl": 4, "laplacian-rb": 4},
}


def bench(name: str, n: int) -> dict:
    entry = build(name)
    expr = parse(entry.expression)
    m = n * np.eye(2, dtype=int)
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = compute_spectrum(expr, entry.operators, m)
        runs.append(time.perf_counter() - start)
    return {
        "name": name,
        "resolution": n,
        "expression": entry.expression,
        "samples": len(result.samples),
        "runs_s": [round(t, 6) for t in runs],
        "best_s": round(min(runs), 6),
        "median_s": round(statistics.median(runs), 6),
        "rho": result.rho,
        "rho_hex": result.rho.hex(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--size", choices=sorted(RESOLUTION), default="full")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args()

    record = {
        "tag": args.tag,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workloads": [],
    }
    for name, n in RESOLUTION[args.size].items():
        row = bench(name, n)
        record["workloads"].append(row)
        print(f"{name:13s} res {n:3d}  best {row['best_s']:.3f} s  "
              f"median {row['median_s']:.3f} s  rho {row['rho']:.8f}")
    path = args.out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
