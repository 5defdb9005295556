"""Wall time and rho of compute_spectrum on fixed gallery workloads.

Each workload is the gallery entry's default expression at resolution n*I:
graphene at 41 (the two-grid propagator, 9 pinv per sample), curlcurl at 64
and laplacian-rb at 64 (the red-black propagator, in no perfbench workload).
Every workload runs five times (REPEATS) in this process and the record keeps each
run's seconds, the best and the median, and the rho of the last run, so a
speed-up that changes an answer shows in the file.  Every run starts from
cold caches: the lru_caches of stencilfa.symbol (pinv_matrix's memo) and
stencilfa.crystal.phase_table are cleared before it, so no run inherits the
last one's results.  Before every run and after the last one, CAL_CHUNKS calibration
chunks of perfbench/workload.py (fixed work that calls no stencilfa code) are
timed in the same process.  Each run's entry of runs_rel is its seconds over
the median of the chunks timed just before and just after it (cal_runs_s),
and median_rel is the median of those ratios: a load swing inside a record
is divided out run by run, and records written under different host loads
compare the code.  BLAS runs on one thread unless the environment sets
otherwise.  The script times the stencilfa of the checkout it sits in: it
puts that checkout's src/ first on the module path and refuses a stencilfa
imported from anywhere else.

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
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
import stencilfa  # noqa: E402

if not Path(stencilfa.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: imported stencilfa from {stencilfa.__file__}, not {SRC}")

from stencilfa import build, compute_spectrum, crystal, parse, symbol  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from workload import Calibration  # noqa: E402

REPEATS = 5
CAL_CHUNKS = 8
RESOLUTION = {
    "full": {"graphene": 41, "curlcurl": 64, "laplacian-rb": 64},
    "tiny": {"graphene": 5, "curlcurl": 4, "laplacian-rb": 4},
}


def calibrate(cal: Calibration) -> list[float]:
    """The seconds of CAL_CHUNKS calibration chunks timed one after another."""
    start = len(cal.chunks)
    for _ in range(CAL_CHUNKS):
        cal.chunk()
    return cal.chunks[start:]


def bench(name: str, n: int, cal: Calibration) -> dict:
    entry = build(name)
    expr = parse(entry.expression)
    m = n * np.eye(2, dtype=int)
    caches = {crystal.phase_table, *(f for f in vars(symbol).values() if hasattr(f, "cache_clear"))}
    runs = []
    cal.chunks.clear()
    around = [calibrate(cal)]
    for _ in range(REPEATS):
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        result = compute_spectrum(expr, entry.operators, m)
        runs.append(time.perf_counter() - start)
        around.append(calibrate(cal))
    # the chunks just before and just after each run
    chunks = [statistics.median(before + after) for before, after in zip(around, around[1:])]
    rel = [t / chunk for t, chunk in zip(runs, chunks)]
    return {
        "name": name,
        "resolution": n,
        "expression": entry.expression,
        "samples": len(result.samples),
        "runs_s": [round(t, 6) for t in runs],
        "best_s": round(min(runs), 6),
        "median_s": round(statistics.median(runs), 6),
        "cal_median_s": round(statistics.median(cal.chunks), 6),
        "cal_runs_s": [round(chunk, 6) for chunk in chunks],
        "runs_rel": [round(r, 4) for r in rel],
        "median_rel": round(statistics.median(rel), 4),
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
    cal = Calibration()
    cal.chunk()  # first calls into LAPACK, outside the timed chunks
    for name, n in RESOLUTION[args.size].items():
        row = bench(name, n, cal)
        record["workloads"].append(row)
        print(f"{name:13s} res {n:3d}  best {row['best_s']:.3f} s  "
              f"median {row['median_s']:.3f} s  median_rel {row['median_rel']:.1f}  "
              f"rho {row['rho']:.8f}")
    path = args.out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
