"""stencilfa benchmark: one workload, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graphene-sweep --seed 1 --seconds 20 --trace 0

The workload itself runs in a child process (perfbench/workload.py) that
imports stencilfa from ``src/`` and starts no threads of its own.  With
``--trace 0`` this launcher first times set-up in a few fresh processes,
then runs the workload untraced and reports the end-to-end metrics:
``wall_rel`` (mean seconds of one operation over the mean seconds of a
fixed calibration chunk timed in the same run), ``setup_s`` (median over the
set-up processes and the workload process) and ``peak_rss_mb`` (peak
resident memory of the workload process).  With ``--trace 1`` it reports the
per-layer metrics of a traced run instead, and the spans go to
``.perfbench_out/``.  The last line of standard output is the JSON result.
The environment (Python, numpy, BLAS and its threads, nproc, seed,
parameters) is printed on the line before it.

``--size tiny`` and ``--corrupt-reference`` exist for perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
WORKLOADS = ("graphene-sweep", "curlcurl-cli", "verify-dense")
SETUP_PROBES = 6  # extra fresh processes that only time set-up
CHILD_LIMIT_S = 170.0
BLAS_THREADS = "1"  # at most nproc; one thread keeps runs comparable on a shared host

END_TO_END_UNITS = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run workload.py with argv; returns its result line and its peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "workload.py"), *argv]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(mode="w+", encoding="utf-8", dir=OUT_DIR) as out:
        proc = subprocess.Popen(cmd, stdout=out, env=child_env())
        status = usage = None
        try:
            while status is None:
                pid, wait_status, wait_usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = wait_status, wait_usage
                elif time.monotonic() > deadline:
                    raise TimeoutError(f"{' '.join(argv)} ran past its time limit")
                else:
                    time.sleep(0.05)
        finally:
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with code {proc.returncode}")
        out.seek(0)
        lines = out.read().strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (Path.cwd() / "src" / "stencilfa" / "__init__.py").is_file():
        print("error: run from the root of a stencilfa checkout (no src/stencilfa here)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.corrupt_reference:
        common.append("--corrupt-reference")
    try:
        if args.trace:
            units = per_layer_units()
            result, _ = run_child(
                [*common, "--seconds", str(args.seconds), "--trace", "1"], deadline
            )
            values = result["per_layer"]
            correct = result["tracer_ok"]
        else:
            units = END_TO_END_UNITS
            setups = [run_child([*common, "--setup-only"], deadline)[0]["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result, rss_mb = run_child(
                [*common, "--seconds", str(args.seconds), "--trace", "0"], deadline
            )
            setups.append(result["setup_s"])
            values = {
                "wall_rel": result["wall_rel"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_mb,
            }
            correct = True
    except (OSError, RuntimeError, ValueError, KeyError) as exc:  # OSError covers timeouts
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = correct and failed == 0
    for message in result["failures"][:10]:
        print(f"failed: {message}", file=sys.stderr)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    if args.trace:
        print(f"traced operations: {result['traced_ops']}  wrapped bindings: "
              f"{result['wrapped_bindings']}  spans: {result['span_file']}")
        print(f"per-sample count check: {result['count_check'] or 'not applicable'}")
    else:
        per_op = result["per_op_s"]
        print(f"seconds per operation: {len(per_op)} samples, "
              f"median {result['wall_median_s']:.6f} s, max {result['wall_max_s']:.6f} s; "
              f"calibration chunk median {result['cal_median_s']:.6f} s "
              f"({result['cal_chunks']} chunks); "
              f"setup_s samples: {len(setups)}")
        print("seconds per operation, by round: " + " ".join(f"{t:.4f}" for t in per_op))
    print(f"error_rate {failed / attempted:.6g} (failed {failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.9g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
