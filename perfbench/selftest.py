"""Fast self-test of the benchmark at tiny resolutions (about half a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit in both modes, that the per-sample call counts of the traced run are
exact, that the layer self times add up to the traced wall time, that a
wrong reference answer is counted as a failure, and that the benchmark
refuses to run where there are no stencilfa sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# (pinv_matrix, symbol_at) calls per dual-torus sample on the seed code
EXACT_COUNTS = {"graphene-sweep": (9, 6), "curlcurl-cli": (2, 4)}
ENV_KEYS = {"python", "numpy", "blas", "blas_threads", "nproc", "seed", "parameters"}


def bench(*extra: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(cwd or ".") / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def run(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny", *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_output(workload: str, trace: int, result: dict, lines: list[str]) -> None:
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{where}: {result}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics/units {got} != {want}")
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    for name, unit in want.items():
        if (name, unit) not in printed:
            raise AssertionError(f"{where}: no printed line for {name} in {unit}")
    if not any(line.startswith("error_rate ") for line in lines):
        raise AssertionError(f"{where}: error_rate not printed")
    env = json.loads(next(line for line in lines if line.startswith("environment: "))[13:])
    if not ENV_KEYS <= set(env):
        raise AssertionError(f"{where}: environment lacks {ENV_KEYS - set(env)}")


def check_trace(workload: str, metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    layers = [n[: -len(".self_s")] for n in value if n.endswith(".self_s") and n.count(".") == 1]
    total = sum(value[f"{layer}.self_s"] for layer in layers) + value["untraced_s"]
    if abs(total - value["trace.wall_s"]) > 1e-9:
        raise AssertionError(f"{workload}: self times add to {total}, not {value['trace.wall_s']}")
    if workload in EXACT_COUNTS:
        seen = (value["check.pinv_per_sample"], value["check.symbol_at_per_sample"])
        if seen != EXACT_COUNTS[workload]:
            raise AssertionError(f"{workload}: per-sample counts {seen} != {EXACT_COUNTS[workload]}")


def check_bare_directory() -> None:
    """Without src/stencilfa the benchmark must fail and print no result."""
    bare = Path(".perfbench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(HERE.parent / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run(workload, trace)
            check_output(workload, trace, result, lines)
            if trace:
                check_trace(workload, result["metrics"])
        result, _ = run(workload, 0, "--corrupt-reference")
        if result["correct"] or result["failed"] != result["attempted"]:
            raise AssertionError(f"{workload}: a wrong reference was not counted: {result}")
        print(f"ok  {workload}")
    check_bare_directory()
    print("ok  bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
