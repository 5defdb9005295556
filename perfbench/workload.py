"""One benchmark workload, run in its own process by run.py.

The process starts no threads of its own.  It imports stencilfa from
``src/`` under the current directory, sets up the gallery entries the
workload needs, then runs a closed loop of operations (each starts when the
previous one has finished) for the requested number of seconds and checks
every answer against references.json.  The last line of standard output is
one JSON object with the raw results; run.py turns it into the benchmark's
result line.

    PYTHONPATH=src python3 perfbench/workload.py --workload graphene-sweep \
        --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import io
import json
import os
import platform
import random
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor, pi
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")

GRAPHENE_OMEGAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
CURLCURL_SIGMAS = (0.001, 0.01, 0.1, 1.0)
WORKLOADS = ("graphene-sweep", "curlcurl-cli", "verify-dense")
RESOLUTION = {
    "full": {"graphene-sweep": 41, "curlcurl-cli": 64, "verify-dense": 10},
    "tiny": {"graphene-sweep": 5, "curlcurl-cli": 4, "verify-dense": 2},
}
# Per-sample call counts on the code the benchmark was defined against:
# (pinv_matrix calls, symbol_at calls) per dual-torus sample.
SEED_COUNTS = {"graphene-sweep": (9, 6), "curlcurl-cli": (2, 4)}
RHO_TOL = 1e-12
MIN_ROUNDS = 3
CAL_PERIOD_S = 0.1
CAL_REPS = 20  # about 3 ms per calibration chunk on an uncontended core
HARD_STOP_S = 150.0


def plan(workload: str, seed: int) -> dict:
    """Parameters and their order, from the seed; the load size is fixed."""
    rng = random.Random(seed)
    if workload == "graphene-sweep":
        return {"omega": rng.sample(GRAPHENE_OMEGAS, 4)}
    if workload == "curlcurl-cli":
        return {"sigma_h": rng.sample(CURLCURL_SIGMAS, len(CURLCURL_SIGMAS))}
    return {
        "order": rng.sample(["graphene", "curlcurl"], 2),
        "omega": rng.choice(GRAPHENE_OMEGAS),
        "sigma_h": rng.choice(CURLCURL_SIGMAS),
    }


def import_stencilfa():
    src = (Path.cwd() / "src").resolve()
    if not (src / "stencilfa" / "__init__.py").is_file():
        raise SystemExit(f"error: no stencilfa sources under {src}")
    sys.path.insert(0, str(src))
    import stencilfa
    import stencilfa.cli  # noqa: F401  (binds the cli layer)

    if not Path(stencilfa.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported stencilfa from {stencilfa.__file__}, not {src}")
    return stencilfa


def environment(args, params: dict, res: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "resolution": res,
        "parameters": params,
        "size": args.size,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


# ---------------------------------------------------------------------------
# operations: each returns (seconds, None) when the answer is right,
# else (seconds, the reason)


class Workload:
    def __init__(self, stencilfa, name: str, params: dict, res: int, refs: dict,
                 corrupt: bool):
        self.sf = stencilfa
        self.name = name
        self.params = params
        self.res = res
        self.refs = refs
        self.corrupt = corrupt
        self.csv_path = OUT_DIR / f"curlcurl-{os.getpid()}.csv"
        self.clock = time.perf_counter  # operations time themselves with this

    def setup(self) -> None:
        """Build the gallery entries the workload uses and parse their expressions.

        The CLI workloads build them again inside every command; set-up still
        pays for them once, as a session does before its first command.
        """
        import numpy as np

        sf = self.sf
        self.m = self.res * np.eye(2, dtype=int)
        self.entries = {}
        if self.name == "graphene-sweep":
            for omega in self.params["omega"]:
                entry = sf.build("graphene", omega=omega)
                expr = sf.parse(entry.expression)
                env = {n: entry.operators[n] for n in sorted(expr.identifiers())}
                self.entries[omega] = (expr, env)
        elif self.name == "curlcurl-cli":
            for sigma in self.params["sigma_h"]:
                self.entries[sigma] = sf.parse(sf.build("curlcurl", sigma_h=sigma).expression)
        else:
            for example, key in (("graphene", "omega"), ("curlcurl", "sigma_h")):
                entry = sf.build(example, **{key: self.params[key]})
                self.entries[example] = sf.parse(entry.expression)

    def rounds(self):
        """Endless cycle of rounds; a round is a list of (label, op) pairs."""
        i = 0
        while True:
            if self.name == "graphene-sweep":
                omega = self.params["omega"][i % len(self.params["omega"])]
                yield [(f"omega={omega}", lambda o=omega: self.graphene(o))]
            elif self.name == "curlcurl-cli":
                sigma = self.params["sigma_h"][i % len(self.params["sigma_h"])]
                yield [(f"sigma_h={sigma}", lambda s=sigma: self.curlcurl(s))]
            else:
                yield [(f"verify {ex}", lambda e=ex: self.verify(e))
                       for ex in self.params["order"]]
            i += 1

    def reference_rho(self, example: str, value: float) -> float:
        rho = self.refs[example][str(self.res)][repr(value)]
        return rho + 1e-9 if self.corrupt else rho

    def graphene(self, omega: float):
        expr, env = self.entries[omega]
        t0 = self.clock()
        result = self.sf.compute_spectrum(expr, env, self.m)
        elapsed = self.clock() - t0
        if len(result.records) != self.res**2:
            return elapsed, f"{len(result.records)} samples, expected {self.res**2}"
        if any(len(r.eigenvalues) != 8 for r in result.records):  # 8x8 symbols
            return elapsed, "a sample without 8 eigenvalues"
        ref = self.reference_rho("graphene", omega)
        if not abs(result.rho - ref) <= RHO_TOL:
            return elapsed, f"rho {result.rho!r} != reference {ref!r}"
        return elapsed, None

    def curlcurl(self, sigma: float):
        argv = ["spectrum", "--example", "curlcurl", "--resolution", str(self.res),
                "--output", str(self.csv_path), "--param", f"sigma_h={sigma!r}"]
        out, rc, elapsed = self.run_cli(argv)
        if rc != 0:
            return elapsed, f"exit code {rc}"
        with open(self.csv_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            col = header.index("abs")
            values = [float(line.split(",")[col]) for line in fh]
        expected_rows = 2 * self.res**2
        if len(values) != expected_rows:
            return elapsed, f"{len(values)} CSV rows, expected {expected_rows}"
        rho = max(values)
        ref = self.reference_rho("curlcurl", sigma)
        if not abs(rho - ref) <= RHO_TOL:
            return elapsed, f"rho {rho!r} != reference {ref!r}"
        if out.strip().splitlines()[-1] != f"rho_max = {ref:.8f}":
            return elapsed, f"stdout line {out.strip().splitlines()[-1]!r}"
        return elapsed, None

    def verify(self, example: str):
        key = "omega" if example == "graphene" else "sigma_h"
        argv = ["verify", "--example", example, "--resolution", str(self.res),
                "--param", f"{key}={self.params[key]!r}"]
        out, rc, elapsed = self.run_cli(argv)
        if rc != 0:
            return elapsed, f"exit code {rc}"
        lines = out.strip().splitlines()
        labels = [line[:44].rstrip() for line in lines]
        expected = self.refs["verify"][example][str(self.res)]
        if self.corrupt:
            expected = expected[1:]
        if labels != expected:
            return elapsed, f"checks {labels} != reference {expected}"
        if not all(line.endswith("pass") for line in lines):
            return elapsed, "a check did not pass"
        return elapsed, None

    def run_cli(self, argv):
        """Run the CLI in-process; returns its stdout, exit code and seconds."""
        buf = io.StringIO()
        t0 = self.clock()
        with contextlib.redirect_stdout(buf):
            rc = self.sf.cli.main(argv)
        return buf.getvalue(), rc, self.clock() - t0


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Loop:
    times: list[float]  # operation seconds per round
    ops_per_round: int
    attempted: int
    failed: int
    failures: list[str]


def run_round(round_ops, failures: list, clock) -> tuple[float, int]:
    """Run one round; returns its operation time and its failure count."""
    total = 0.0
    failed = 0
    for label, op in round_ops:
        t0 = clock()
        try:
            elapsed, problem = op()
        except Exception as exc:  # a raising operation is a failed one
            elapsed, problem = clock() - t0, f"raised {type(exc).__name__}: {exc}"
        total += elapsed
        if problem is not None:
            failed += 1
            failures.append(f"{label}: {problem}")
    return total, failed


def closed_loop(work: Workload, seconds: float, before_round=None) -> Loop:
    """Rounds until the next one would end after `seconds` (at least MIN_ROUNDS).

    `before_round(i)` runs untimed before round i.
    """
    loop = Loop([], 0, 0, 0, [])
    start = time.perf_counter()
    last = 0.0
    for i, round_ops in enumerate(work.rounds()):
        elapsed = time.perf_counter() - start
        if i >= MIN_ROUNDS and (elapsed + last > seconds or elapsed > HARD_STOP_S):
            break
        if before_round is not None:
            before_round(i)
        t0 = time.perf_counter()
        op_time, failed = run_round(round_ops, loop.failures, work.clock)
        last = time.perf_counter() - t0
        loop.times.append(op_time)
        loop.ops_per_round = len(round_ops)
        loop.attempted += len(round_ops)
        loop.failed += failed
    return loop


class Calibration:
    """Times a fixed chunk of work that uses no stencilfa code, every CAL_PERIOD_S.

    The chunks run from a SIGALRM handler, so they land inside operations as
    well as between them and see the same moments of the host's speed.  The
    chunk mixes what the symbol code does, without calling it: small-matrix
    LAPACK calls, Fraction arithmetic and small complex array updates.
    `clock` is perf_counter minus the time spent in chunks, so an operation
    timed with it excludes them.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.cos(np.arange(64.0)).reshape(8, 8)
        self.b = np.cos(np.arange(4.0)).reshape(2, 2)
        self.fracs = [Fraction(i, 7) for i in range(1, 9)]
        self.chunks: list[float] = []
        self.busy = 0.0
        self.armed = False

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def chunk(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        np = self.np
        for _ in range(CAL_REPS):
            np.linalg.pinv(self.a)
            np.linalg.eigvals(self.a)
            acc = np.zeros((2, 2), dtype=complex)
            for f in self.fracs:
                t = f * 3 + Fraction(1, 3)
                t = t - floor(t)
                acc = acc + self.b * np.exp(2j * pi * float(t))
        dt = time.perf_counter() - t0
        self.chunks.append(dt)
        self.busy += dt
        if self.armed:  # one-shot timer, re-armed here, so chunks never nest
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S)

    def __enter__(self):
        self.chunk()  # first calls into LAPACK, outside the timed operations
        self.chunks.clear()
        signal.signal(signal.SIGALRM, self.chunk)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self.armed = False  # a handler still pending must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def untraced_result(work: Workload, seconds: float, setup_s: float) -> dict:
    with Calibration() as cal:
        work.clock = cal.clock
        loop = closed_loop(work, seconds)
    per_op = [t / loop.ops_per_round for t in loop.times]
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "setup_s": setup_s,
        # Both means cover the same moments of the host: see "Steadiness" in NOTES.md.
        "wall_rel": statistics.fmean(per_op) / statistics.fmean(cal.chunks),
        "cal_median_s": statistics.median(cal.chunks),
        "cal_chunks": len(cal.chunks),
        "wall_median_s": statistics.median(per_op),
        "wall_max_s": max(per_op),
        "per_op_s": per_op,
    }


BUSY = ("symbol.pinv_matrix", "symbol.symbol_at", "symbol.eigenvalues",
        "crystal.sample_dual_torus", "oracle.assemble_dense", "oracle.translation_residual",
        "oracle.wave_basis", "oracle.dense_spectrum", "oracle.spectrum_distance",
        "operator.make_compatible", "gallery.build")
CALLS = ("symbol.pinv_matrix", "symbol.symbol_at", "symbol.eigenvalues")
EVAL_MATRICES = "expr.Expression.eval_matrices"


def traced_result(work: Workload, seconds: float, args, env: dict) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are per operation."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.patch()
    try:
        work.setup()
    finally:
        tracer.unpatch()
    setup_spans = len(tracer.spans)
    setup = tracer.summarize(0, setup_spans)
    for key in tracer.counters:  # count operations only
        tracer.counters[key] = 0

    marks = []  # first span of each traced round

    def before_round(i):
        if i % 2:
            tracer.patch()
            marks.append(len(tracer.spans))
        else:
            tracer.unpatch()

    loop = closed_loop(work, seconds, before_round)
    tracer.unpatch()
    untraced, traced = loop.times[0::2], loop.times[1::2]
    n = len(traced) * loop.ops_per_round
    # untraced rounds add no spans, so the traced rounds' spans are contiguous
    agg = tracer.summarize(marks[0], len(tracer.spans))
    samples = tracer.counters["crystal.samples"]

    m = {f"{f}.busy_s": agg["busy_s"][f] / n for f in BUSY}
    m.update({f"{f}.calls": agg["calls"][f] / n for f in CALLS})
    m["symbol.pinv_matrix.zeroed"] = tracer.counters["symbol.pinv_matrix.zeroed"] / n
    m["expr.eval_matrices.self_s"] = agg["self_s"][EVAL_MATRICES] / n
    m["expr.eval_matrices.calls"] = agg["calls"][EVAL_MATRICES] / n
    m["crystal.samples"] = samples / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = agg["layer_self_s"][layer] / n
        m[f"{layer}.calls"] = agg["layer_calls"][layer] / n
    m["trace.wall_s"] = sum(traced) / n
    m["untraced_s"] = m["trace.wall_s"] - agg["top_s"] / n
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    per_sample = {f: agg["calls"][f] / samples if samples else 0.0
                  for f in ("symbol.pinv_matrix", "symbol.symbol_at")}
    m["check.pinv_per_sample"] = per_sample["symbol.pinv_matrix"]
    m["check.symbol_at_per_sample"] = per_sample["symbol.symbol_at"]
    m["setup.gallery.build.busy_s"] = setup["busy_s"]["gallery.build"]
    m["setup.operator.make_compatible.busy_s"] = setup["busy_s"]["operator.make_compatible"]
    m["setup.intlat.self_s"] = setup["layer_self_s"]["intlat"]
    m["error_rate"] = loop.failed / loop.attempted

    problems = []
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["untraced_s"]
    if abs(layer_sum - m["trace.wall_s"]) > 1e-9 * max(1.0, m["trace.wall_s"]):
        problems.append(f"layer self times add up to {layer_sum}, not {m['trace.wall_s']}")
    count_check = None
    if args.workload in SEED_COUNTS:
        seen = (m["check.pinv_per_sample"], m["check.symbol_at_per_sample"])
        want = SEED_COUNTS[args.workload]
        count_check = "ok" if seen == want else f"differs from the seed code: {seen} vs {want}"

    span_file = OUT_DIR / f"spans-{args.workload}.json"  # the latest traced run
    tracer.dump(span_file, t0, {
        "environment": env,
        "setup_spans": setup_spans,
        "traced_round_first_span": marks,
        "traced_round_op_s": traced,
        "ops_per_round": loop.ops_per_round,
    })
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures + problems,
        "tracer_ok": not problems,
        "per_layer": m,
        "count_check": count_check,
        "span_file": str(span_file),
        "traced_ops": n,
        "wrapped_bindings": tracer.binding_count,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up, print it and exit")
    ap.add_argument("--size", choices=sorted(RESOLUTION), default="full")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="shift every reference, so every operation must fail")
    args = ap.parse_args(argv)

    stencilfa = import_stencilfa()
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    params = plan(args.workload, args.seed)
    res = RESOLUTION[args.size][args.workload]
    work = Workload(stencilfa, args.workload, params, res, refs, args.corrupt_reference)
    work.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args, params, res)
    try:
        if args.trace:
            result = traced_result(work, args.seconds, args, env)
        else:
            result = untraced_result(work, args.seconds, setup_s)
    finally:
        work.csv_path.unlink(missing_ok=True)
    result["environment"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
