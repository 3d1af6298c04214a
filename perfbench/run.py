"""hvsparse benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics (see README.md in this directory). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, environment included, is
written to ``.perfbench_out/`` in the checkout.

All work runs in this one process as a closed loop with one caller: one
worker, BLAS pinned to one thread, and each solve starting when the previous
one ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One OpenBLAS kernel set on every x86-64 CPU with AVX2. The solves that stop
# at max_iters on the exponent grid are chaotic: another kernel's last-bit
# differences (AVX-512 vs AVX2) grow to percent-level changes in their
# outputs, which the output check would flag. At these sizes the kernel
# choice does not change the timings.
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from layers import LayerTracer, SolveLog  # noqa: E402
from machine import environment  # noqa: E402
from micro import microbench  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3          # medians need at least three samples
MIN_TRACED_PAIRS = 2    # untraced + traced pass pairs in a traced run
SETUP_REPEATS = 9
TAIL_BEYOND = 10        # solves that must lie beyond the tail percentile

# Child process timing a cold start: import the package and parse the
# workload's command lines. Interpreter start-up itself is not counted.
SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hvsparse import expcli
parser = expcli.build_parser()
for argv in json.loads(sys.argv[2]):
    parser.parse_args(argv)
print(time.perf_counter() - start)
"""


def import_program():
    """Import hvsparse from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "hvsparse" / "__init__.py").is_file():
        raise SystemExit(f"error: no hvsparse package under {SRC}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import hvsparse
    import hvsparse.expcli  # noqa: F401  (the package does not import its CLI)
    if Path(hvsparse.__file__).resolve().parent != (SRC / "hvsparse").resolve():
        raise SystemExit(f"error: imported hvsparse from {hvsparse.__file__}, not {SRC}")
    return hvsparse


def measure_setup(argvs) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(argvs)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(expcli, argvs) -> tuple[float, list[int]]:
    """Run the pass's commands back to back; return wall seconds and exit codes."""
    for argv in argvs:
        for flag in ("--out", "--svg"):
            if flag in argv:
                Path(argv[argv.index(flag) + 1]).unlink(missing_ok=True)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for argv in argvs:
            codes.append(expcli.main(argv))
        wall = time.perf_counter() - start
    return wall, codes


def self_tests(expcli) -> list[str]:
    failures = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["prox-check"], ["jac-check"]):
            code = expcli.main(argv)
            if code != 0:
                failures.append(f"{argv[0]} exited {code}")
    return failures


def tail_percentile(solves_per_pass: int) -> int:
    """Highest whole percentile with TAIL_BEYOND solves beyond it in MIN_PASSES passes."""
    beyond = TAIL_BEYOND / (MIN_PASSES * solves_per_pass)
    return max(50, min(99, math.floor(100.0 * (1.0 - beyond))))


def per_solve_ms(runtime_s, solves: list[int]) -> np.ndarray:
    """Each solve's median runtime over the passes, in ms.

    Every pass repeats the same solves in the same order, so the k-th solve
    of each pass is one solve measured once per pass. Its median keeps a
    single scheduling hiccup on a shared machine from setting a percentile.
    """
    k = min(solves)
    starts = np.cumsum([0] + solves[:-1])
    per_pass = np.array([runtime_s[i:i + k] for i in starts]) * 1e3
    return np.median(per_pass, axis=0)


class Run:
    """Passes of one workload and what they produced."""

    def __init__(self, hvsparse, workload: str, argvs, reference):
        self.expcli = hvsparse.expcli
        self.max_iters = getattr(hvsparse.solvers, "TERMINATION_MAX_ITERS", "max_iters_reached")
        self.workload = workload
        self.argvs = argvs
        self.reference = reference
        self.log = SolveLog()
        self.rows = self.mismatched = self.overflow = 0
        self.snr: list[float] = []
        self.problems: list[str] = []

    def one_pass(self) -> tuple[float, int, int]:
        """Run and check one pass; return (wall_s, solves, iterations)."""
        mark = len(self.log.iterations)
        wall, codes = run_pass(self.expcli, self.argvs)
        outcome = workloads.check_pass(self.workload, self.argvs, codes, self.reference)
        self.rows += outcome.rows
        self.mismatched += outcome.mismatched
        self.overflow += outcome.overflow
        self.snr += outcome.snr_db
        if outcome.problem:
            self.problems.append(outcome.problem)
        iters = self.log.iterations[mark:]
        return wall, len(iters), sum(iters)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_s = measure_setup(run.argvs)
    run.log.install()
    walls, solves, iters = [], [], []
    start = time.perf_counter()
    # Start another pass only if a typical pass still fits in the budget.
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        wall, n_solves, n_iters = run.one_pass()
        walls.append(wall)
        solves.append(n_solves)
        iters.append(n_iters)
    run.log.uninstall()

    wall_s = statistics.median(walls)
    per_pass_solves = sum(solves) / len(walls)
    per_pass_iters = sum(iters) / len(walls)
    if len(set(solves)) != 1:
        run.problems.append(f"solver calls per pass differ between passes: {solves}")
    solve_ms = per_solve_ms(run.log.runtime_s, solves)
    tail = tail_percentile(len(solve_ms))
    maxed = sum(t == run.max_iters for t in run.log.termination)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "solves_per_s": (per_pass_solves / wall_s, "1/s"),
        "us_per_iter": (wall_s * 1e6 / per_pass_iters, "us"),
        "iters_per_solve": (sum(iters) / sum(solves), "count"),
        "solve_ms_p50": (float(np.percentile(solve_ms, 50)), "ms"),
        "solve_ms_tail": (float(np.percentile(solve_ms, tail)), "ms"),
        "maxiter_frac": (maxed / len(run.log.termination), "frac"),
        "ok_frac": ((run.rows - run.overflow - run.mismatched) / run.rows, "frac"),
        "median_snr_db": (statistics.median(run.snr), "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"passes": len(walls), "pass_wall_s": walls, "solves_per_pass": solves,
              "iterations_per_pass": iters, "solve_ms_tail_percentile": tail,
              "solve_ms_samples": len(run.log.runtime_s), "solve_ms": solve_ms.tolist()}
    print(f"{len(walls)} passes, wall {min(walls):.3f}..{max(walls):.3f} s; "
          f"solve_ms_tail is p{tail} of {len(run.log.runtime_s)} solves "
          f"({len(solve_ms)} per pass, each a median over passes); "
          f"setup {setup_s:.4f} s (median of {SETUP_REPEATS})")
    return metrics, detail


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    micro = microbench()
    run.log.install()
    tracer = LayerTracer()
    plain, traced, iters, solves = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds):
        plain.append(run.one_pass()[0])
        tracer.install()
        wall, n_solves, n_iters = run.one_pass()
        tracer.uninstall()
        traced.append(wall)
        solves.append(n_solves)
        iters.append(n_iters)
    run.log.uninstall()

    metrics = layer_metrics(tracer, traced, sum(iters), sum(solves))
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                      "frac")
    metrics.update({name: (value, "us") for name, value in micro.items()})
    print_layer_table(tracer, sum(traced))
    detail = {"traced_wall_s": traced, "untraced_wall_s": plain,
              "spans": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[1] - v[2],
                            "callers": v[3]} for k, v in sorted(tracer.stats.items())}}
    return metrics, detail


CORE_GROUPS = {
    "core.as_vector": ("core.as_vector",),
    "core.metrics": ("core.snr_db", "core.relative_error"),
    "core.instance": ("core.gaussian_instance", "core.add_noise_db", "core.add_noise_norm"),
}
SHARE_LAYERS = ("prox", "operators", "solvers", "core", "tuning", "expcli")


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def layer_metrics(tracer, traced_walls, iters: int, solves: int) -> dict:
    """Per-layer metrics from the traced passes (values per pass unless noted)."""
    passes = len(traced_walls)
    wall = sum(traced_walls)

    def calls(pred) -> int:
        return sum(rec[0] for name, rec in tracer.stats.items() if pred(name))

    def self_s(pred) -> float:
        return sum(rec[1] - rec[2] for name, rec in tracer.stats.items() if pred(name))

    def self_us_per_call(pred) -> float:
        n = calls(pred)
        return self_s(pred) / n * 1e6 if n else 0.0

    def in_layer(layer):
        return lambda span: layer_of(span) == layer

    def method(name):
        return lambda span: layer_of(span) == "operators" and span.endswith("." + name)

    def one_of(names):
        return lambda span: span in names

    layer_self = {layer: self_s(in_layer(layer)) for layer in SHARE_LAYERS}
    m = {}
    for name in ("prox_sql1", "soft_threshold"):
        pred = one_of((f"prox.{name}",))
        m[f"prox.{name}.calls"] = (calls(pred) / passes, "count")
        m[f"prox.{name}.self_us_per_call"] = (self_us_per_call(pred), "us")
    for label, name in (("apply", "apply"), ("adjoint", "jacobian_adjoint_apply")):
        m[f"operators.{label}.calls"] = (calls(method(name)) / passes, "count")
        m[f"operators.{label}.self_us_per_call"] = (self_us_per_call(method(name)), "us")
    m["operators.calls_per_iter"] = (calls(in_layer("operators")) / iters, "count")
    m["solvers.self_us_per_iter"] = (layer_self["solvers"] / iters * 1e6, "us")
    m["solvers.iters"] = (iters / passes, "count")
    m["solvers.solves"] = (solves / passes, "count")
    m["core.as_vector.calls_per_iter"] = (
        calls(one_of(CORE_GROUPS["core.as_vector"])) / iters, "count")
    for group in ("core.metrics", "core.instance"):
        m[f"{group}.self_s"] = (self_s(one_of(CORE_GROUPS[group])) / passes, "s")
    selects = tracer.calls("tuning.discrepancy_search")
    hidden = tracer.calls("solvers.hv_solve", parent="tuning.discrepancy_search")
    m["tuning.solves_per_select"] = (hidden / selects if selects else 0.0, "count")
    m["expcli.self_s"] = (layer_self["expcli"] / passes, "s")
    m["expcli.emit_csv_s"] = (tracer.inclusive_s("expcli.emit_csv") / passes, "s")
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / wall, "frac")
    m["bench.self_share"] = ((wall - tracer.covered_s) / wall, "frac")
    return m


def print_layer_table(tracer, wall: float) -> None:
    print(f"{'span':44s} {'calls':>10s} {'incl_s':>9s} {'self_s':>9s} {'self%':>6s}")
    for name, (calls, incl, child, _) in sorted(tracer.stats.items(),
                                                key=lambda kv: kv[1][2] - kv[1][1]):
        if calls:
            print(f"{name:44s} {calls:10d} {incl:9.3f} {incl - child:9.3f} "
                  f"{100 * (incl - child) / wall:6.2f}")
    quiet = sorted({layer_of(n) for n in tracer.stats} -
                   {layer_of(n) for n, rec in tracer.stats.items() if rec[0]})
    if quiet:
        print(f"layers with no calls on this workload: {', '.join(quiet)}")
    print(f"benchmark's own time: {wall - tracer.covered_s:.4f} s of {wall:.3f} s traced")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    hvsparse = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    argvs = workloads.command_lines(args.workload, np.random.default_rng(args.seed), OUT_DIR,
                                    hvsparse.expcli.preset_spec)
    run = Run(hvsparse, args.workload, argvs, workloads.load_reference())
    problems = self_tests(hvsparse.expcli)
    if args.trace:
        metrics, detail = per_layer(run, args.seconds)
    else:
        metrics, detail = end_to_end(run, args.seconds)
    problems += run.problems
    env = environment(ROOT, SRC, args.workload, args.seed)
    result = {"correct": not problems and run.mismatched == 0,
              "attempted": run.rows, "failed": run.mismatched,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, argv=argvs, problems=problems, detail=detail, environment=env)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
