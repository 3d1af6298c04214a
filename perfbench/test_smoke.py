"""Smoke test of the benchmark runner and its tracer.

    python3 -m pytest perfbench/test_smoke.py -q

Runs in a few seconds: the tracer on a synthetic package, the runner on
the ``tiny`` workload in both modes, and the runner in a directory that
holds only the benchmark.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

from layers import LayerTracer, SolveLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

FAKE_A = """
def leaf(n):
    return sum(range(n))

def middle(n):
    return leaf(n) + leaf(2 * n)

def tail(n):
    return negate(n)

def negate(n):
    return -n

class Op:
    def apply(self, n):
        return middle(n)

def _private(n):
    return n
"""

FAKE_B = """
from fakepkg.a import tail as renamed, Op

def outer(n):
    return Op().apply(n) + renamed(n)
"""


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = pkg
    for name, code in (("a", FAKE_A), ("b", FAKE_B)):
        mod = types.ModuleType(f"fakepkg.{name}")
        sys.modules[mod.__name__] = mod
        setattr(pkg, name, mod)
        exec(code, vars(mod))
    return sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]


def test_nested_self_times_sum_to_parent():
    a, b = _fake_package()
    originals = (a.tail, b.renamed, a.Op.apply)
    tracer = LayerTracer("fakepkg")
    tracer.install()
    try:
        assert b.renamed is a.tail and b.renamed is not originals[0]
        b.outer(20000)
    finally:
        tracer.uninstall()
    assert (a.tail, b.renamed, a.Op.apply) == originals
    assert "a._private" not in tracer.stats
    assert tracer.calls("a.leaf") == 2
    assert tracer.calls("a.leaf", parent="a.middle") == 2
    assert tracer.calls("a.Op.apply", parent="b.outer") == 1
    assert tracer.calls("a.negate", parent="a.tail") == 1

    def close(x, y):
        return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15)

    incl = tracer.inclusive_s
    # a span's self time is its duration minus its direct children's spans
    assert close(tracer.self_s("b.outer"), incl("b.outer") - incl("a.Op.apply") - incl("a.tail"))
    assert close(tracer.self_s("a.Op.apply"), incl("a.Op.apply") - incl("a.middle"))
    assert close(tracer.self_s("a.middle"), incl("a.middle") - incl("a.leaf"))
    assert close(tracer.self_s("a.tail"), incl("a.tail") - incl("a.negate"))
    # so the self times of all nested spans sum to the outermost span
    assert close(sum(tracer.self_s(name) for name in tracer.stats), incl("b.outer"))
    assert close(tracer.covered_s, incl("b.outer"))


def test_solve_log_sees_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from hvsparse import expcli, solvers, tuning

    log = SolveLog()
    log.install()
    try:
        assert tuning.hv_solve is expcli.hv_solve is solvers.hv_solve
        assert hasattr(solvers.hv_solve, "__wrapped__")
        spec = expcli.ExperimentSpec(n=20, m=10, s=2, seeds=(0,), max_iters=50,
                                     alpha_mode="discrepancy", alpha=None)
        expcli.run_experiment(spec)
    finally:
        log.uninstall()
    assert not hasattr(solvers.hv_solve, "__wrapped__")
    # the hidden search solves (tuning's binding) plus the row's own solve
    assert len(log.iterations) >= 2
    assert len(log.iterations) == len(log.runtime_s) == len(log.termination)


def _run(cwd: Path, trace: int):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny",
                           "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_runner_on_tiny_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = _run(ROOT, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        names = list(result["metrics"])
        assert all(NAME.fullmatch(n) for n in names)
        assert sorted(names) == sorted(m["name"] for m in listed)
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            shares = sum(v["value"] for n, v in result["metrics"].items()
                         if n.endswith(".self_share"))
            assert math.isclose(shares, 1.0, rel_tol=1e-6)


def test_runner_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
