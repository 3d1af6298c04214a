"""The benchmark's workloads and the check of their outputs.

Each workload is a list of ``hvsparse`` command lines run in one process
through ``expcli.main``, exactly as a user would type them, with one worker
and BLAS pinned to one thread. One execution of the list is a *pass*; a run
repeats passes for the requested time. The workload seed only permutes the
order of the preset's seed list and sweep lists. The set of solves is the
same for every seed, so counts repeat exactly across runs and one recorded
reference checks every run.

The output check compares each product (CSV) with ``reference.json``,
recorded at the commit that introduced the benchmark, with ``runtime_ms``
dropped. Columns in ``EXACT_COLUMNS`` (grid coordinates, iteration counts,
termination) must match exactly. Every other numeric column must match
within ``REL_TOL`` relative (``ABS_TOL`` absolute near zero); nan matches
nan. With the BLAS kernels pinned (see run.py) reruns are bit-identical, so
the tolerance only absorbs last-digit differences. A change that reorders
floating-point sums trips it on the chaotic exponent-grid rows that stop at
max_iters, whose outputs move by percents under such a change.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
EXACT_COLUMNS = frozenset({"preset", "seed", "solver", "n", "m", "s", "c", "d",
                           "iterations", "termination"})
DROPPED_COLUMNS = frozenset({"runtime_ms"})
OVERFLOW = "failed_overflow"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Command:
    """One ``hvsparse`` invocation.

    ``args`` are passed as written. ``seeds`` is the preset seed subset;
    ``sweeps`` names CLI flags whose values come from the preset's own
    sweep lists. Both are permuted by the workload seed. ``svg`` adds an
    ``--svg`` output (the compare subcommand always draws one).
    """

    args: tuple[str, ...]
    seeds: tuple[int, ...]
    sweeps: tuple[tuple[str, str], ...] = ()
    svg: bool = False


# Each workload is the list of commands one pass runs; README.md says why each
# was chosen. "tiny" is not in BENCHMARK.json: it sizes the runner's smoke test.
WORKLOADS = {
    "eta_sweep": (
        Command(("run", "test1", "--workers", "1"), seeds=(0, 1, 2),
                sweeps=(("--eta", "eta_list"),)),),
    "exponent_grid": (
        Command(("run", "test4", "--workers", "1"), seeds=(1,),
                sweeps=(("--c", "c_list"), ("--d", "d_list"))),),
    "compare_traced": (
        Command(("compare", "test5", "--workers", "1"), seeds=(0, 1, 2, 3), svg=True),),
    "param_select": (
        Command(("run", "custom", "--alpha", "discrepancy", "--max-iters", "2000",
                 "--workers", "1"), seeds=(0,)),
        Command(("rate",), seeds=(0, 1, 2, 3, 4))),
    "tiny": (
        Command(("run", "custom", "--n", "40", "--m", "20", "--sparsity", "4",
                 "--c", "1,2", "--d", "1,3", "--alpha", "1e-3", "--max-iters", "200",
                 "--compat-alpha", "--workers", "1"), seeds=(0, 1)),),
}


def _join(values) -> str:
    text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)
    # A lone number means a seed count to the CLI; a trailing comma makes it a list.
    return text + "," if len(values) == 1 else text


def command_lines(name: str, rng, out_dir: Path, preset_spec) -> list[list[str]]:
    """The pass's argv lists, with lists permuted by ``rng`` (a numpy Generator)."""
    argvs = []
    for i, cmd in enumerate(WORKLOADS[name]):
        argv = list(cmd.args)
        argv += ["--seeds", _join([cmd.seeds[j] for j in rng.permutation(len(cmd.seeds))])]
        for flag, field in cmd.sweeps:
            values = getattr(preset_spec(cmd.args[1]), field)
            argv += [flag, _join([values[j] for j in rng.permutation(len(values))])]
        argv += ["--out", str(out_dir / f"{name}-{i}.csv")]
        if cmd.svg:
            argv += ["--svg", str(out_dir / f"{name}-{i}.svg")]
        argvs.append(argv)
    return argvs


def read_product(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV product, without the dropped columns."""
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    keep = [i for i, name in enumerate(table[0]) if name not in DROPPED_COLUMNS]
    return ([table[0][i] for i in keep],
            [[row[i] for i in keep] for row in table[1:]])


def same_cell(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in EXACT_COLUMNS:
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) and math.isnan(w):
        return True
    return math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@dataclass
class Outcome:
    """Output check of one pass."""

    rows: int = 0
    mismatched: int = 0
    overflow: int = 0
    snr_db: tuple[float, ...] = ()
    problem: str = ""


def check_pass(name: str, argvs, exit_codes, reference: dict) -> Outcome:
    """Compare a pass's products and exit codes with the reference."""
    out = Outcome()
    snr = []
    for argv, code, ref in zip(argvs, exit_codes, reference[name]["commands"]):
        want = ref["rows"]
        out.rows += len(want)
        if code != ref["exit_code"]:
            out.problem = out.problem or f"{argv[0]} exited {code}, reference {ref['exit_code']}"
        try:
            header, rows = read_product(Path(argv[argv.index("--out") + 1]))
        except (OSError, IndexError) as exc:
            header, rows = [], []
            out.problem = out.problem or f"{argv[0]} product unreadable: {exc}"
        if header != ref["header"] or len(rows) != len(want):
            out.mismatched += len(want)
            out.problem = out.problem or f"{argv[0]} product shape differs from reference"
            continue
        for got_row, want_row in zip(rows, want):
            if not all(same_cell(col, g, w) for col, g, w in zip(header, got_row, want_row)):
                out.mismatched += 1
                out.problem = out.problem or f"row differs: {got_row} vs {want_row}"
        cols = dict(zip(header, zip(*rows))) if rows else {}
        out.overflow += sum(t == OVERFLOW for t in cols.get("termination", ()))
        snr += [float(v) for v in cols.get("snr_db", ()) if math.isfinite(float(v))]
    out.snr_db = tuple(snr)
    return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
