"""Experiment harness and command line interface.

Presets reproduce the study grids on randomly drawn instances: test1 sweeps
the concave ratio eta, test2 the step constant L, test3 the noise level with
a matched penalty weight per level, test4 the model exponents (c, d), and
test5 compares the three solvers on shared noise realizations. Results are
emitted as CSV rows in a fixed column order and, for comparisons, as an SVG
plot of relative error against iteration.

Subcommands: run, compare, rate, prox-check, jac-check. Exit codes:
0 success, 2 parameter error, 3 numerical failure (failed rows are still
emitted), 4 I/O error.

Determinism: a row set depends only on the spec and seeds. Instances are
drawn from seed stream (seed, 0) and noise from (seed, 1), so sweeps over
eta, L, and alpha reuse the same realization per seed, and serial and
parallel execution produce identical sorted rows (runtime_ms aside).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (NumericalOverflowError, ParameterError, _snr_of, add_noise_db,
                   add_noise_norm, gaussian_instance, relative_error)
from .operators import MatrixOperator, PowerCsOperator, fd_jacobian_check
from .prox import prox_sql1, prox_sql1_bisect, soft_threshold
from .solvers import SolverConfig, hv_solve, ista_solve, stl1l2_solve
from .tuning import (DiscrepancyConfig, apriori_alpha, discrepancy_search,
                     fit_loglog_slope)

CSV_HEADER = ("preset,seed,solver,n,m,s,c,d,eta,L,alpha,level_db,"
              "iterations,runtime_ms,snr_db,rel_error,final_residual,termination")

SOLVER_NAMES = ("hv", "ista", "st")
ALPHA_MODES = ("explicit", "per_level", "discrepancy", "apriori")
TERMINATION_FAILED = "failed_overflow"

ETA_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
TEST3_ALPHA_PER_LEVEL = {10.0: 1.9e-3, 20.0: 3.0e-4, 30.0: 5.1e-5,
                         40.0: 1.2e-5, 50.0: 7.4e-6}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid: instance shape, sweep lists, and solver settings.

    Every combination from c_list x d_list x eta_list x L_list x
    level_db_list is run for every seed and every solver name.
    """

    preset: str = "custom"
    n: int = 200
    m: int = 80
    s: int = 16
    scale: float = 0.05
    c_list: tuple[int, ...] = (2,)
    d_list: tuple[int, ...] = (3,)
    eta_list: tuple[float, ...] = (1.0,)
    L_list: tuple[float, ...] = (10.0,)
    level_db_list: tuple[float, ...] = (30.0,)
    alpha_mode: str = "explicit"
    alpha: float | None = 5.1e-5
    alpha_per_level: dict[float, float] | None = None
    kappa: float = 1.0
    tau: float = 1.5
    beta_over_alpha: float = 1.0
    seeds: tuple[int, ...] = tuple(range(10))
    solvers: tuple[str, ...] = ("hv",)
    max_iters: int = 5000
    tol: float = 1e-5
    x0_value: float = 0.01
    compat_alpha: bool = False
    workers: int = 1
    out: str | None = None

    def __post_init__(self):
        for name in ("c_list", "d_list", "eta_list", "L_list", "level_db_list",
                     "seeds", "solvers"):
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"{name} must be nonempty")
        if not 1 <= self.m <= self.n:
            raise ParameterError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not 1 <= self.s <= self.m:
            raise ParameterError(f"need 1 <= s <= m, got s={self.s}, m={self.m}")
        bad = [s for s in self.solvers if s not in SOLVER_NAMES]
        if bad:
            raise ParameterError(f"unknown solvers {bad}; choose from {SOLVER_NAMES}")
        if self.alpha_mode not in ALPHA_MODES:
            raise ParameterError(
                f"alpha_mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}")
        if self.alpha_mode == "explicit" and not (self.alpha and self.alpha > 0):
            raise ParameterError("explicit alpha_mode needs a positive alpha")
        if self.alpha_mode == "per_level":
            table = self.alpha_per_level or {}
            missing = [db for db in self.level_db_list if float(db) not in table]
            if missing:
                raise ParameterError(f"alpha_per_level lacks entries for {missing}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if not (0.0 <= self.beta_over_alpha <= 1.0):
            raise ParameterError(
                f"beta_over_alpha must lie in [0, 1], got {self.beta_over_alpha}")


@dataclass(frozen=True)
class ResultRow:
    """One solve, serialized in the CSV column order."""

    preset: str
    seed: int
    solver: str
    n: int
    m: int
    s: int
    c: int
    d: int
    eta: float
    L: float
    alpha: float
    level_db: float
    iterations: int
    runtime_ms: float
    snr_db: float
    rel_error: float
    final_residual: float
    termination: str


def preset_spec(name: str) -> ExperimentSpec:
    """Build the named experiment preset.

    The benchmark recoveries these grids are tuned around come from the
    update that applies the shrinkage at weight alpha itself (see
    solvers.SolverConfig), so every named preset turns compat_alpha on;
    "custom" leaves it off unless the caller asks.
    """
    if name == "test1":
        return ExperimentSpec(preset=name, eta_list=ETA_SWEEP, compat_alpha=True)
    if name == "test2":
        return ExperimentSpec(preset=name, L_list=(6.0, 8.0, 10.0, 20.0, 50.0, 100.0),
                              compat_alpha=True)
    if name == "test3":
        return ExperimentSpec(preset=name, eta_list=ETA_SWEEP,
                              level_db_list=(10.0, 20.0, 30.0, 40.0, 50.0),
                              alpha_mode="per_level", alpha=None,
                              alpha_per_level=dict(TEST3_ALPHA_PER_LEVEL),
                              compat_alpha=True)
    if name == "test4":
        return ExperimentSpec(preset=name, c_list=tuple(range(1, 10)),
                              d_list=tuple(range(1, 10)), max_iters=1000,
                              compat_alpha=True)
    if name == "test5":
        return ExperimentSpec(preset=name, solvers=SOLVER_NAMES, compat_alpha=True)
    if name == "custom":
        return ExperimentSpec(preset=name)
    raise ParameterError(f"unknown preset {name!r}; choose test1..test5 or custom")


@dataclass(frozen=True)
class _Task:
    """One grid point and seed of a spec; the unit of (possibly parallel) execution."""

    spec: ExperimentSpec
    c: int
    d: int
    eta: float
    L: float
    level_db: float
    seed: int
    want_traces: bool


@dataclass
class CompareOutput:
    """Rows of a grid run, plus per-iteration relative-error curves when traced.

    curves and digests are keyed by (seed, solver); the digest is the
    sha256 of the y_delta bytes each solver consumed, equal across solvers
    of one seed by construction.
    """

    rows: list[ResultRow]
    curves: dict[tuple[int, str], list[float]] = field(default_factory=dict)
    digests: dict[tuple[int, str], str] = field(default_factory=dict)


def _build_tasks(spec: ExperimentSpec, want_traces: bool) -> list[_Task]:
    grid = itertools.product(spec.c_list, spec.d_list, spec.eta_list, spec.L_list,
                             spec.level_db_list, spec.seeds)
    return [_Task(spec, int(c), int(d), float(eta), float(big_l), float(db), int(seed),
                  want_traces)
            for c, d, eta, big_l, db, seed in grid]


def _run_task(task: _Task) -> CompareOutput:
    spec = task.spec
    a, x_true = gaussian_instance(spec.n, spec.m, spec.s, spec.scale,
                                  np.random.SeedSequence((task.seed, 0)))
    op = PowerCsOperator(a, task.c, task.d)
    data = add_noise_db(op.apply(x_true), task.level_db,
                        np.random.SeedSequence((task.seed, 1)))
    cfg = SolverConfig(L=task.L, max_iters=spec.max_iters, tol=spec.tol,
                       x0=spec.x0_value * np.ones(spec.n),
                       compat_alpha_mode=spec.compat_alpha,
                       record_trace=task.want_traces)

    if spec.alpha_mode == "explicit":
        alpha = float(spec.alpha)
    elif spec.alpha_mode == "per_level":
        alpha = float(spec.alpha_per_level[task.level_db])
    elif spec.alpha_mode == "apriori":
        alpha = apriori_alpha(data.noise_norm, 2.0, spec.kappa)
    else:  # discrepancy
        search = discrepancy_search(op, data.y_delta, data.noise_norm, task.eta,
                                    DiscrepancyConfig(solver=cfg, tau=spec.tau))
        alpha = search.alpha

    out = CompareOutput(rows=[])
    nan = float("nan")
    for solver in spec.solvers:
        # hashed before each solve, so a solver that mutated the shared data shows
        out.digests[(task.seed, solver)] = hashlib.sha256(data.y_delta.tobytes()).hexdigest()
        start = time.perf_counter()
        try:
            if solver == "hv":
                result = hv_solve(op, data.y_delta, alpha, task.eta, cfg, x_true)
            elif solver == "ista":
                result = ista_solve(op, data.y_delta, alpha, cfg, x_true)
            else:
                result = stl1l2_solve(op, data.y_delta, alpha,
                                      spec.beta_over_alpha * alpha, cfg, x_true)
        except NumericalOverflowError:
            result = None
        runtime_ms = (time.perf_counter() - start) * 1000.0
        if result is None:
            outcome = dict(iterations=0, snr_db=nan, rel_error=nan,
                           final_residual=nan, termination=TERMINATION_FAILED)
        else:
            err = relative_error(result.x_star, x_true)
            outcome = dict(iterations=result.iterations, snr_db=_snr_of(err),
                           rel_error=err, final_residual=result.final_residual,
                           termination=result.termination)
            if task.want_traces:
                out.curves[(task.seed, solver)] = list(result.trace.rel_error)
        out.rows.append(ResultRow(
            preset=spec.preset, seed=task.seed, solver=solver, n=spec.n, m=spec.m,
            s=spec.s, c=task.c, d=task.d, eta=task.eta, L=task.L, alpha=alpha,
            level_db=task.level_db, runtime_ms=runtime_ms, **outcome))
    return out


def _run_grid(spec: ExperimentSpec, want_traces: bool) -> CompareOutput:
    """Run every task of the spec and merge their outputs, rows sorted."""
    tasks = _build_tasks(spec, want_traces)
    if spec.workers > 1 and len(tasks) > 1:
        # imported here: it pulls in multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            parts = list(pool.map(_run_task, tasks))
    else:
        parts = [_run_task(t) for t in tasks]
    out = CompareOutput(rows=[row for part in parts for row in part.rows])
    for part in parts:
        out.curves.update(part.curves)
        out.digests.update(part.digests)
    out.rows.sort(key=lambda r: (r.c, r.d, r.eta, r.L, r.level_db, r.seed, r.solver))
    return out


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the full grid of a spec; rows come back deterministically sorted."""
    return _run_grid(spec, want_traces=False).rows


def run_compare(spec: ExperimentSpec) -> CompareOutput:
    """Run all requested solvers on shared realizations, keeping traces.

    The grid must be a single point (each sweep list a singleton); only the
    seeds and solver names vary.
    """
    for name in ("c_list", "d_list", "eta_list", "L_list", "level_db_list"):
        if len(getattr(spec, name)) != 1:
            raise ParameterError(f"run_compare needs a single grid point; {name} "
                                 f"has {len(getattr(spec, name))} entries")
    return _run_grid(spec, want_traces=True)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows, path) -> None:
    """Write rows in the fixed column order; header always present."""
    names = [f.name for f in fields(ResultRow)]
    assert ",".join(names) == CSV_HEADER
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, name)) for name in names) + "\n")


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(curves: dict[str, list[float]], path,
             title: str = "relative error vs iteration") -> None:
    """Render one log-scale polyline per labeled curve into an SVG file."""
    drawn = {label: [float(v) for v in c] for label, c in curves.items() if len(c) > 0}
    if not drawn:
        raise ParameterError("no nonempty curves to plot")
    floor = 1e-16
    logs = {label: np.log10(np.maximum(np.asarray(c), floor))
            for label, c in drawn.items()}
    y_lo = min(float(v.min()) for v in logs.values())
    y_hi = max(float(v.max()) for v in logs.values())
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_hi = max(max(len(c) - 1 for c in drawn.values()), 1)

    width, height = 840, 520
    ml, mr, mt, mb = 75, 170, 45, 55

    def sx(x):
        return ml + (width - ml - mr) * x / x_hi

    def sy(y):
        return mt + (height - mt - mb) * (y_hi - y) / (y_hi - y_lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{(ml + width - mr) / 2:.1f}" y="25" text-anchor="middle" '
             f'font-family="sans-serif" font-size="15">{title}</text>']

    axis = 'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
                 f'y2="{height - mb}" {axis}/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" {axis}/>')

    for x in np.linspace(0, x_hi, 6):
        px = sx(x)
        parts.append(f'<line x1="{px:.1f}" y1="{height - mb}" x2="{px:.1f}" '
                     f'y2="{height - mb + 5}" {axis}/>')
        parts.append(f'<text x="{px:.1f}" y="{height - mb + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{int(round(x))}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                 f'iteration</text>')

    tick_lo, tick_hi = int(np.ceil(y_lo)), int(np.floor(y_hi))
    step = max(1, (tick_hi - tick_lo) // 8 + (1 if (tick_hi - tick_lo) % 8 else 0))
    for exp in range(tick_lo, tick_hi + 1, step):
        py = sy(exp)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" {axis}/>')
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{width - mr}" y2="{py:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{ml - 9}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{exp}</text>')

    for idx, (label, ys) in enumerate(sorted(logs.items())):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 18 + 20 * idx
        parts.append(f'<line x1="{width - mr + 14}" y1="{ly}" x2="{width - mr + 44}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - mr + 50}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _median_or_nan(values) -> float:
    values = [v for v in values if np.isfinite(v)]
    return float(np.median(values)) if values else float("nan")


def _print_summary(rows: list[ResultRow]) -> None:
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        key = (row.c, row.d, row.eta, row.L, row.level_db)
        groups.setdefault(key, {}).setdefault(row.solver, []).append(row.snr_db)
    for key in sorted(groups):
        c, d, eta, big_l, db = key
        for solver in sorted(groups[key]):
            med = _median_or_nan(groups[key][solver])
            count = len(groups[key][solver])
            print(f"c={c} d={d} eta={eta:g} L={big_l:g} dB={db:g} {solver}: "
                  f"median SNR {med:.2f} dB over {count} seeds")


@dataclass(frozen=True)
class ProxCheckReport:
    """Worst-case deviations over the random prox battery."""

    count: int
    max_bisect_gap: float
    max_soft_gap: float
    max_optimality_violation: float
    passed: bool


def prox_battery(count: int = 1000, dim_max: int = 10, amp: float = 5.0,
                 alpha_lo: float = 1e-4, alpha_hi: float = 10.0,
                 seed: int = 0) -> ProxCheckReport:
    """Random cross-check of the closed-form prox against its oracles.

    Compares the sort-based prox against the bisection route, against the
    equivalent soft threshold, and against the subgradient optimality
    conditions of the minimization it solves.
    """
    if count < 1 or dim_max < 1:
        raise ParameterError("count and dim_max must be positive")
    rng = np.random.default_rng(seed)
    worst_gap = worst_soft = worst_opt = 0.0
    for _ in range(count):
        n = int(rng.integers(1, dim_max + 1))
        x = rng.uniform(-amp, amp, n)
        alpha = 10.0 ** rng.uniform(np.log10(alpha_lo), np.log10(alpha_hi))
        sol = prox_sql1(x, alpha)
        ref = prox_sql1_bisect(x, alpha)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.p - ref))))
        worst_soft = max(worst_soft, float(np.max(np.abs(
            sol.p - soft_threshold(x, sol.threshold)))))
        p1 = float(np.sum(np.abs(sol.p)))
        nz = sol.p != 0
        if nz.any():
            worst_opt = max(worst_opt, float(np.max(np.abs(
                x[nz] - sol.p[nz] - 2.0 * alpha * p1 * np.sign(sol.p[nz])))))
        if (~nz).any():
            worst_opt = max(worst_opt, float(np.max(
                np.abs(x[~nz]) - 2.0 * alpha * p1)))
    passed = worst_gap <= 1e-9 and worst_soft == 0.0 and worst_opt <= 1e-8
    return ProxCheckReport(count=count, max_bisect_gap=worst_gap,
                           max_soft_gap=worst_soft,
                           max_optimality_violation=worst_opt, passed=passed)


def _parse_list(text: str, convert, what: str) -> tuple:
    try:
        values = tuple(convert(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(text, float, "comma-separated numbers")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "comma-separated integers")


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = _parse_list(text, int, "a seed count or a comma-separated seed list")
    return seeds if "," in text else tuple(range(seeds[0]))


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def _spec_overrides(args) -> dict:
    """Collect ExperimentSpec replacements from parsed CLI flags."""
    direct = {"n": "n", "m": "m", "sparsity": "s", "scale": "scale",
              "max_iters": "max_iters", "tol": "tol", "tau": "tau",
              "kappa": "kappa", "beta_ratio": "beta_over_alpha",
              "workers": "workers", "out": "out", "x0": "x0_value",
              "c": "c_list", "d": "d_list", "eta": "eta_list", "L": "L_list",
              "snr_db": "level_db_list", "seeds": "seeds", "solvers": "solvers"}
    over = {name: getattr(args, flag) for flag, name in direct.items()
            if getattr(args, flag) is not None}
    if args.compat_alpha:
        over["compat_alpha"] = True
    if args.alpha is not None:
        over.update(_parse_alpha(args.alpha))
    return over


def _parse_alpha(text: str) -> dict:
    mode = text.replace("-", "_")
    if mode in ("discrepancy", "apriori", "per_level"):
        return {"alpha_mode": mode, "alpha": None}
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(
            f"--alpha must be a number, 'discrepancy', 'apriori', or 'per-level'; "
            f"got {text!r}") from None
    return {"alpha_mode": "explicit", "alpha": value}


def _config_value(key: str, value, hint):
    """A JSON config value as the spec field type ``hint``; TypeError if it is not one."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # an optional field, X | None
        return None if value is None else _config_value(key, value, args[0])
    if origin is tuple and type(value) is list:
        return tuple(_config_value(key, v, args[0]) for v in value)
    if origin is dict and type(value) is dict:
        return {float(k): _config_value(key, v, args[1]) for k, v in value.items()}
    if type(value) in (int, float) and hint in (int, float) and value == hint(value):
        value = hint(value)  # integral floats for int fields, ints for float fields
    if type(value) is not (origin or hint):
        wanted = {tuple: "a list", dict: "an object"}.get(origin, hint.__name__)
        raise TypeError(f"{key} must be {wanted}, got {value!r}")
    return value


def _load_config_spec(path: str) -> ExperimentSpec:
    """Build a spec from a JSON mapping of spec fields (preset optional)."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    spec = preset_spec(str(raw.pop("preset", "custom")))
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = set(raw) - known
    if unknown:
        raise ParameterError(f"config {path} has unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(ExperimentSpec)
    try:
        return replace(spec, **{key: _config_value(key, value, hints[key])
                                for key, value in raw.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"config {path}: {exc}") from None


def _resolve_spec(args) -> ExperimentSpec:
    target = args.preset
    if target.endswith(".json"):
        spec = _load_config_spec(target)
    else:
        spec = preset_spec(target)
    return replace(spec, **_spec_overrides(args))


def _exit_code_for(rows: list[ResultRow]) -> int:
    return 3 if any(r.termination == TERMINATION_FAILED for r in rows) else 0


def _cmd_run(args) -> int:
    spec = _resolve_spec(args)
    rows = run_experiment(spec)
    out = spec.out or f"{spec.preset}_results.csv"
    emit_csv(rows, out)
    _print_summary(rows)
    failed = sum(r.termination == TERMINATION_FAILED for r in rows)
    print(f"wrote {out} ({len(rows)} rows" +
          (f", {failed} failed)" if failed else ")"))
    return _exit_code_for(rows)


def _cmd_compare(args) -> int:
    spec = _resolve_spec(args)
    if len(spec.solvers) < 2 and spec.preset == "custom":
        spec = replace(spec, solvers=SOLVER_NAMES)
    output = run_compare(spec)
    out = spec.out or f"{spec.preset}_results.csv"
    emit_csv(output.rows, out)
    first_seed = spec.seeds[0]
    curves = {solver: curve for (seed, solver), curve in output.curves.items()
              if seed == first_seed}
    svg_path = args.svg or f"{spec.preset}_rerror.svg"
    drawn = any(curves.values())  # False when every solve of the first seed diverged
    if drawn:
        emit_svg(curves, svg_path)
    _print_summary(output.rows)
    print(f"wrote {out} ({len(output.rows)} rows)"
          + (f" and {svg_path}" if drawn else "; no curve to plot, no SVG"))
    return _exit_code_for(output.rows)


def _cmd_rate(args) -> int:
    """Median error per noise norm under the a-priori alpha, and its log-log slope."""
    if (args.c is None) != (args.d is None):
        raise ParameterError("set both exponents --c and --d or neither")
    cfg = SolverConfig(L=args.L, max_iters=args.max_iters, tol=args.tol,
                       record_trace=False)
    for what, values in (("noise levels", args.deltas), ("seeds", args.seeds)):
        if len(values) < 3:
            raise ParameterError(f"need at least 3 {what}, got {len(values)}")
    alphas = [apriori_alpha(delta, args.q, args.kappa) for delta in args.deltas]
    medians = []
    failed = 0
    for delta, alpha in zip(args.deltas, alphas):
        errs = []
        for seed in args.seeds:
            a, x_true = gaussian_instance(args.n, args.m, args.sparsity, args.scale,
                                          np.random.SeedSequence((seed, 0)))
            op = MatrixOperator(a) if args.c is None else PowerCsOperator(a, args.c, args.d)
            try:
                y_delta = add_noise_norm(op.apply(x_true), delta,
                                         np.random.SeedSequence((seed, 1))).y_delta
                x_star = hv_solve(op, y_delta, alpha, args.eta, cfg).x_star
            except NumericalOverflowError:
                failed += 1
                continue
            errs.append(float(np.linalg.norm(x_star - x_true)))
        medians.append(float(np.median(errs)) if errs else float("nan"))
    for delta, alpha, err in zip(args.deltas, alphas, medians):
        print(f"delta={delta:.3e} alpha={alpha:.3e} median error={err:.3e}")
    finite = [(delta, err) for delta, err in zip(args.deltas, medians) if not np.isnan(err)]
    if len(finite) < 2:
        print("no log-log fit: fewer than 2 noise levels have a finite median error")
    else:
        slope, degenerate = fit_loglog_slope(*zip(*finite))
        print(f"fitted log-log slope: {slope:.4f}"
              + (" (degenerate fit)" if degenerate else ""))
    if failed:
        print(f"{failed} of {len(args.deltas) * len(args.seeds)} solves failed"
              " (numerical overflow)")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("delta,alpha,median_error\n")
            for row in zip(args.deltas, alphas, medians):
                fh.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.out}")
    return 3 if failed else 0


def _cmd_prox_check(args) -> int:
    report = prox_battery(count=args.count, dim_max=args.dim_max, amp=args.amp,
                          alpha_lo=args.alpha_lo, alpha_hi=args.alpha_hi,
                          seed=args.seed)
    print(f"prox battery over {report.count} random vectors:")
    print(f"  max gap vs bisection route : {report.max_bisect_gap:.3e} (tol 1e-9)")
    print(f"  max gap vs soft threshold  : {report.max_soft_gap:.3e} (must be 0)")
    print(f"  max optimality violation   : {report.max_optimality_violation:.3e} "
          f"(tol 1e-8)")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 3


def _cmd_jac_check(args) -> int:
    a, x_true = gaussian_instance(args.n, args.m, max(1, args.n // 10),
                                  args.scale, args.seed)
    op = PowerCsOperator(a, args.c_exp, args.d_exp)
    rng = np.random.default_rng(args.seed + 1)
    x = 0.5 * x_true + 0.01 * rng.standard_normal(args.n)
    report = fd_jacobian_check(op, x, h=args.h, tol=args.tol_check,
                               num_directions=args.directions, seed=args.seed + 2)
    lin = op.linearize(x)
    worst_adj = 0.0
    for _ in range(args.directions):
        u = rng.standard_normal(args.n)
        r = rng.standard_normal(args.m)
        lhs = float(lin.jvp(u) @ r)
        rhs = float(u @ lin.vjp(r))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    print(f"jacobian check for c={args.c_exp}, d={args.d_exp}, n={args.n}, m={args.m}:")
    print(f"  max relative finite-difference gap : {report.max_rel_deviation:.3e} "
          f"(tol {report.tol:g})")
    print(f"  max relative adjoint-identity gap  : {worst_adj:.3e} (tol 1e-10)")
    passed = report.passed and worst_adj <= 1e-10
    print("PASS" if passed else "FAIL")
    return 0 if passed else 3


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="signal length")
    p.add_argument("--m", type=int, help="measurement count")
    p.add_argument("--sparsity", type=int, help="nonzero count of the true signal")
    p.add_argument("--c", type=_parse_int_list, help="outer exponent(s), comma separated")
    p.add_argument("--d", type=_parse_int_list, help="inner exponent(s), comma separated")
    p.add_argument("--eta", type=_parse_float_list,
                   help="concave ratio(s) in [0,1], comma separated")
    p.add_argument("--alpha", help="penalty weight, or discrepancy/apriori/per-level")
    p.add_argument("--L", type=_parse_float_list, help="step constant(s), comma separated")
    p.add_argument("--snr-db", dest="snr_db", type=_parse_float_list,
                   help="noise level(s) in dB, comma separated")
    p.add_argument("--seeds", type=_parse_seeds,
                   help="seed count, or comma-separated seed list")
    p.add_argument("--solvers", type=_parse_name_list, help="subset of hv,ista,st")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="iteration budget")
    p.add_argument("--tol", type=float, help="adjacent-iterate stopping threshold")
    p.add_argument("--tau", type=float, help="discrepancy band factor (>= 1)")
    p.add_argument("--kappa", type=float, help="a-priori rule constant")
    p.add_argument("--beta-ratio", dest="beta_ratio", type=float,
                   help="beta/alpha for the st solver (default 1)")
    p.add_argument("--scale", type=float, help="sensing-matrix scale factor")
    p.add_argument("--x0", type=float, help="initial iterate fill value (default 0.01)")
    p.add_argument("--workers", type=int, help="parallel worker processes")
    p.add_argument("--compat-alpha", dest="compat_alpha", action="store_true",
                   help="use prox weight alpha instead of alpha/L")
    p.add_argument("--out", help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvsparse",
        description="Sparse recovery experiments with the squared-l1 minus "
                    "eta-squared-l2 penalty.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment preset or JSON config")
    p_run.add_argument("preset", help="test1..test5, custom, or a config.json")
    _add_grid_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several solvers on shared data")
    p_cmp.add_argument("preset", nargs="?", default="test5",
                       help="preset or config.json (default test5)")
    _add_grid_flags(p_cmp)
    p_cmp.add_argument("--svg", help="output SVG path for the error curves")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_rate = sub.add_parser("rate", help="error-vs-noise slope study",
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_rate.add_argument("--n", type=int, default=50, help="signal length")
    p_rate.add_argument("--m", type=int, default=25, help="measurement count")
    p_rate.add_argument("--sparsity", type=int, default=4,
                        help="nonzero count of the true signal")
    p_rate.add_argument("--scale", type=float, default=0.05,
                        help="sensing-matrix scale factor")
    p_rate.add_argument("--c", type=int, help="power-model outer exponent (with --d)")
    p_rate.add_argument("--d", type=int, help="power-model inner exponent (with --c)")
    p_rate.add_argument("--eta", type=float, default=1.0, help="concave ratio in [0,1]")
    p_rate.add_argument("--L", type=float, default=2.0, help="step constant")
    p_rate.add_argument("--max-iters", dest="max_iters", type=int, default=5000,
                        help="iteration budget")
    p_rate.add_argument("--tol", type=float, default=1e-8,
                        help="adjacent-iterate stopping threshold")
    p_rate.add_argument("--kappa", type=float, default=1.0, help="a-priori rule constant")
    p_rate.add_argument("--q", type=float, default=2.0,
                        help="fidelity exponent for the a-priori rule")
    p_rate.add_argument("--seeds", type=_parse_seeds, default="5",
                        help="seed count, or comma-separated seed list")
    p_rate.add_argument("--deltas", type=_parse_float_list,
                        default=tuple(float(v) for v in np.geomspace(1e-4, 1e-1, 7)),
                        help="noise norms, comma separated")
    p_rate.add_argument("--out", help="output CSV path")
    p_rate.set_defaults(handler=_cmd_rate)

    p_prox = sub.add_parser("prox-check", help="random prox cross-check battery")
    p_prox.add_argument("--count", type=int, default=1000)
    p_prox.add_argument("--dim-max", dest="dim_max", type=int, default=10)
    p_prox.add_argument("--amp", type=float, default=5.0)
    p_prox.add_argument("--alpha-lo", dest="alpha_lo", type=float, default=1e-4)
    p_prox.add_argument("--alpha-hi", dest="alpha_hi", type=float, default=10.0)
    p_prox.add_argument("--seed", type=int, default=0)
    p_prox.set_defaults(handler=_cmd_prox_check)

    p_jac = sub.add_parser("jac-check", help="finite-difference Jacobian check")
    p_jac.add_argument("--n", type=int, default=50)
    p_jac.add_argument("--m", type=int, default=20)
    p_jac.add_argument("--c", dest="c_exp", type=int, default=2)
    p_jac.add_argument("--d", dest="d_exp", type=int, default=3)
    p_jac.add_argument("--h", type=float, default=1e-6)
    p_jac.add_argument("--tol", dest="tol_check", type=float, default=1e-5)
    p_jac.add_argument("--directions", type=int, default=10)
    p_jac.add_argument("--scale", type=float, default=0.05)
    p_jac.add_argument("--seed", type=int, default=0)
    p_jac.set_defaults(handler=_cmd_jac_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalOverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"i/o error{f' ({name})' if name else ''}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
