"""Interleaved base/head runs of the benchmark, written to one BENCH file.

    python3 tools/bench_pairs.py --tag NAME --base DIR [--base-rev REV]
        [--workloads W1,W2] [--seed N] [--seconds S]
        [--pairs N] [--traced-pairs M] [--out PATH]

Runs ``python3 perfbench/run.py --workload W --seed N --seconds S --trace T``
in two checkouts, the base (the parent commit) and the head (this tree),
in pairs: per workload, ``--pairs`` pairs at ``--trace 0`` and
then ``--traced-pairs`` pairs at ``--trace 1``. The two runs of a pair are
back to back, and the side that goes first alternates from pair to pair, so
a drift in machine load falls on both sides alike.

``--base-rev REV`` first exports that revision of this repository into the
base directory with ``git archive``, which, unlike a worktree, leaves no
state behind in the repository. Without it ``--base`` must already hold a
checkout.

The output, ``BENCH_<tag>.json`` in this tree unless ``--out`` says
otherwise, holds every run's last-line JSON, each side's median and
quartiles per metric with the number of pairs the head won, and the
environment record the runner printed for each side of each series. Its
settings name both sides: the base commit (when ``--base-rev`` exported
it), the head's commit with a flag for uncommitted changes to tracked
files, and the runner's digest of each side's sources. Which direction is
better comes from this tree's ``BENCHMARK.json``; metrics it does not list
get no win count.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eta_sweep", "exponent_grid", "compare_traced", "param_select")
SIDES = ("base", "head")


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``, which must not exist yet;
    return the full commit hash."""
    if dest.exists():
        raise SystemExit(f"error: {dest} exists; --base-rev needs a new directory")
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def head_state() -> tuple[str | None, bool | None]:
    """This tree's commit and whether tracked files differ from it;
    (None, None) outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    commit = git("rev-parse", "--verify", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if commit.returncode != 0 or status.returncode != 0:
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in ``tree``; return (last-line result, environment)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: benchmark in {tree} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    return json.loads(lines[-1]), env


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the head's pair wins."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for name in by_side["head"][0]["result"]["metrics"]:
        entry = {}
        for side in SIDES:
            values = [r["result"]["metrics"][name]["value"] for r in by_side[side]]
            q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                           if len(values) > 1 else values * 3)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            pairs = zip(by_side["base"], by_side["head"])
            entry["head_wins"] = sum(
                sign * (b["result"]["metrics"][name]["value"]
                        - h["result"]["metrics"][name]["value"]) > 0 for b, h in pairs)
            entry["better"] = better[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--base", type=Path, required=True, help="base checkout directory")
    parser.add_argument("--base-rev", help="export this revision into --base first")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=5, help="pairs per workload at --trace 0")
    parser.add_argument("--traced-pairs", type=int, default=1,
                        help="pairs per workload at --trace 1")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json in this tree)")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.traced_pairs < 0 or args.pairs + args.traced_pairs == 0:
        parser.error("need at least one pair")

    base_commit = export_revision(args.base_rev, args.base) if args.base_rev else None
    head_commit, head_dirty = head_state()
    trees = {"base": args.base.resolve(), "head": ROOT}
    if not (trees["base"] / "perfbench" / "run.py").is_file():
        parser.error(f"--base {trees['base']} holds no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    runs, series, digests = [], {}, {}
    pair = 0
    for workload in args.workloads.split(","):
        for trace, count in ((0, args.pairs), (1, args.traced_pairs)):
            these, environment = [], {}
            for _ in range(count):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result, env = run_once(trees[side], workload, args.seed, args.seconds, trace)
                    environment.setdefault(side, env)
                    digests.setdefault(side, (env or {}).get("source_sha256"))
                    these.append({"workload": workload, "trace": trace, "pair": pair,
                                  "side": side, "position": position, "result": result})
                    metric = "us_per_iter" if trace == 0 else "solvers.self_us_per_iter"
                    value = result["metrics"].get(metric, {}).get("value", float("nan"))
                    print(f"{workload} trace {trace} pair {pair} {side}: correct "
                          f"{result['correct']}, {metric} {value:.2f}", flush=True)
                pair += 1
            if these:
                runs += these
                series[f"{workload}/trace{trace}"] = {
                    "pairs": count,
                    "correct": {s: all(r["result"]["correct"] for r in these if r["side"] == s)
                                for s in SIDES},
                    "failed": {s: sum(r["result"]["failed"] for r in these if r["side"] == s)
                               for s in SIDES},
                    "environment": environment,
                    "metrics": summarize(these, better)}

    record = {
        "tag": args.tag,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "settings": {"workloads": args.workloads.split(","), "seed": args.seed,
                     "seconds": args.seconds, "pairs": args.pairs,
                     "traced_pairs": args.traced_pairs, "base_rev": args.base_rev,
                     "base_commit": base_commit, "head_commit": head_commit,
                     "head_dirty": head_dirty, "source_sha256": digests},
        "series": series,
        "runs": runs,
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
