"""Smoke test of tools/bench_pairs.py on the runner's ``tiny`` workload."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pairs_on_tiny_workload(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    done = subprocess.run([sys.executable, "tools/bench_pairs.py", "--tag", "smoke",
                           "--base", str(ROOT), "--workloads", "tiny", "--seconds", "0.3",
                           "--pairs", "1", "--traced-pairs", "1", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["tag"] == "smoke"
    # the settings name each side: here both are this tree
    settings = record["settings"]
    assert settings["source_sha256"]["base"] == settings["source_sha256"]["head"] is not None
    assert (settings["head_commit"] is None) == (settings["head_dirty"] is None)
    # the side that runs first alternates from pair to pair
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base")]
    assert all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in record["runs"])
    assert sorted(record["series"]) == ["tiny/trace0", "tiny/trace1"]
    for name, series in record["series"].items():
        assert series["correct"] == {"base": True, "head": True}
        assert series["environment"]["base"]["source_sha256"] == \
            series["environment"]["head"]["source_sha256"]
        for entry in series["metrics"].values():
            for side in ("base", "head"):
                stats = entry[side]
                assert stats["n"] == 1 and stats["q1"] == stats["median"] == stats["q3"]
    us = record["series"]["tiny/trace0"]["metrics"]["us_per_iter"]
    assert us["better"] == "lower" and us["head_wins"] in (0, 1)
