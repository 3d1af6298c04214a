"""Record the output-check reference: one pass of every workload.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``. Run it only when the program's outputs
are meant to change; the benchmark compares every pass with this file.
"""

from __future__ import annotations

import json

import run  # first: it pins the BLAS environment before numpy loads
import workloads

import numpy as np


def main() -> int:
    hvsparse = run.import_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    reference = {"tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL,
                               "exact_columns": sorted(workloads.EXACT_COLUMNS),
                               "dropped_columns": sorted(workloads.DROPPED_COLUMNS)}}
    for name in workloads.WORKLOADS:
        argvs = workloads.command_lines(name, np.random.default_rng(0), run.OUT_DIR,
                                        hvsparse.expcli.preset_spec)
        _, codes = run.run_pass(hvsparse.expcli, argvs)
        commands = []
        for argv, code in zip(argvs, codes):
            header, rows = workloads.read_product(run.Path(argv[argv.index("--out") + 1]))
            commands.append({"argv": argv[:argv.index("--out")], "exit_code": code,
                             "header": header, "rows": rows})
        reference[name] = {"commands": commands}
        print(f"{name}: exit codes {codes}, rows {[len(c['rows']) for c in commands]}")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
