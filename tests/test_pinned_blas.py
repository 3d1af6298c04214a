"""The accelerated-rule tests under the benchmark's BLAS pin.

perfbench pins OpenBLAS to its Haswell kernels on one thread, whose dot
products round differently from the kernel picked at run time. Line-search
decisions that sit on a rounding boundary then go the other way, so the
accelerated-rule tests of test_solvers.py are rerun in a child process under
that pin, where the environment variables take effect at BLAS load time."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # numpy without the dict form of its build info
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy is not built on OpenBLAS")
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the Haswell kernels need an x86-64 CPU")
def test_accelerated_rule_tests_pass_under_pinned_blas():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_solvers.py"), "-k", "accelerated"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
