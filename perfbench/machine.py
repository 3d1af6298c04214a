"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _blas() -> dict:
    """Name, version, runtime core and live thread count of numpy's BLAS."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "config": "unknown", "threads": None}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = deps.get("name", "unknown")
    info["version"] = deps.get("version", "unknown")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                info["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
            if threads is not None:
                return info
    return info


def _cpu() -> dict:
    """CPU model and cache sizes from the kernel's system information."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [Path(index, f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{parts[0]}{parts[1][0].lower() if parts[1] != 'Unified' else ''}"] = parts[2]
    return {"model": model, "caches": caches}


def _revision(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, src: Path, workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu(),
        "git_revision": _revision(root),
        "source_sha256": source_digest(src),
    }
