"""Run context recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import re
import subprocess

# thread-count getters of the OpenBLAS builds numpy ships or links
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """BLAS library from numpy's build config and the thread count the
    loaded library reports (threadpoolctl is not available)."""
    import numpy as np

    info: dict = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["loaded"] = os.path.basename(path)
                break
        if info["threads"] is not None:
            break
    info["env"] = {k: os.environ[k] for k in _BLAS_ENV if k in os.environ}
    return info


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _src_stats(root: str) -> tuple[int, str]:
    """Line count and content digest of the package sources under src/."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        h.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return lines, h.hexdigest()


def run_context(root: str) -> dict:
    import numpy as np

    lines, digest = _src_stats(root)
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": _git_commit(root),
        "src_sha256": digest,
        "src_lines": lines,
    }
