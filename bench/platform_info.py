"""Machine description and the platform key of the recorded output digests.

Outputs are byte-identical for a given platform, not across platforms: the
dense products in ``compile --verify`` go through the BLAS, whose kernels
depend on the CPU.  Recorded digests are therefore only compared when the
platform key (Python, numpy, BLAS build and kernel, CPU model) matches.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: str) -> str:
    # sysfs lists each cache of cpu0 with its level and size
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == level and Path(index, "type").read_text().strip() != "Instruction":
                return Path(index, "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _openblas() -> tuple[str, int | None]:
    """Kernel name and thread count of numpy's bundled OpenBLAS, if it has one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            return corename().decode(), threads()
    return "unknown", None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernel, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_per_core": _cache_size("2"),
        "l3": _cache_size("3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": kernel,
        "blas_threads": threads,
    }


def key(info: dict) -> dict:
    return {k: info[k] for k in ("cpu_model", "python", "numpy", "blas", "blas_kernel")}


def recorded_digests(path: Path, workload: str, seed: int) -> list[list[str]] | None:
    """Digests per pool slot recorded for (workload, seed) on this platform, or None."""
    if not Path(path).exists():
        return None
    record = json.loads(Path(path).read_text())
    if record["platform"] != key(machine()):
        return None
    return record["digests"][workload].get(str(seed))
