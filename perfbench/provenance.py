"""Where a result was measured: cores, CPU, library versions, BLAS threads."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(getter())
                break
    return threads


def thread_settings() -> dict:
    """Thread variables from the environment and the effective counts."""
    import scipy.fft

    return {
        "env": {name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ},
        "openblas": _openblas_threads(),
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def thread_violations(settings: dict, cores: int) -> list[str]:
    """Every configured thread count above the number of usable cores."""
    found = []
    for name, value in settings["env"].items():
        for part in value.split(","):
            if part.strip().isdigit() and int(part) > cores:
                found.append(f"{name}={value}")
    for lib, count in settings["openblas"].items():
        if count > cores:
            found.append(f"{lib} runs {count} threads")
    if settings["scipy_fft_workers"] > cores:
        found.append(f"scipy.fft workers {settings['scipy_fft_workers']}")
    return found


def collect() -> dict:
    """Provenance of the running process; call after numpy and scipy load."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": thread_settings(),
    }
