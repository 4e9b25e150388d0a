"""Measure the peak working set of the full-grid commands.

For each of ``solve-profile``, ``evolve`` and ``verify-self-similar`` the
script runs the command twice through ``z11sim.cli.main`` under
``tracemalloc`` and prints each run's traced peak, in MiB and in float64
arrays of ``n x n`` (8 n^2 bytes). The first (cold) run starts with the
cache of circulant symbols cleared, so its peak includes the build of
the operator's symbol; the second (warm) run reuses that symbol, so its
peak is the command's full-grid working set alone. The configs are the
benchmark's three cases centred at the origin, as the Tier-1 test
``TestBoundedMemory::test_full_grid_working_set`` runs them, at the given
grid size. Output directories go to a temporary directory that is
removed afterwards.

A last column runs each command once more, in a fresh interpreter without
tracemalloc, and prints how far ``main`` raised the process's
``ru_maxrss`` above its level after the imports, in MB (KiB / 1024, as
the benchmark's ``peak_rss_mb``). tracemalloc sees only the arrays;
this column also counts what it cannot see: library code paged in on a
first call (LAPACK's, for one) and where the heap places what is freed.

Run from the repository root:

    python tools/working_set.py [n ...]        (default: 256)
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = {
    "solve-profile": (
        "[run]\ncommand = solve-profile\noutput_dir = {out}\n\n"
        "[grid]\nn = {n}\nbox_length = 16.0\n\n"
        "[shape]\nspec = disk(0, 0, 1)\n"
    ),
    "evolve": (
        "[run]\ncommand = evolve\noutput_dir = {out}\nsnapshot_times = 1.0\n\n"
        "[grid]\nn = {n}\nbox_length = 16.0\n\n"
        "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 2.0\n\n"
        "[evolve]\nt_max = 20.0\nrecord_every = 1\n"
    ),
    "verify-self-similar": (
        "[run]\ncommand = verify-self-similar\noutput_dir = {out}\n\n"
        "[grid]\nn = {n}\nbox_length = 16.0\n\n"
        "[shape]\nspec = disk(0, 0, 1)\n\n"
        "[evolve]\nrtol = 1e-10\natol = 1e-12\n\n"
        "[verify]\nt_blowup = 1.0\nt_final = 0.9\n"
    ),
}


def traced_peak(main, workdir: Path, command: str, n: int, name: str) -> int:
    """Peak traced bytes of one run of ``command`` at grid size ``n``."""
    ini = workdir / f"{name}.ini"
    ini.write_text(CONFIGS[command].format(out=workdir / name, n=n))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(ini)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        raise RuntimeError(f"{command} at n = {n} exited with {code}")
    return peak


# One run of main in a fresh interpreter: its exit code, then the growth
# of ru_maxrss (KiB) from after the imports to after the run.
RSS_GROWTH = (
    "import contextlib, io, resource, sys\n"
    "from z11sim.cli import main\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main([sys.argv[1]])\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
)


def rss_growth(workdir: Path, command: str, n: int) -> float:
    """Growth of ru_maxrss in MB over one run of ``command`` in a fresh
    interpreter."""
    ini = workdir / "rss.ini"
    ini.write_text(CONFIGS[command].format(out=workdir / "rss", n=n))
    result = subprocess.run([sys.executable, "-c", RSS_GROWTH, str(ini)],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    code, kib = map(int, result.stdout.split())
    if code != 0:
        raise RuntimeError(f"{command} at n = {n} exited with {code}")
    return kib / 1024


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv[1:]] or [256]
    print(f"{'command':<22}{'n':>6}{'cold MiB':>10}{'n^2 arrays':>12}"
          f"{'warm MiB':>10}{'n^2 arrays':>12}{'RSS MB':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        # The fresh interpreters run first: Linux carries a process's RSS
        # at fork into its child's ru_maxrss, so this one must still hold
        # no numpy and no grid.
        rss = {(command, n): rss_growth(workdir, command, n)
               for n in sizes for command in CONFIGS}
        sys.path.insert(0, str(SRC))
        from z11sim.cli import main as cli_main
        from z11sim.profile import _box_kernel

        for n in sizes:
            for command in CONFIGS:
                _box_kernel.cache_clear()
                row = f"{command:<22}{n:>6}"
                for name in ("cold", "warm"):
                    peak = traced_peak(cli_main, workdir, command, n, name)
                    row += f"{peak / 2**20:>10.2f}{peak / (8 * n * n):>12.2f}"
                print(row + f"{rss[command, n]:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
