"""The measuring scripts under ``tools/`` run end to end."""

import re
import subprocess
import sys
from pathlib import Path

import z11sim

ROOT = Path(__file__).resolve().parent.parent


def test_working_set_prints_cold_and_warm_peaks():
    """``tools/working_set.py 64`` prints one row per command, each with
    the cold and the warm run's traced peak in MiB and in n x n float
    arrays, which are the same figure in two units, and last the growth
    of ru_maxrss in MB over a run in a fresh interpreter."""
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "working_set.py"), "64"],
                            capture_output=True, text=True, cwd=ROOT, check=True, timeout=120)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["command", "n", "cold", "MiB", "n^2", "arrays",
                              "warm", "MiB", "n^2", "arrays", "RSS", "MB"]
    assert [row.split()[:2] for row in rows] == [
        ["solve-profile", "64"], ["evolve", "64"], ["verify-self-similar", "64"]]
    for row in rows:
        cold_mib, cold_arrays, warm_mib, warm_arrays, rss_mb = map(float, row.split()[2:])
        # printed to two decimals; at n = 64 a run raises the peak by far
        # less than the interpreter's own 30 MB
        assert re.fullmatch(r"\d+\.\d\d", row.split()[-1])
        assert 0.0 <= rss_mb < 30.0
        for mib, arrays in ((cold_mib, cold_arrays), (warm_mib, warm_arrays)):
            assert mib > 0
            # one n x n float array at n = 64 is 1/32 MiB; both are rounded
            assert abs(arrays - 32 * mib) <= 0.2


def test_code_lines_totals_match_the_package():
    """``tools/code_lines.py`` prints one row per module of the package,
    whose code and physical line counts sum to its totals; then the
    settable INI values, the keys of ``config._SCHEMA``, per section and
    in total; then the package's exports, ``len(__all__)``."""
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                            capture_output=True, text=True, cwd=ROOT, check=True, timeout=120)
    modules, sections, exports = result.stdout.split("\n\n")
    header, *rows, total = (line.split() for line in modules.splitlines())
    assert header == ["module", "code", "wc", "-l"]
    assert {row[0] for row in rows} == {path.name for path in ROOT.glob("src/z11sim/*.py")}
    assert total == ["total"] + [str(sum(int(row[i]) for row in rows)) for i in (1, 2)]
    header, *rows, total = (line.split() for line in sections.splitlines())
    assert [row[0] for row in rows] == list(z11sim.config._SCHEMA)
    assert total == ["total", str(sum(int(row[1]) for row in rows))]
    assert total[1] == str(sum(map(len, z11sim.config._SCHEMA.values())))
    assert exports.split() == ["exports", str(len(z11sim.__all__))]


def test_coercivity_cost_prints_one_row_per_mask():
    """``tools/coercivity_cost.py 64`` prints one row per mask of its
    family, each with the cells, the chords, delta, the applies, the
    preconditioner applies, one fewer (the start vector takes an apply
    and no preconditioner apply), and the wall time in ms."""
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "coercivity_cost.py"), "64"],
                            capture_output=True, text=True, cwd=ROOT, check=True, timeout=120)
    header, *rows = (line.split() for line in result.stdout.splitlines())
    assert header == ["mask", "n", "cells", "chords", "delta", "applies", "precond", "ms"]
    assert [row[:2] for row in rows] == [
        [name, "64"] for name in ("disk", "ellipse-0.5x1", "ellipse-1.5x1", "rectangle-1x2",
                                  "rectangle-2x1", "annulus", "one-column", "three-lobes",
                                  "cut-disk", "two-disks-x1", "two-disks-x2")]
    for _, _, cells, chords, delta, applies, preconditions, ms in rows:
        assert 1 <= int(chords) <= int(cells)
        assert 0.0 < float(delta) <= 1.0
        assert int(applies) == int(preconditions) + 1
        assert float(ms) > 0.0


def test_untested_lines_lists_the_lines_no_test_runs():
    """``tools/untested_lines.py tests/test_shapes.py`` prints each line of
    a package function that the module's tests do not run, as
    ``path:line: function: source`` with the source as in the file, and
    last their count. The shapes tests run every line of ``shapes.py``
    and none of ``cli.main``."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untested_lines.py"), "tests/test_shapes.py"],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=300)
    *rows, total = result.stdout.splitlines()
    assert total == f"untested lines: {len(rows)}"
    listed = set()
    for row in rows:
        match = re.fullmatch(r"(src/z11sim/\w+\.py):(\d+): ([\w.<>]+): (.+)", row)
        assert match, row
        path, line, _, text = match.groups()
        assert (ROOT / path).read_text().splitlines()[int(line) - 1].strip() == text
        listed.add((path, match[3]))
    assert not any(path == "src/z11sim/shapes.py" for path, _ in listed)
    assert ("src/z11sim/cli.py", "main") in listed
