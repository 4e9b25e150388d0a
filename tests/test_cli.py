"""Command-line driver tests: whole runs through main() against real
configuration files in temporary directories, artifact inspection, the
error contract on stderr, and byte-level determinism of reruns."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import z11sim
from z11sim import (
    Mask,
    RealField,
    SingularOperatorError,
    read_field,
    read_trace_csv,
    self_similar_deviation,
    sup_norm,
)
import z11sim.cli as cli
import z11sim.evolution as evolution
from z11sim.cli import main
from z11sim.profile import _box_kernel

from oracles import full_grid_deviation, read_header


# The top-level keys of each command's JSON summary, pinned so that the
# builder the commands share can neither drop nor add one.
RUN_KEYS = {"command", "grid_n", "box_length"}
SOLVE_RESULT_KEYS = {"shape", "residual_l2", "iterations", "delta_estimate", "delta_over_h2",
                     "cell_count"}
EVOLVE_RESULT_KEYS = {"terminated", "accepted_steps", "rejected_steps"}
SUMMARY_KEYS = {
    "solve.json": RUN_KEYS | SOLVE_RESULT_KEYS | {"tol", "max_iter", "mask_area", "verification"},
    "evolve.json": RUN_KEYS | EVOLVE_RESULT_KEYS | {
        "records", "final_time", "final_sup_norm", "final_integral", "final_support_cells",
        "blowup_time_estimate", "fit_quality", "snapshots"},
    "verify.json": RUN_KEYS | SOLVE_RESULT_KEYS | EVOLVE_RESULT_KEYS | {
        "t_blowup", "t_final", "max_deviation", "final_deviation", "fitted_t_blowup",
        "fit_quality"},
    "diagnostics.json": {"grid_n", "box_length", "seed", "multiplier_identities",
                         "cone_mass"},
}


def run_cli(capsys, config_path):
    code = main([str(config_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_ini(output_dir="solveout", tol="1e-9"):
    return (
        "[run]\n"
        "command = solve-profile\n"
        f"output_dir = {output_dir}\n"
        "\n"
        "[grid]\n"
        "n = 32\n"
        "box_length = 8.0\n"
        "\n"
        "[shape]\n"
        "spec = disk(0, 0, 0.5)\n"
        "\n"
        "[solver]\n"
        f"tol = {tol}\n"
    )


class TestSolveProfileCommand:
    def test_run_and_artifacts(self, tmp_path, capsys):
        ini = tmp_path / "solve.ini"
        ini.write_text(solve_ini())
        code, out, err = run_cli(capsys, ini)
        assert code == 0
        assert err == ""
        assert out.strip() == "solve-profile: wrote profile.vpf mask.vpf solve.json"

        outdir = tmp_path / "solveout"
        profile = read_field(outdir / "profile.vpf")
        mask = read_field(outdir / "mask.vpf")
        assert isinstance(profile, RealField)
        assert isinstance(mask, Mask)
        assert read_header(outdir / "profile.vpf").kind == "profile"
        assert np.all(profile.values[~mask.indicator] == 0.0)

        record = json.loads((outdir / "solve.json").read_text())
        assert set(record) == SUMMARY_KEYS["solve.json"]
        assert record["residual_l2"] <= 1e-9
        assert record["cell_count"] == int(mask.indicator.sum())
        assert 0.0 < record["delta_estimate"] <= 1.0
        h = record["box_length"] / record["grid_n"]
        assert record["delta_over_h2"] == record["delta_estimate"] / h**2
        assert record["verification"]["off_mask_exact_zero"] is True
        assert record["shape"] == "disk(0, 0, 0.5)"

    def test_builds_one_grid(self, tmp_path, capsys, monkeypatch):
        """A run builds one grid: the operator's box kernel takes the run's
        grid rather than building a grid of its own."""
        built = []
        post_init = z11sim.Grid.__post_init__

        def counting(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(z11sim.Grid, "__post_init__", counting)
        _box_kernel.cache_clear()
        ini = tmp_path / "solve.ini"
        ini.write_text(solve_ini())
        assert run_cli(capsys, ini)[0] == 0
        assert built == [32]

    def test_delta_is_estimated_before_any_write(self, tmp_path, capsys, monkeypatch):
        """The command, not the solve, estimates delta, and before it
        writes: a numerically singular estimate fails the run with its
        record and leaves no profile behind."""
        def singular(op):
            raise SingularOperatorError("operator numerically singular (stub)")

        monkeypatch.setattr(cli, "estimate_coercivity", singular)
        ini = tmp_path / "solve.ini"
        ini.write_text(solve_ini())
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        record = json.loads(err.strip())
        assert record == {"error": "SingularOperatorError",
                          "message": "operator numerically singular (stub)"}
        outdir = tmp_path / "solveout"
        assert json.loads((outdir / "error.json").read_text()) == record
        assert sorted(os.listdir(outdir)) == ["error.json"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for name, outdir in (("a.ini", "out_a"), ("b.ini", "out_b")):
            ini = tmp_path / name
            ini.write_text(solve_ini(output_dir=outdir))
            assert run_cli(capsys, ini)[0] == 0
        for artifact in ("profile.vpf", "mask.vpf", "solve.json"):
            a = (tmp_path / "out_a" / artifact).read_bytes()
            b = (tmp_path / "out_b" / artifact).read_bytes()
            assert a == b, artifact


class TestEvolveCommand:
    def _solve_first(self, tmp_path, capsys):
        ini = tmp_path / "solve.ini"
        ini.write_text(solve_ini())
        assert run_cli(capsys, ini)[0] == 0
        return read_field(tmp_path / "solveout" / "profile.vpf")

    def _evolve_ini(self, extra_run=""):
        return (
            "[run]\n"
            "command = evolve\n"
            "output_dir = evolveout\n"
            f"{extra_run}"
            "\n"
            "[grid]\n"
            "n = 32\n"
            "box_length = 8.0\n"
            "\n"
            "[initial]\n"
            "kind = file\n"
            "path = solveout/profile.vpf\n"
            "scale = 1.0\n"
            "\n"
            "[evolve]\n"
            "t_max = 5.0\n"
            "record_every = 1\n"
        )

    def test_calls_no_lapack(self, tmp_path, capsys, monkeypatch):
        """The evolve command, its blow-up fit included, calls no LAPACK
        routine, whose first call in a process pages about 1 MB of code
        in: the benchmark's bump runs to its fitted blow-up time with
        np.polyfit and the np.linalg solvers patched to raise. The config
        sets no record_every: the default records every accepted step, so
        the fit's trailing window has its samples."""
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np, "polyfit", refuse)
        for name in ("lstsq", "svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        ini = tmp_path / "bump.ini"
        ini.write_text(
            "[run]\ncommand = evolve\noutput_dir = bumpout\nsnapshot_times = 1.0\n\n"
            "[grid]\nn = 64\nbox_length = 16.0\n\n"
            "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 2.0\n\n"
            "[evolve]\nt_max = 20.0\n")
        code, _, err = run_cli(capsys, ini)
        assert code == 0, err
        record = json.loads((tmp_path / "bumpout" / "evolve.json").read_text())
        assert record["terminated"] == "threshold"
        assert record["records"] == record["accepted_steps"] + 1
        assert np.isfinite(record["blowup_time_estimate"])
        assert record["fit_quality"] >= 0.99

    def test_threshold_run_without_a_fit_reports_null(self, tmp_path, capsys):
        """A run that stops at the threshold but whose trace holds too few
        records for the blow-up fit writes null for the blow-up time and
        its fit quality, and exits 0: the n = 32 bump records every 50th
        of its accepted steps, 3 records in all."""
        ini = tmp_path / "sparse.ini"
        ini.write_text(
            "[run]\ncommand = evolve\noutput_dir = sparseout\n\n"
            "[grid]\nn = 32\nbox_length = 8.0\n\n"
            "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 1.0\n\n"
            "[evolve]\nt_max = 30.0\nrecord_every = 50\n")
        code, _, err = run_cli(capsys, ini)
        assert code == 0, err
        record = json.loads((tmp_path / "sparseout" / "evolve.json").read_text())
        assert record["terminated"] == "threshold"
        assert record["records"] == 3
        assert record["blowup_time_estimate"] is None
        assert record["fit_quality"] is None

    def test_profile_data_blows_up_on_schedule(self, tmp_path, capsys):
        """Feeding the solved profile back as initial data must produce a
        run whose fitted singular time is the nominal lifespan 1, the
        separable-solution prediction."""
        profile = self._solve_first(tmp_path, capsys)
        threshold = 1e6 * float(np.max(np.abs(profile.values)))
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini())
        code, out, _ = run_cli(capsys, ini)
        assert code == 0
        outdir = tmp_path / "evolveout"
        record = json.loads((outdir / "evolve.json").read_text())
        assert set(record) == SUMMARY_KEYS["evolve.json"]
        assert record["terminated"] == "threshold"
        assert abs(record["blowup_time_estimate"] - 1.0) <= 0.02
        assert record["fit_quality"] >= 0.99
        trace = read_trace_csv(outdir / "trace.csv")
        assert len(trace["t"]) == record["records"]
        assert trace["sup_norm"][-1] >= threshold
        # record_every = 1 records the initial state and every accepted step
        assert record["accepted_steps"] == record["records"] - 1
        assert record["rejected_steps"] == 0

    def test_file_scale_multiplies_the_data(self, tmp_path, capsys):
        """[initial] scale multiplies a file's field: the profile at half
        its size starts at half its sup-norm and blows up at the lifespan
        2, by the scaling law T(c w0) = T(w0) / c."""
        profile = self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini().replace("scale = 1.0", "scale = 0.5")
                       .replace("t_max = 5.0", "t_max = 10.0"))
        assert run_cli(capsys, ini)[0] == 0
        outdir = tmp_path / "evolveout"
        record = json.loads((outdir / "evolve.json").read_text())
        assert record["terminated"] == "threshold"
        assert abs(record["blowup_time_estimate"] - 2.0) <= 0.04
        sup0 = read_trace_csv(outdir / "trace.csv")["sup_norm"][0]
        assert sup0 == 0.5 * float(np.max(np.abs(profile.values)))

    def test_snapshots(self, tmp_path, capsys):
        """Each request selects the first record at or after it, or the
        final record when the run ends earlier."""
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini())
        assert run_cli(capsys, ini)[0] == 0
        outdir = tmp_path / "evolveout"
        trace = read_trace_csv(outdir / "trace.csv")
        times = trace["t"]
        # exactly on a record, between two records, an early time, and a
        # time past the end of the run
        requests = (times[5], 0.5 * (times[8] + times[9]), 0.2, 99.0)
        expected = [5, 9, int(np.argmax(times >= 0.2)), len(times) - 1]
        listed = ", ".join(repr(float(r)) for r in requests)
        ini.write_text(self._evolve_ini(extra_run=f"snapshot_times = {listed}\n"))
        assert run_cli(capsys, ini)[0] == 0
        record = json.loads((outdir / "evolve.json").read_text())
        snaps = record["snapshots"]
        assert [s["file"] for s in snaps] == [f"snapshot_{i:03d}.vpf" for i in range(4)]
        assert [s["requested"] for s in snaps] == [float(r) for r in requests]
        assert times[8] < requests[1] < times[9]
        assert snaps[2]["time"] >= 0.2
        assert snaps[3]["time"] == record["final_time"]
        for s, position in zip(snaps, expected):
            assert s["time"] == times[position]
            field = read_field(outdir / s["file"])
            assert isinstance(field, RealField)
            assert sup_norm(field) == trace["sup_norm"][position]

    def test_horizon_run_reports_no_blowup_time(self, tmp_path, capsys):
        """A run that reaches the horizon writes null for the blow-up time
        and its fit quality, though its trace of Q/(1 - t) would fit."""
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini().replace("t_max = 5.0", "t_max = 0.5"))
        assert run_cli(capsys, ini)[0] == 0
        record = json.loads((tmp_path / "evolveout" / "evolve.json").read_text())
        assert record["terminated"] == "horizon"
        assert record["blowup_time_estimate"] is None
        assert record["fit_quality"] is None

    def test_no_snapshots_build_no_fields(self, tmp_path, capsys, monkeypatch):
        """With no snapshot time set no record is handed out, so the run
        builds no grid-sized field in the evolution."""
        self._solve_first(tmp_path, capsys)
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return RealField(*args, **kwargs)

        monkeypatch.setattr(evolution, "RealField", counted)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini())
        assert run_cli(capsys, ini)[0] == 0
        assert json.loads((tmp_path / "evolveout" / "evolve.json").read_text())["records"] > 1
        assert built == []

    def test_initial_grid_mismatch_reported(self, tmp_path, capsys):
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini().replace("n = 32", "n = 64"))
        code, _, err = run_cli(capsys, ini)
        assert code == 1
        record = json.loads(err.strip())
        assert "does not match configured grid" in record["message"]
        saved = json.loads((tmp_path / "evolveout" / "error.json").read_text())
        assert saved == record

    def test_mask_rejected_as_initial_field(self, tmp_path, capsys):
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini().replace("profile.vpf", "mask.vpf"))
        code, _, err = run_cli(capsys, ini)
        assert code == 1
        assert "holds a mask" in json.loads(err.strip())["message"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        self._solve_first(tmp_path, capsys)
        for name, outdir in (("e1.ini", "run1"), ("e2.ini", "run2")):
            ini = tmp_path / name
            text = self._evolve_ini(extra_run="snapshot_times = 0.5\n")
            ini.write_text(text.replace("output_dir = evolveout",
                                        f"output_dir = {outdir}"))
            assert run_cli(capsys, ini)[0] == 0
        for artifact in ("trace.csv", "evolve.json", "snapshot_000.vpf"):
            a = (tmp_path / "run1" / artifact).read_bytes()
            b = (tmp_path / "run2" / artifact).read_bytes()
            assert a == b, artifact


class TestVerifyCommand:
    N32_INI = (
        "[run]\n"
        "command = verify-self-similar\n"
        "output_dir = verifyout\n"
        "\n"
        "[grid]\n"
        "n = 32\n"
        "box_length = 8.0\n"
        "\n"
        "[shape]\n"
        "spec = disk(0, 0, 0.5)\n"
        "\n"
        "[solver]\n"
        "tol = 1e-10\n"
        "\n"
        "[evolve]\n"
        "rtol = 1e-10\n"
        "atol = 1e-12\n"
        "\n"
        "[verify]\n"
        "t_blowup = 1.0\n"
        "t_final = 0.9\n"
    )

    def test_deviation_stays_small(self, tmp_path, capsys):
        ini = tmp_path / "verify.ini"
        ini.write_text(self.N32_INI)
        code, out, _ = run_cli(capsys, ini)
        assert code == 0
        outdir = tmp_path / "verifyout"
        record = json.loads((outdir / "verify.json").read_text())
        assert set(record) == SUMMARY_KEYS["verify.json"]
        assert record["terminated"] == "horizon"
        assert record["max_deviation"] <= 1e-6
        assert abs(record["fitted_t_blowup"] - 1.0) <= 0.02
        assert record["fit_quality"] >= 0.999
        h = record["box_length"] / record["grid_n"]
        assert record["delta_over_h2"] == record["delta_estimate"] / h**2

        trace = read_trace_csv(outdir / "trace.csv")
        # record_every defaults to 1
        assert record["accepted_steps"] == len(trace["t"]) - 1
        assert record["rejected_steps"] == 0
        deviation_lines = (outdir / "deviation.csv").read_text().splitlines()
        assert deviation_lines[0] == "t,deviation"
        assert len(deviation_lines) - 1 == len(trace["t"])

    def test_one_deviation_per_record(self, tmp_path, capsys, monkeypatch):
        """The command writes self_similar_deviation of each record, called
        once per trace.csv row, in order."""
        calls = []

        def spy(cells, q_cells, T, t):
            calls.append((t, self_similar_deviation(cells, q_cells, T, t)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "self_similar_deviation", spy)
        ini = tmp_path / "verify.ini"
        ini.write_text(self.N32_INI)
        code, _, _ = run_cli(capsys, ini)
        assert code == 0
        trace = read_trace_csv(tmp_path / "verifyout" / "trace.csv")
        rows = (tmp_path / "verifyout" / "deviation.csv").read_text().splitlines()[1:]
        assert len(calls) == len(trace["t"]) == len(rows) > 10
        assert [t for t, _ in calls] == list(trace["t"])
        assert [float(row.split(",")[1]) for row in rows] == [d for _, d in calls]

    def test_cell_deviations_match_the_full_grid(self, tmp_path, capsys, monkeypatch):
        """deviation.csv, summed over the mask's cells, matches the
        full-grid deviation of every recorded state."""
        self._check_cell_deviations(tmp_path, capsys, monkeypatch, zero_cell=False)

    def test_cell_deviations_on_a_support_short_of_the_mask(self, tmp_path, capsys,
                                                             monkeypatch):
        """With Q exactly 0 on one mask cell the flow's support is the mask
        less that cell, and the records hold one cell fewer: Q is gathered
        on that support, and deviation.csv still matches the full grid."""
        self._check_cell_deviations(tmp_path, capsys, monkeypatch, zero_cell=True)

    def _check_cell_deviations(self, tmp_path, capsys, monkeypatch, zero_cell):
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "verify_disk.ini")
        with open(shipped) as handle:
            text = handle.read()
        ini = tmp_path / "verify.ini"
        ini.write_text(text.replace("n = 128", "n = 64"))
        solutions, records, traces = [], [], []
        solve, evolve = cli._solve, cli.evolve

        def keep_solution(cfg):
            solution, delta = solve(cfg)
            if zero_cell:
                values = solution.q.values.copy()
                values[tuple(index[0] for index in np.nonzero(solution.mask.indicator))] = 0.0
                solution = dataclasses.replace(solution, q=RealField(cfg.grid, values))
            solutions.append((solution, delta))
            return solutions[-1]

        def keep_states(omega0, config, on_record):
            def record(t, cells):
                records.append((t, cells))
                on_record(t, cells)
            traces.append(evolve(omega0, config, on_record=record))
            return traces[-1]

        monkeypatch.setattr(cli, "_solve", keep_solution)
        monkeypatch.setattr(cli, "evolve", keep_states)
        code, _, _ = run_cli(capsys, ini)
        assert code == 0
        rows = (tmp_path / "out-verify-disk" / "deviation.csv").read_text().splitlines()[1:]
        written = np.array([[float(x) for x in row.split(",")] for row in rows])
        ((solution, _),), (trace,) = solutions, traces
        assert trace.support.cell_count == solution.mask.cell_count - zero_cell
        states = [(t, RealField(solution.q.grid, trace.support.unpack(cells)))
                  for t, cells in records]
        oracle = [full_grid_deviation(state, solution.q, 1.0, t) for t, state in states]
        assert len(written) == len(states) > 10
        np.testing.assert_array_equal(written[:, 0], [t for t, _ in states])
        np.testing.assert_allclose(written[:, 1], oracle, rtol=1e-12, atol=0)

    def test_failed_fit_leaves_no_csvs(self, tmp_path, capsys):
        """The shipped verify config at n = 64 and rtol = 1e-7 records too
        few samples for the blow-up fit; the run fails before it writes."""
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "verify_disk.ini")
        with open(shipped) as handle:
            text = handle.read()
        ini = tmp_path / "verify.ini"
        ini.write_text(text.replace("n = 128", "n = 64").replace("rtol = 1e-10", "rtol = 1e-7"))
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        record = json.loads(err.strip())
        assert "blow-up fit needs at least" in record["message"]
        outdir = tmp_path / "out-verify-disk"
        assert json.loads((outdir / "error.json").read_text()) == record
        assert sorted(os.listdir(outdir)) == ["error.json"]


class TestOneCertificate:
    """A command that solves for Q transforms a field on the full grid
    once: for the certificate that solve_profile returns and the command
    writes. The box circulant's transforms are of its embedding, and the
    kernel's are of an impulse, not of a field."""

    @pytest.mark.parametrize("command", ["solve-profile", "verify-self-similar"])
    def test_one_full_grid_z11(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        real_fft = z11sim.spectral._real_fft

        def counting(values, symbol=None, rows=None):
            # the transform size: the symbol array's shape, else the field's
            size = getattr(symbol, "shape", getattr(values, "shape", None))
            if isinstance(values, np.ndarray) and size == (32, 32):
                calls.append(values.shape)
            return real_fft(values, symbol, rows)

        # every module that binds the name
        for module in (z11sim.spectral, z11sim.profile, z11sim.evolution,
                       z11sim.diagnostics):
            monkeypatch.setattr(module, "_real_fft", counting)
        ini = tmp_path / "run.ini"
        text = solve_ini(output_dir="out")
        if command == "verify-self-similar":
            text = (text.replace("solve-profile", "verify-self-similar")
                    + "\n[evolve]\nrtol = 1e-10\natol = 1e-12\n"
                    "\n[verify]\nt_blowup = 1.0\nt_final = 0.9\n")
        ini.write_text(text)
        assert run_cli(capsys, ini)[0] == 0
        assert calls == [(32, 32)]
        if command == "solve-profile":
            record = json.loads((tmp_path / "out" / "solve.json").read_text())
            assert record["residual_l2"] == record["verification"]["on_mask_l2_dev_rel"]


class TestBoundedMemory:
    """Recorded states are streamed, not kept: peak traced memory of a
    command at n = 64 grows by less than two fields when the run records
    about four times as many states."""

    EVOLVE = (
        "[run]\ncommand = evolve\noutput_dir = {out}\nsnapshot_times = 0.5\n\n"
        "[grid]\nn = 64\nbox_length = 16.0\n\n"
        "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 2.0\n\n"
        "[evolve]\nt_max = 20.0\nrecord_every = {setting}\n"
    )
    VERIFY = (
        "[run]\ncommand = verify-self-similar\noutput_dir = {out}\n\n"
        "[grid]\nn = 64\nbox_length = 16.0\n\n"
        "[shape]\nspec = disk(0, 0, 1)\n\n"
        "[evolve]\n{setting}\n"
    )
    # (template, setting with few records, setting with about 4x as many)
    CASES = {
        "evolve": (EVOLVE, "4", "1"),
        "verify-self-similar": (VERIFY, "rtol = 1e-10\natol = 1e-12",
                                "rtol = 1e-13\natol = 1e-15"),
    }

    # The benchmark's three cases at n = 256, centred at the origin.
    FULL_GRID = {
        "solve-profile": (
            "[run]\ncommand = solve-profile\noutput_dir = {out}\n\n"
            "[grid]\nn = 256\nbox_length = 16.0\n\n"
            "[shape]\nspec = disk(0, 0, 1)\n"
        ),
        "evolve": (
            "[run]\ncommand = evolve\noutput_dir = {out}\nsnapshot_times = 1.0\n\n"
            "[grid]\nn = 256\nbox_length = 16.0\n\n"
            "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 2.0\n\n"
            "[evolve]\nt_max = 20.0\nrecord_every = 1\n"
        ),
        "verify-self-similar": (
            "[run]\ncommand = verify-self-similar\noutput_dir = {out}\n\n"
            "[grid]\nn = 256\nbox_length = 16.0\n\n"
            "[shape]\nspec = disk(0, 0, 1)\n\n"
            "[evolve]\nrtol = 1e-10\natol = 1e-12\n\n"
            "[verify]\nt_blowup = 1.0\nt_final = 0.9\n"
        ),
    }

    def _peak(self, tmp_path, capsys, text, name):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(text.replace("{out}", name))
        tracemalloc.start()
        try:
            code = main([str(ini)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        return peak

    def _records(self, tmp_path, name):
        return (tmp_path / name / "trace.csv").read_text().count("\n") - 1

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_peak_memory_independent_of_record_count(self, tmp_path, capsys, command):
        template, few, many = self.CASES[command]
        # a discarded warm-up, so one-time allocations count in neither run
        self._peak(tmp_path, capsys, template.replace("{setting}", few), "warmup")
        peak_few = self._peak(tmp_path, capsys, template.replace("{setting}", few), "few")
        peak_many = self._peak(tmp_path, capsys, template.replace("{setting}", many), "many")
        records_few, records_many = (self._records(tmp_path, name) for name in ("few", "many"))
        assert records_many >= 3.5 * records_few
        field_bytes = 64 * 64 * 8
        assert peak_many - peak_few <= 2 * field_bytes

    # Bound on the n x n float arrays alive at once, per command.
    WORKING_SET = {"solve-profile": 1.95, "evolve": 1.45, "verify-self-similar": 1.95}

    @pytest.mark.parametrize("command", sorted(FULL_GRID))
    def test_full_grid_working_set(self, tmp_path, capsys, command):
        """The full-grid passes (rasterization, the certificate,
        verify_profile, the bump, the field writes) keep at most
        WORKING_SET n x n float arrays alive at once at n = 256. Evolve
        reads 1.37: records are the support's cells, read from its box,
        and the run does not hold the data (3.45 while each record was a
        grid field and the command held the data through the run; 1.47
        while the cells were placed through index arrays).
        verify-self-similar reads 1.87: it also frees Q once its cells are
        packed (2.47 while it held Q through the run). solve-profile reads
        1.87: its certificate transforms only the rows of Q and of the
        mask, and its field writes copy no payload (2.2 while they did;
        ``python tools/working_set.py``)."""
        text = self.FULL_GRID[command]
        # a discarded warm-up, so one-time allocations (the cached circulant
        # symbol among them) do not count
        self._peak(tmp_path, capsys, text, "warmup")
        peak = self._peak(tmp_path, capsys, text, "measured")
        assert peak <= self.WORKING_SET[command] * 8 * 256**2

    def test_snapshot_write_holds_no_cell_indices(self, tmp_path, capsys, monkeypatch):
        """A Gaussian without a cutoff fills the n = 256 grid, and its
        snapshot is placed on the grid by boolean selection: while the
        snapshot is written the command holds at most 2.5 n x n float
        arrays (2.30 measured: the kept cells, the placed field and the
        write's row blocks). Placed through index arrays of the support's
        cells, cached on its mask, it held 4.30."""
        text = ("[run]\ncommand = evolve\noutput_dir = {out}\nsnapshot_times = 0.01\n\n"
                "[grid]\nn = 256\nbox_length = 16.0\n\n"
                "[initial]\nkind = bump\nwidth = 0.5\n\n"
                "[evolve]\nt_max = 0.05\n")
        # a discarded warm-up, so the cached full-plane symbol does not count
        self._peak(tmp_path, capsys, text, "warmup")
        peaks = []
        write_field = cli.write_field

        def spy(*args, **kwargs):
            tracemalloc.reset_peak()
            write_field(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(cli, "write_field", spy)
        self._peak(tmp_path, capsys, text, "measured")
        assert len(peaks) == 1
        assert peaks[0] <= 2.5 * 8 * 256**2

    @pytest.mark.parametrize("command", sorted(FULL_GRID))
    def test_compact_data_builds_no_full_plane(self, tmp_path, capsys, monkeypatch, command):
        """On data that does not fill the grid, the commands build Z11's
        symbol only as its half plane: the full plane is for the grid-sized
        box of full-support data and the diagnostics."""
        built = []
        z11_symbol = z11sim.spectral._z11_symbol

        def recording(n1, n2, full=False, columns=slice(None)):
            built.append(full)
            return z11_symbol(n1, n2, full, columns)

        for module in (z11sim.spectral, z11sim.profile):
            monkeypatch.setattr(module, "_z11_symbol", recording)
        _box_kernel.cache_clear()
        ini = tmp_path / "compact.ini"
        ini.write_text(self.FULL_GRID[command].replace("n = 256", "n = 64").replace("{out}", "out"))
        try:
            assert run_cli(capsys, ini)[0] == 0
        finally:
            _box_kernel.cache_clear()
        assert built and not any(built)


class TestDiagnosticsCommand:
    def test_run(self, tmp_path, capsys):
        ini = tmp_path / "diag.ini"
        ini.write_text(
            "[run]\n"
            "command = diagnostics\n"
            "seed = 5\n"
            "output_dir = diagout\n"
            "\n"
            "[grid]\n"
            "n = 32\n"
            "box_length = 8.0\n"
        )
        code, out, _ = run_cli(capsys, ini)
        assert code == 0
        outdir = tmp_path / "diagout"
        summary = json.loads((outdir / "diagnostics.json").read_text())
        assert set(summary) == SUMMARY_KEYS["diagnostics.json"]
        assert summary["seed"] == 5
        assert max(summary["multiplier_identities"].values()) <= 1e-12
        cone = summary["cone_mass"]
        assert cone["all_positive"] is True
        assert cone["min"] > 0.0
        lines = (outdir / "cone_mass.csv").read_text().splitlines()
        assert lines[0] == "trial,center_x,center_y,width,ratio"
        assert len(lines) - 1 == cone["trials"]


class TestErrorContract:
    def test_malformed_config(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[run]\ncommand = solve-profile\n\n[grid]\nbox_length = 8\n"
                       "\n[shape]\nspec = disk(0,0,1)\n")
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "missing required key 'n'" in record["message"]

    def test_module_error_recorded_in_output_dir(self, tmp_path, capsys):
        ini = tmp_path / "wide.ini"
        ini.write_text(solve_ini().replace("disk(0, 0, 0.5)",
                                           "rect(-3, -0.1, 6, 0.2)"))
        code, _, err = run_cli(capsys, ini)
        assert code == 1
        record = json.loads(err.strip())
        assert record["error"] == "ValueError"
        assert "exceeds box_length/4" in record["message"]
        saved = json.loads((tmp_path / "solveout" / "error.json").read_text())
        assert saved == record

    def test_unwritable_error_record_still_reported(self, tmp_path, capsys):
        """When error.json cannot be written, here because a directory
        sits in its place, the record still reaches stderr, the run exits
        1, and the failed write leaves no temp file behind."""
        outdir = tmp_path / "solveout"
        (outdir / "error.json").mkdir(parents=True)
        ini = tmp_path / "wide.ini"
        ini.write_text(solve_ini().replace("disk(0, 0, 0.5)",
                                           "rect(-3, -0.1, 6, 0.2)"))
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ValueError"
        assert "exceeds box_length/4" in record["message"]
        assert os.listdir(outdir) == ["error.json"]
        assert os.listdir(outdir / "error.json") == []

    def test_undecodable_config(self, tmp_path, capsys):
        """A config that is not UTF-8 ends in one JSON error record, not a
        traceback."""
        ini = tmp_path / "binary.ini"
        ini.write_bytes(b"[run]\ncommand = evolve\n# \xff\n")
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_deeply_nested_shape(self, tmp_path, capsys):
        """A shape nested far past the cap ends in one JSON ConfigError
        record, not a RecursionError traceback."""
        spec = "union(" * 2000 + "disk(0, 0, 0.5)" + ", disk(0, 0, 0.5))" * 2000
        ini = tmp_path / "deep.ini"
        ini.write_text(solve_ini().replace("disk(0, 0, 0.5)", spec))
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert "nested deeper than 64" in record["message"]

    @pytest.mark.parametrize("text, message", [
        (solve_ini().replace("disk(0, 0, 0.5)", "disk(1e999, 0, 1)"), "is not finite"),
        ("[DEFAULT]\nseed = 3\n\n" + solve_ini(), "[DEFAULT] is not allowed"),
        ("[run]\ncommand = evolve\noutput_dir = solveout\n\n[grid]\nn = 32\nbox_length = 8.0\n"
         "\n[initial]\nkind = bump\nwidth = 0.5\ncutoff = -1\n", "cutoff must be positive"),
        (solve_ini().replace("n = 32", "n = 100"), "[grid] n must be a power of two"),
        (solve_ini().replace("box_length = 8.0", "box_length = -16"),
         "[grid] box_length must be positive"),
        (solve_ini(tol="0.5"), "[solver] tol must lie in (0, 1e-2)"),
        (solve_ini() + "max_iter = 0\n", "[solver] max_iter must be at least 1"),
        ("[run]\ncommand = evolve\noutput_dir = solveout\n\n[grid]\nn = 32\nbox_length = 8.0\n"
         "\n[initial]\nkind = bump\nwidth = 0.5\n\n[evolve]\nblowup_threshold = 100\n",
         "unknown key 'blowup_threshold' in section [evolve]"),
    ], ids=["overflowing-shape-number", "default-section", "negative-cutoff", "grid-n",
            "negative-box-length", "solver-tol", "solver-max-iter", "blowup-threshold"])
    def test_config_error_before_any_output(self, tmp_path, capsys, text, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        code, out, err = run_cli(capsys, ini)
        assert code == 1
        assert out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert sorted(os.listdir(tmp_path)) == ["bad.ini"]

    @pytest.mark.parametrize("n", [2**20, 2**40])
    def test_grid_too_large_to_hold(self, tmp_path, n):
        """A grid too large to hold ends in one JSON record, not a
        traceback: at 2^40 points per axis the config's grid coordinates
        fail while loading, at 2^20 the command's first n x n array. The
        interpreter's address space is capped at 2 GiB, so the allocation
        fails alike whatever the machine's overcommit policy."""
        (tmp_path / "huge.ini").write_text(solve_ini().replace("n = 32", f"n = {n}"))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from z11sim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(z11sim.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code, "huge.ini"], cwd=tmp_path, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MemoryError"

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, tmp_path / "absent.ini")
        assert code == 1
        assert json.loads(err.strip())["error"] == "ConfigError"

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestImports:
    def test_main_loads_no_scipy_and_no_lazy_numpy_module(self, tmp_path):
        """In a fresh interpreter, z11sim.cli loads every numpy submodule
        the commands use, so neither a solve (which estimates coercivity)
        nor an evolve imports anything inside main, and nothing loads
        scipy. Neither the import nor those runs load numpy.random: only
        the diagnostics command draws random numbers."""
        (tmp_path / "solve.ini").write_text(solve_ini())
        (tmp_path / "evolve.ini").write_text(
            "[run]\ncommand = evolve\noutput_dir = evolveout\n\n"
            "[grid]\nn = 32\nbox_length = 8.0\n\n"
            "[initial]\nkind = bump\nwidth = 0.5\ncutoff = 2.0\n\n"
            "[evolve]\nt_max = 20.0\n")
        code = (
            "import sys\n"
            "from z11sim.cli import main\n"
            "before = set(sys.modules)\n"
            "for config in sys.argv[1:]:\n"
            "    assert main([config]) == 0\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name.startswith(('numpy.fft', 'numpy.random'))))\n"
            "print('scipy' in sys.modules)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(z11sim.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "solve.ini"), str(tmp_path / "evolve.ini")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        *_, loaded_in_main, scipy_loaded, random_loaded = result.stdout.splitlines()
        assert [loaded_in_main, scipy_loaded] == ["[]", "False"]
        assert random_loaded == "False"
        assert (tmp_path / "solveout" / "solve.json").exists()
        assert (tmp_path / "evolveout" / "evolve.json").exists()
