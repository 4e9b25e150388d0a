"""Command-line driver tests: whole runs through main() against real
configuration files in temporary directories, artifact inspection, the
error contract on stderr, and byte-level determinism of reruns."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from z11sim import (
    Mask,
    RealField,
    read_field,
    read_header,
    read_trace_csv,
    sup_norm,
)
from z11sim.cli import main


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
        assert record["residual_l2"] <= 1e-9
        assert record["cell_count"] == int(mask.indicator.sum())
        assert 0.0 < record["delta_estimate"] <= 1.0
        h = record["box_length"] / record["grid_n"]
        assert record["delta_over_h2"] == record["delta_estimate"] / h**2
        assert record["verification"]["off_mask_exact_zero"] is True
        assert record["shape"] == "disk(0, 0, 0.5)"

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

    def _evolve_ini(self, threshold, extra_run=""):
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
            f"blowup_threshold = {threshold}\n"
            "record_every = 1\n"
        )

    def test_profile_data_blows_up_on_schedule(self, tmp_path, capsys):
        """Feeding the solved profile back as initial data must produce a
        run whose fitted singular time is the nominal lifespan 1, the
        separable-solution prediction."""
        profile = self._solve_first(tmp_path, capsys)
        threshold = 50.0 * float(np.max(np.abs(profile.values)))
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini(threshold))
        code, out, _ = run_cli(capsys, ini)
        assert code == 0
        outdir = tmp_path / "evolveout"
        record = json.loads((outdir / "evolve.json").read_text())
        assert record["terminated"] == "threshold"
        assert abs(record["blowup_time_estimate"] - 1.0) <= 0.02
        assert record["fit_quality"] >= 0.99
        trace = read_trace_csv(outdir / "trace.csv")
        assert len(trace["t"]) == record["records"]
        assert trace["sup_norm"][-1] >= threshold

    def test_snapshots(self, tmp_path, capsys):
        """Each request selects the first record at or after it, or the
        final record when the run ends earlier."""
        profile = self._solve_first(tmp_path, capsys)
        threshold = 50.0 * float(np.max(np.abs(profile.values)))
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini(threshold))
        assert run_cli(capsys, ini)[0] == 0
        outdir = tmp_path / "evolveout"
        trace = read_trace_csv(outdir / "trace.csv")
        times = trace["t"]
        # exactly on a record, between two records, an early time, and a
        # time past the end of the run
        requests = (times[5], 0.5 * (times[8] + times[9]), 0.2, 99.0)
        expected = [5, 9, int(np.argmax(times >= 0.2)), len(times) - 1]
        listed = ", ".join(repr(float(r)) for r in requests)
        ini.write_text(self._evolve_ini(threshold, extra_run=f"snapshot_times = {listed}\n"))
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

    def test_initial_grid_mismatch_reported(self, tmp_path, capsys):
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini(50.0).replace("n = 32", "n = 64"))
        code, _, err = run_cli(capsys, ini)
        assert code == 1
        record = json.loads(err.strip())
        assert "does not match configured grid" in record["message"]
        saved = json.loads((tmp_path / "evolveout" / "error.json").read_text())
        assert saved == record

    def test_mask_rejected_as_initial_field(self, tmp_path, capsys):
        self._solve_first(tmp_path, capsys)
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini(50.0).replace("profile.vpf", "mask.vpf"))
        code, _, err = run_cli(capsys, ini)
        assert code == 1
        assert "holds a mask" in json.loads(err.strip())["message"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        profile = self._solve_first(tmp_path, capsys)
        threshold = 50.0 * float(np.max(np.abs(profile.values)))
        for name, outdir in (("e1.ini", "run1"), ("e2.ini", "run2")):
            ini = tmp_path / name
            text = self._evolve_ini(threshold, extra_run="snapshot_times = 0.5\n")
            ini.write_text(text.replace("output_dir = evolveout",
                                        f"output_dir = {outdir}"))
            assert run_cli(capsys, ini)[0] == 0
        for artifact in ("trace.csv", "evolve.json", "snapshot_000.vpf"):
            a = (tmp_path / "run1" / artifact).read_bytes()
            b = (tmp_path / "run2" / artifact).read_bytes()
            assert a == b, artifact


class TestVerifyCommand:
    def test_deviation_stays_small(self, tmp_path, capsys):
        ini = tmp_path / "verify.ini"
        ini.write_text(
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
        code, out, _ = run_cli(capsys, ini)
        assert code == 0
        outdir = tmp_path / "verifyout"
        record = json.loads((outdir / "verify.json").read_text())
        assert record["terminated"] == "horizon"
        assert record["max_deviation"] <= 1e-6
        assert abs(record["fitted_t_blowup"] - 1.0) <= 0.02
        assert record["fit_quality"] >= 0.999
        h = record["box_length"] / record["grid_n"]
        assert record["delta_over_h2"] == record["delta_estimate"] / h**2

        trace = read_trace_csv(outdir / "trace.csv")
        deviation_lines = (outdir / "deviation.csv").read_text().splitlines()
        assert deviation_lines[0] == "t,deviation"
        assert len(deviation_lines) - 1 == len(trace["t"])


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
        lines = (tmp_path / name / "trace.csv").read_text().count("\n")
        return peak, lines - 1

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_peak_memory_independent_of_record_count(self, tmp_path, capsys, command):
        template, few, many = self.CASES[command]
        # a discarded warm-up, so one-time allocations count in neither run
        self._peak(tmp_path, capsys, template.replace("{setting}", few), "warmup")
        peak_few, records_few = self._peak(
            tmp_path, capsys, template.replace("{setting}", few), "few")
        peak_many, records_many = self._peak(
            tmp_path, capsys, template.replace("{setting}", many), "many")
        assert records_many >= 3.5 * records_few
        field_bytes = 64 * 64 * 8
        assert peak_many - peak_few <= 2 * field_bytes


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
        assert summary["seed"] == 5
        assert max(summary["multiplier_identities"].values()) <= 1e-12
        assert summary["negation_symmetry_error"] == 0.0
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

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, tmp_path / "absent.ini")
        assert code == 1
        assert json.loads(err.strip())["error"] == "ConfigError"

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
