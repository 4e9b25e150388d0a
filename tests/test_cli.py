"""Command-line driver tests: whole runs through main() against real
configuration files in temporary directories, artifact inspection, the
error contract on stderr, and byte-level determinism of reruns."""

import json
import os

import numpy as np
import pytest

from z11sim import (
    Mask,
    RealField,
    read_field,
    read_header,
    read_trace_csv,
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
        profile = self._solve_first(tmp_path, capsys)
        threshold = 50.0 * float(np.max(np.abs(profile.values)))
        ini = tmp_path / "evolve.ini"
        ini.write_text(self._evolve_ini(threshold,
                                        extra_run="snapshot_times = 0.2, 99.0\n"))
        assert run_cli(capsys, ini)[0] == 0
        outdir = tmp_path / "evolveout"
        record = json.loads((outdir / "evolve.json").read_text())
        snaps = record["snapshots"]
        assert [s["file"] for s in snaps] == ["snapshot_000.vpf", "snapshot_001.vpf"]
        assert snaps[0]["time"] >= 0.2
        # second request lies past the end of the run: clamped to the
        # final recorded state
        assert snaps[1]["time"] == record["final_time"]
        for s in snaps:
            field = read_field(outdir / s["file"])
            assert isinstance(field, RealField)

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

        trace = read_trace_csv(outdir / "trace.csv")
        deviation_lines = (outdir / "deviation.csv").read_text().splitlines()
        assert deviation_lines[0] == "t,deviation"
        assert len(deviation_lines) - 1 == len(trace["t"])


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
