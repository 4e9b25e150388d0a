"""Run-configuration parsing tests: the shape grammar, the INI schema with
its strict unknown-key policy, and per-command defaults."""

import os
import textwrap

import pytest

from z11sim import (
    Annulus,
    ConfigError,
    Disk,
    Ellipse,
    EvolveConfig,
    Rectangle,
    ShapeDifference,
    ShapeUnion,
    load_run_config,
    parse_shape,
)


class TestShapeGrammar:
    def test_disk(self):
        assert parse_shape("disk(0, 0, 1.5)") == Disk(center=(0.0, 0.0), radius=1.5)

    def test_ellipse(self):
        got = parse_shape("ellipse(1, -2, 0.5, 0.25)")
        assert got == Ellipse(center=(1.0, -2.0), semi_axes=(0.5, 0.25))

    def test_rect(self):
        got = parse_shape("rect(-1, -1, 2, 1)")
        assert got == Rectangle(corner=(-1.0, -1.0), widths=(2.0, 1.0))

    def test_annulus(self):
        got = parse_shape("annulus(0, 0, 0.5, 1.0)")
        assert got == Annulus(center=(0.0, 0.0), inner_radius=0.5, outer_radius=1.0)

    def test_union_of_three(self):
        got = parse_shape("union(disk(0,0,1), disk(2,0,1), rect(0,0,1,1))")
        assert isinstance(got, ShapeUnion)
        assert len(got.parts) == 3

    def test_difference(self):
        got = parse_shape("diff(disk(0,0,1), disk(0.2,0,0.4))")
        assert got == ShapeDifference(base=Disk((0.0, 0.0), 1.0),
                                      cut=Disk((0.2, 0.0), 0.4))

    def test_nesting(self):
        got = parse_shape("union(diff(disk(0,0,1), disk(0,0,0.5)), ellipse(3,0,1,0.5))")
        assert isinstance(got, ShapeUnion)
        assert isinstance(got.parts[0], ShapeDifference)

    def test_number_forms(self):
        assert parse_shape("disk(-0.5, +0.25, .5)") == Disk((-0.5, 0.25), 0.5)
        assert parse_shape("disk(0, 0, 1e-1)") == Disk((0.0, 0.0), 0.1)

    def test_whitespace_tolerant(self):
        assert parse_shape("  disk ( 0 , 0 , 1 )  ") == Disk((0.0, 0.0), 1.0)

    def test_unknown_shape(self):
        with pytest.raises(ConfigError, match="unknown shape 'blob'"):
            parse_shape("blob(1, 2, 3)")

    def test_unexpected_character(self):
        with pytest.raises(ConfigError, match="unexpected character"):
            parse_shape("disk(0, 0, 1)!")

    def test_wrong_arity(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_shape("disk(0, 0)")

    def test_trailing_tokens(self):
        with pytest.raises(ConfigError, match="expected 'end'"):
            parse_shape("disk(0,0,1) disk(1,1,1)")

    def test_empty_input(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_shape("")

    def test_semantic_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_shape("disk(0, 0, -1)")
        with pytest.raises(ConfigError, match="inner"):
            parse_shape("annulus(0, 0, 1.0, 0.5)")

    def test_union_needs_two_parts(self):
        with pytest.raises(ConfigError, match="at least two parts"):
            parse_shape("union(disk(0,0,1))")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


SOLVE_MINIMAL = textwrap.dedent("""\
    [run]
    command = solve-profile

    [grid]
    n = 128
    box_length = 16.0

    [shape]
    spec = disk(0, 0, 1)
    """)


class TestLoadSolveProfile:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, SOLVE_MINIMAL))
        assert cfg.command == "solve-profile"
        assert cfg.seed == 0
        assert cfg.grid_n == 128
        assert cfg.box_length == 16.0
        assert cfg.shape == Disk((0.0, 0.0), 1.0)
        assert cfg.shape_text == "disk(0, 0, 1)"
        assert cfg.solver_tol == 1e-8
        assert cfg.solver_max_iter == 10_000
        assert cfg.evolve is None
        assert cfg.initial is None
        assert cfg.snapshot_times == ()
        assert cfg.output_dir == str(tmp_path / "out")

    def test_solver_overrides(self, tmp_path):
        text = SOLVE_MINIMAL + "\n[solver]\ntol = 1e-10\nmax_iter = 500\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.solver_tol == 1e-10
        assert cfg.solver_max_iter == 500

    def test_output_dir_resolved_against_config_dir(self, tmp_path):
        text = SOLVE_MINIMAL.replace(
            "command = solve-profile",
            "command = solve-profile\noutput_dir = results/run1")
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.output_dir == str(tmp_path / "results" / "run1")

    def test_shape_required(self, tmp_path):
        text = "[run]\ncommand = solve-profile\n\n[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match=r"\[shape\] missing required key 'spec'"):
            load_run_config(write_config(tmp_path, text))

    def test_inline_comments_stripped(self, tmp_path):
        text = SOLVE_MINIMAL.replace("n = 128", "n = 128  # cells per side")
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.grid_n == 128


EVOLVE_BASE = textwrap.dedent("""\
    [run]
    command = evolve
    seed = 7

    [grid]
    n = 64
    box_length = 8.0

    [initial]
    kind = bump
    width = 0.5
    """)


class TestLoadEvolve:
    def test_defaults(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, EVOLVE_BASE))
        assert cfg.command == "evolve"
        assert cfg.seed == 7
        assert cfg.evolve == EvolveConfig()
        assert cfg.initial.kind == "bump"
        assert cfg.initial.width == 0.5
        assert cfg.initial.amplitude == 1.0
        assert cfg.initial.cutoff is None

    def test_full_evolve_section(self, tmp_path):
        text = EVOLVE_BASE + textwrap.dedent("""\

            [evolve]
            dt_initial = 1e-4
            dt_min = 1e-10
            safety = 0.8
            t_max = 5.0
            blowup_threshold = 100.0
            record_every = 2
            rtol = 1e-9
            atol = 1e-11
            sign = -1
            """)
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.evolve == EvolveConfig(
            dt_initial=1e-4, dt_min=1e-10, safety=0.8, t_max=5.0,
            blowup_threshold=100.0, record_every=2,
            rtol=1e-9, atol=1e-11, sign=-1)

    def test_empty_threshold_means_none(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\nblowup_threshold =\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.evolve.blowup_threshold is None

    def test_bump_options(self, tmp_path):
        text = EVOLVE_BASE + "center = 0.5, -0.5\namplitude = 2.0\ncutoff = 1.5\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.initial.center == (0.5, -0.5)
        assert cfg.initial.amplitude == 2.0
        assert cfg.initial.cutoff == 1.5

    def test_file_initial_resolved(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump\nwidth = 0.5",
                                   "kind = file\npath = fields/q.vpf\nscale = 0.25")
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.initial.kind == "file"
        assert cfg.initial.path == str(tmp_path / "fields" / "q.vpf")
        assert cfg.initial.scale == 0.25

    def test_snapshot_times(self, tmp_path):
        text = EVOLVE_BASE.replace("seed = 7",
                                   "seed = 7\nsnapshot_times = 0.5, 1.0, 2.5")
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.snapshot_times == (0.5, 1.0, 2.5)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    def test_snapshot_times_finite_nonnegative(self, tmp_path, bad):
        text = EVOLVE_BASE.replace("seed = 7",
                                   f"seed = 7\nsnapshot_times = 0.5, {bad}")
        with pytest.raises(ConfigError, match="snapshot_times must be finite and nonnegative"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_initial_section(self, tmp_path):
        text = "[run]\ncommand = evolve\n\n[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match=r"missing section \[initial\]"):
            load_run_config(write_config(tmp_path, text))

    def test_file_kind_requires_path(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump\nwidth = 0.5", "kind = file")
        with pytest.raises(ConfigError, match="missing required key 'path'"):
            load_run_config(write_config(tmp_path, text))

    def test_bump_kind_requires_width(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump\nwidth = 0.5", "kind = bump")
        with pytest.raises(ConfigError, match="missing required key 'width'"):
            load_run_config(write_config(tmp_path, text))

    def test_bump_rejects_path(self, tmp_path):
        text = EVOLVE_BASE + "path = q.vpf\n"
        with pytest.raises(ConfigError, match="does not apply to kind 'bump'"):
            load_run_config(write_config(tmp_path, text))

    def test_file_rejects_bump_keys(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump\nwidth = 0.5",
                                   "kind = file\npath = q.vpf\nwidth = 0.5")
        with pytest.raises(ConfigError, match="does not apply to kind 'file'"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_initial_kind(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump", "kind = blob")
        with pytest.raises(ConfigError, match="kind must be 'file' or 'bump'"):
            load_run_config(write_config(tmp_path, text))

    def test_invalid_evolve_value_wrapped(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\nrecord_every = 0\n"
        with pytest.raises(ConfigError, match="record_every"):
            load_run_config(write_config(tmp_path, text))

    def test_removed_dealias_key_rejected(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\ndealias = false\n"
        with pytest.raises(ConfigError,
                           match=r"^unknown key 'dealias' in section \[evolve\]$"):
            load_run_config(write_config(tmp_path, text))


VERIFY_BASE = textwrap.dedent("""\
    [run]
    command = verify-self-similar

    [grid]
    n = 128
    box_length = 16.0

    [shape]
    spec = disk(0, 0, 1)
    """)


class TestLoadVerify:
    def test_defaults(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, VERIFY_BASE))
        assert cfg.verify_t_blowup == 1.0
        assert cfg.verify_t_final == pytest.approx(0.9)
        assert cfg.evolve.record_every == 1

    def test_explicit_overrides_survive(self, tmp_path):
        text = VERIFY_BASE + "\n[evolve]\nrecord_every = 4\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.evolve.record_every == 4

    def test_custom_times(self, tmp_path):
        text = VERIFY_BASE + "\n[verify]\nt_blowup = 2.0\nt_final = 1.5\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.verify_t_blowup == 2.0
        assert cfg.verify_t_final == 1.5

    def test_t_final_must_precede_blowup(self, tmp_path):
        text = VERIFY_BASE + "\n[verify]\nt_blowup = 1.0\nt_final = 1.0\n"
        with pytest.raises(ConfigError, match=r"t_final must lie in \(0, t_blowup\)"):
            load_run_config(write_config(tmp_path, text))

    def test_t_blowup_positive(self, tmp_path):
        text = VERIFY_BASE + "\n[verify]\nt_blowup = -1.0\n"
        with pytest.raises(ConfigError, match="t_blowup must be positive"):
            load_run_config(write_config(tmp_path, text))


class TestLoadDiagnostics:
    def test_no_shape_needed(self, tmp_path):
        text = "[run]\ncommand = diagnostics\nseed = 3\n\n[grid]\nn = 64\nbox_length = 8\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.command == "diagnostics"
        assert cfg.shape is None


class TestSchemaErrors:
    def test_missing_run_section(self, tmp_path):
        text = "[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match=r"missing section \[run\]"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_command(self, tmp_path):
        text = "[run]\nseed = 1\n\n[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match="missing required key 'command'"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_command(self, tmp_path):
        text = "[run]\ncommand = simulate\n\n[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match="command must be one of"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_grid_section(self, tmp_path):
        text = "[run]\ncommand = diagnostics\n"
        with pytest.raises(ConfigError, match=r"missing section \[grid\]"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_grid_n(self, tmp_path):
        text = "[run]\ncommand = diagnostics\n\n[grid]\nbox_length = 8\n"
        with pytest.raises(ConfigError, match="missing required key 'n'"):
            load_run_config(write_config(tmp_path, text))

    def test_invalid_integer(self, tmp_path):
        text = "[run]\ncommand = diagnostics\n\n[grid]\nn = many\nbox_length = 8\n"
        with pytest.raises(ConfigError, match="invalid integer 'many'"):
            load_run_config(write_config(tmp_path, text))

    def test_invalid_number(self, tmp_path):
        text = "[run]\ncommand = diagnostics\n\n[grid]\nn = 64\nbox_length = wide\n"
        with pytest.raises(ConfigError, match="invalid number 'wide'"):
            load_run_config(write_config(tmp_path, text))

    def test_negative_seed(self, tmp_path):
        text = "[run]\ncommand = diagnostics\nseed = -1\n\n[grid]\nn = 64\nbox_length = 8\n"
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        text = SOLVE_MINIMAL + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match=r"unknown config section \[extras\]"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_key(self, tmp_path):
        text = SOLVE_MINIMAL.replace("box_length = 16.0",
                                     "box_length = 16.0\nresolution = 4")
        with pytest.raises(ConfigError, match=r"unknown key 'resolution' in section \[grid\]"):
            load_run_config(write_config(tmp_path, text))

    def test_syntax_error_carries_line(self, tmp_path):
        text = "[run]\ncommand = diagnostics\nthis is not an assignment\n"
        with pytest.raises(ConfigError, match=r"line"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(tmp_path / "absent.ini")
