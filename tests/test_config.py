"""Run-configuration parsing tests: the shape grammar, the INI schema with
its strict unknown-key policy, and per-command defaults."""

import math
import os
import random
import textwrap

import pytest

from z11sim import (
    Annulus,
    ConfigError,
    Disk,
    Ellipse,
    EvolveConfig,
    Grid,
    Rectangle,
    ShapeDifference,
    ShapeUnion,
    gaussian_bump,
    load_run_config,
    parse_shape,
)
from z11sim.config import _SCHEMA, COMMANDS, RunConfig


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

    @pytest.mark.parametrize("text", ["disk(1e999, 0, 1)", "rect(-1e999, 0, 1e999, 1)",
                                      "union(disk(0, 0, 1), disk(0, 0, 1e999))"])
    def test_overflowing_number_rejected(self, text):
        """1e999 overflows to inf; it used to load and fail in rasterize."""
        with pytest.raises(ConfigError, match=r"^shape spec: number -?inf is not finite$"):
            parse_shape(text)

    @staticmethod
    def _nested(depth):
        return "union(" * depth + "disk(0, 0, 1)" + ", disk(1, 1, 1))" * depth

    def test_nesting_at_cap_parses(self):
        shape = parse_shape(self._nested(64))
        for _ in range(64):
            shape = shape.parts[0]
        assert shape == Disk(center=(0.0, 0.0), radius=1.0)

    @pytest.mark.parametrize("depth", [65, 2000])
    def test_nesting_past_cap_rejected(self, depth):
        with pytest.raises(ConfigError, match="nested deeper than 64 levels"):
            parse_shape(self._nested(depth))

    def test_deep_diff_rejected(self):
        spec = "diff(" * 2000 + "disk(0, 0, 1)" + ", disk(5, 5, 1))" * 2000
        with pytest.raises(ConfigError, match="nested deeper than 64 levels"):
            parse_shape(spec)

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
        assert cfg.grid.n == 128
        assert cfg.grid.box_length == 16.0
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
        assert cfg.grid.n == 128


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
            t_max = 5.0
            blowup_threshold = 100.0
            record_every = 2
            rtol = 1e-9
            atol = 1e-11
            """)
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.evolve == EvolveConfig(
            dt_initial=1e-4, t_max=5.0,
            blowup_threshold=100.0, record_every=2,
            rtol=1e-9, atol=1e-11)

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

    def test_empty_snapshot_times_mean_none(self, tmp_path):
        text = EVOLVE_BASE.replace("seed = 7", "seed = 7\nsnapshot_times =")
        assert load_run_config(write_config(tmp_path, text)).snapshot_times == ()

    @pytest.mark.parametrize("anchor, key, value", [
        ("width = 0.5", "center", "1,,2"),
        ("seed = 7", "snapshot_times", "0.5, 1,"),
        ("seed = 7", "snapshot_times", ","),
    ])
    def test_empty_list_item_rejected(self, tmp_path, anchor, key, value):
        text = EVOLVE_BASE.replace(anchor, f"{anchor}\n{key} = {value}")
        with pytest.raises(ConfigError, match=rf"key '{key}': empty item"):
            load_run_config(write_config(tmp_path, text))

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

    @pytest.mark.parametrize("cutoff", ["-1", "0"])
    def test_nonpositive_cutoff_rejected(self, tmp_path, cutoff):
        text = EVOLVE_BASE + f"cutoff = {cutoff}\n"
        with pytest.raises(ConfigError, match=r"^\[initial\] cutoff must be positive"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_initial_kind(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump", "kind = blob")
        with pytest.raises(ConfigError, match="kind must be 'file' or 'bump'"):
            load_run_config(write_config(tmp_path, text))

    def test_invalid_evolve_value_wrapped(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\nrecord_every = 0\n"
        with pytest.raises(ConfigError, match="record_every"):
            load_run_config(write_config(tmp_path, text))

    def test_infinite_horizon_rejected(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\nt_max = inf\n"
        with pytest.raises(ConfigError, match=r"^\[evolve\] t_max must be finite"):
            load_run_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("line, key", [
        ("cutoff = nan", "cutoff"),
        ("cutoff = inf", "cutoff"),
        ("center = inf, 0", "center"),
        ("center = 0, nan", "center"),
        ("width = inf", "width"),
        ("width = nan", "width"),
        ("amplitude = -inf", "amplitude"),
        ("scale = nan", "scale"),
    ])
    def test_non_finite_bump_numbers_rejected(self, tmp_path, line, key):
        """These used to evolve an all-zero or constant field to the
        horizon and exit 0."""
        text = EVOLVE_BASE.replace("width = 0.5",
                                   line if key == "width" else "width = 0.5\n" + line)
        with pytest.raises(ConfigError, match=rf"^\[initial\] {key} must be finite"):
            load_run_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("line, bump, message", [
        ("width = -1", {"width": -1.0}, "width must be positive, got -1.0"),
        ("width = 0", {"width": 0.0}, "width must be positive, got 0.0"),
        ("width = nan", {"width": float("nan")}, "width must be finite, got nan"),
        ("width = 0.5\ncutoff = -1", {"width": 0.5, "cutoff": -1.0},
         "cutoff must be positive, got -1.0"),
        ("width = 0.5\ncutoff = inf", {"width": 0.5, "cutoff": float("inf")},
         "cutoff must be finite, got inf"),
        ("width = 0.5\ncenter = 0, nan", {"width": 0.5, "center": (0.0, float("nan"))},
         "center must be finite, got (0.0, nan)"),
    ])
    def test_bump_faults_are_gaussian_bumps(self, tmp_path, line, bump, message):
        """The loader reports a bad bump in gaussian_bump's own words."""
        text = EVOLVE_BASE.replace("width = 0.5", line)
        with pytest.raises(ValueError) as direct:
            gaussian_bump(Grid(16, 1.0), **bump)
        with pytest.raises(ConfigError) as loaded:
            load_run_config(write_config(tmp_path, text))
        assert str(direct.value) == message
        assert str(loaded.value) == f"[initial] {message}"

    def test_non_finite_file_scale_rejected(self, tmp_path):
        text = EVOLVE_BASE.replace("kind = bump\nwidth = 0.5",
                                   "kind = file\npath = q.vpf\nscale = inf")
        with pytest.raises(ConfigError, match=r"^\[initial\] scale must be finite"):
            load_run_config(write_config(tmp_path, text))

    def test_removed_dealias_key_rejected(self, tmp_path):
        text = EVOLVE_BASE + "\n[evolve]\ndealias = false\n"
        with pytest.raises(ConfigError,
                           match=r"^unknown key 'dealias' in section \[evolve\]$"):
            load_run_config(write_config(tmp_path, text))

    def test_removed_sign_key_rejected(self, tmp_path):
        """The model has one flow; its companion is -evolve(-w0)."""
        text = EVOLVE_BASE + "\n[evolve]\nsign = -1\n"
        with pytest.raises(ConfigError,
                           match=r"^unknown key 'sign' in section \[evolve\]$"):
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
        assert cfg.evolve == EvolveConfig(t_max=cfg.verify_t_final)

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

    @pytest.mark.parametrize("t_max", ["0.3", "5.0"])
    def test_evolve_horizon_rejected(self, tmp_path, t_max):
        """The run's horizon is [verify] t_final; an [evolve] t_max would
        be ignored, so it is refused, and the error points to t_final."""
        text = VERIFY_BASE + f"\n[evolve]\nt_max = {t_max}\n"
        with pytest.raises(ConfigError, match=r"^\[evolve\] key 't_max' does not apply "
                           r"to command 'verify-self-similar'.*\[verify\] t_final"):
            load_run_config(write_config(tmp_path, text))


class TestLoadDiagnostics:
    def test_no_shape_needed(self, tmp_path):
        text = "[run]\ncommand = diagnostics\nseed = 3\n\n[grid]\nn = 64\nbox_length = 8\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.command == "diagnostics"
        assert cfg.shape is None


# Every settable INI key, pinned: a new one has to be added here.
SCHEMA_KEYS = {
    "run": {"command", "seed", "output_dir", "snapshot_times"},
    "grid": {"n", "box_length"},
    "shape": {"spec"},
    "solver": {"tol", "max_iter"},
    "evolve": {"dt_initial", "t_max", "blowup_threshold", "record_every", "rtol", "atol"},
    "initial": {"kind", "path", "scale", "center", "width", "amplitude", "cutoff"},
    "verify": {"t_blowup", "t_final"},
}


def test_schema_keys_are_pinned():
    assert {section: set(keys) for section, keys in _SCHEMA.items()} == SCHEMA_KEYS
    assert sum(map(len, _SCHEMA.values())) == 24


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

    def test_default_section_rejected(self, tmp_path):
        """configparser repeats [DEFAULT] keys in every section; the error
        used to blame the first section, as an unknown key there."""
        text = "[DEFAULT]\nseed = 3\n\n" + SOLVE_MINIMAL
        with pytest.raises(ConfigError,
                           match=r"^section \[DEFAULT\] is not allowed \(it sets 'seed'\)$"):
            load_run_config(write_config(tmp_path, text))

    def test_syntax_error_carries_line(self, tmp_path):
        text = "[run]\ncommand = diagnostics\nthis is not an assignment\n"
        with pytest.raises(ConfigError, match=r"line"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(tmp_path / "absent.ini")


SHAPE_TYPES = (Annulus, Disk, Ellipse, Rectangle, ShapeDifference, ShapeUnion)
SHAPE_NUMBERS = ["0", "1", "-1", "0.5", ".5", "+2", "1e-1", "1e+2", "-0", "1."]
# 1e999 overflows to inf, which the grammar rejects
SHAPE_NOISE = ["blob", "nan", "inf", "1e999", "e", "(", ")", ",", "", " ", "\t", "@", "!", "[",
               "é"]


def _shape_tokens(rng, depth=0):
    """A grammar-shaped token list, valid in syntax if not always in its
    numbers."""
    if depth < 8 and rng.random() < 0.3:
        name = rng.choice(["union", "diff"])
        count = 2 if name == "diff" else rng.choice([1, 2, 3])
        parts = [_shape_tokens(rng, depth + 1) for _ in range(count)]
        args = [token for part in parts for token in [","] + part][1:]
    else:
        name = rng.choice(["disk", "ellipse", "rect", "annulus"])
        count = 3 if name == "disk" else 4
        args = [token for _ in range(count)
                for token in [",", rng.choice(SHAPE_NUMBERS)]][1:]
    return [name, "("] + args + [")"]


def _corrupt(rng, tokens, pool):
    for _ in range(rng.choice([0, 0, 1, 2])):
        index = rng.randrange(len(tokens) + 1)
        action = rng.random()
        if action < 0.4 and index < len(tokens):
            del tokens[index]
        elif action < 0.8:
            tokens.insert(index, rng.choice(pool))
        elif index < len(tokens):
            tokens[index] = rng.choice(pool)
    return tokens


class TestParserFuzz:
    """Seeded random inputs end in a result or a ConfigError, nothing else."""

    def test_shape_token_strings(self):
        rng = random.Random(20261018)
        pool = SHAPE_NUMBERS + SHAPE_NOISE + ["disk", "union", "diff", "rect"]
        disk = ["disk", "(", "0", ",", "0", ",", "1", ")"]
        parsed = 0
        for _ in range(8000):
            if rng.random() < 0.2:
                tokens = [rng.choice(pool) for _ in range(rng.randint(0, 20))]
            elif rng.random() < 0.05:  # around the nesting cap
                depth = rng.randint(60, 70)
                tokens = (["diff", "("] * depth + _shape_tokens(rng)
                          + ([","] + disk + [")"]) * depth)
            else:
                tokens = _corrupt(rng, _shape_tokens(rng), pool)
            text = rng.choice(["", " "]).join(tokens)
            try:
                shape = parse_shape(text)
            except ConfigError:
                continue
            assert isinstance(shape, SHAPE_TYPES)
            parsed += 1
        assert 800 < parsed < 7000

    def test_ini_texts(self, tmp_path):
        rng = random.Random(7)
        edge = ["nan", "inf", "-inf", "", "1,,2", "abc", "0", "-1", "0.5, 0.5"]
        plausible = {"command": list(COMMANDS), "seed": ["0", "3"],
                     "spec": ["disk(0, 0, 1)", "union(disk(0,0,1), rect(0,0,1,1))"],
                     "n": ["64"], "box_length": ["8"], "center": ["0.5, -0.5"],
                     "path": ["q.vpf"], "output_dir": ["out"],
                     "snapshot_times": ["0.5, 1"], "blowup_threshold": ["", "1e3"],
                     "record_every": ["2"], "max_iter": ["50"],
                     "tol": ["1e-8"]}
        required = {"command", "n", "box_length", "kind", "width", "path", "spec"}
        other_kind = {"bump": {"path"}, "file": {"center", "width", "amplitude", "cutoff"}}
        path = tmp_path / "fuzz.ini"
        loaded = evolving = 0
        for _ in range(1000):
            kind = rng.choice(["bump", "file"])
            plausible["kind"] = [kind]
            sections = [s for s in _SCHEMA if s in ("run", "grid") or rng.random() < 0.6]
            if rng.random() < 0.03:
                sections.append(rng.choice(["extras", "DEFAULT", "run"]))
            lines = []
            for section in sections:
                lines.append(f"[{section}]")
                for key in _SCHEMA.get(section, {"foo": None}):
                    keep = 0.97 if key in required else 0.5
                    if key in other_kind[kind] and section == "initial":
                        keep = 0.03
                    if rng.random() > keep:
                        continue
                    good = plausible.get(key, ["1", "0.5", "2"])
                    value = rng.choice(edge if rng.random() < 0.1 else good)
                    lines.append(f"{key} = {value}")
                if rng.random() < 0.02:
                    lines.append(rng.choice(["dealias = true", "no assignment"]))
            path.write_text("\n".join(lines) + "\n")
            try:
                cfg = load_run_config(path)
            except ConfigError:
                continue
            assert isinstance(cfg, RunConfig)
            loaded += 1
            if cfg.initial is not None:
                numbers = [cfg.initial.scale, *cfg.initial.center, cfg.initial.amplitude]
                numbers += [x for x in (cfg.initial.width, cfg.initial.cutoff) if x is not None]
                assert all(map(math.isfinite, numbers))
                evolving += 1
        assert 100 < loaded < 900
        assert evolving > 15
