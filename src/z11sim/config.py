"""Plain-text run configuration.

A run is described by an INI-style file with key = value sections; the
file is the reproducibility record for an experiment, so parsing is
strict: unknown sections or keys are rejected, and every error names the
offending key or carries the parser's line number.

The shape grammar accepted under [shape] spec is

    shape   := disk(cx, cy, r)
             | ellipse(cx, cy, a1, a2)
             | rect(x0, y0, w1, w2)
             | annulus(cx, cy, ri, ro)
             | union(shape, shape, ...)
             | diff(shape, shape)

with numbers in any float syntax and whitespace ignored. rect takes the
lower corner and the two side lengths. union and diff nest at most 64
levels deep (_MAX_DEPTH).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
import re
from collections import deque
from functools import partial

from .evolution import EvolveConfig, _check_bump
from .profile import _check_solver_settings
from .shapes import (
    Annulus,
    Disk,
    Ellipse,
    Rectangle,
    ShapeDifference,
    ShapeSpec,
    ShapeUnion,
)
from .spectral import Grid

__all__ = [
    "ConfigError",
    "parse_shape",
    "load_run_config",
]

COMMANDS = ("solve-profile", "evolve", "verify-self-similar", "diagnostics")


class ConfigError(ValueError):
    """Invalid run configuration file."""


@dataclasses.dataclass(frozen=True)
class InitialSpec:
    """Initial condition for an evolve run: a stored field scaled by a
    constant, or a synthesized truncated Gaussian bump."""

    kind: str
    path: str | None = None
    scale: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    width: float | None = None
    amplitude: float = 1.0
    cutoff: float | None = None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; paths are absolute."""

    command: str
    seed: int
    output_dir: str
    grid: Grid
    shape: ShapeSpec | None
    shape_text: str | None
    solver_tol: float
    solver_max_iter: int
    evolve: EvolveConfig | None
    initial: InitialSpec | None
    verify_t_blowup: float
    verify_t_final: float
    snapshot_times: tuple[float, ...]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<punct>[(),])"
    r"|(?P<bad>\S))"
)

# name -> (argument count, None for two or more; constructor)
_SHAPES = {
    "disk": (3, lambda cx, cy, r: Disk((cx, cy), r)),
    "ellipse": (4, lambda cx, cy, a1, a2: Ellipse((cx, cy), (a1, a2))),
    "rect": (4, lambda x0, y0, w1, w2: Rectangle((x0, y0), (w1, w2))),
    "annulus": (4, lambda cx, cy, ri, ro: Annulus((cx, cy), ri, ro)),
    "union": (None, lambda *parts: ShapeUnion(parts)),
    "diff": (2, ShapeDifference),
}
_MAX_DEPTH = 64


def parse_shape(text: str) -> ShapeSpec:
    """Parse the textual shape grammar into a shape description."""
    tokens = deque()
    for match in _TOKEN_RE.finditer(text):
        kind, value = match.lastgroup, match[match.lastgroup]
        if kind == "bad":
            raise ConfigError(
                f"shape spec: unexpected character {value!r} at position {match.start()}"
            )
        tokens.append((value if kind == "punct" else kind, value))
    tokens.append(("end", ""))

    def take(kind: str) -> str:
        got_kind, got_value = tokens[0]
        if got_kind != kind:
            raise ConfigError(f"shape spec: expected {kind!r}, got {got_value or got_kind!r}")
        return tokens.popleft()[1]

    def number() -> float:
        value = float(take("num"))
        if not math.isfinite(value):
            raise ConfigError(f"shape spec: number {value} is not finite")
        return value

    def shape(depth: int) -> ShapeSpec:
        if depth > _MAX_DEPTH:
            raise ConfigError(f"shape spec: nested deeper than {_MAX_DEPTH} levels")
        name = take("name")
        take("(")
        if name not in _SHAPES:
            raise ConfigError(f"shape spec: unknown shape {name!r}")
        arity, build = _SHAPES[name]
        nested = name in ("union", "diff")
        args = [shape(depth + 1) if nested else number()]
        while len(args) < (arity or 0) or (arity is None and tokens[0][0] == ","):
            take(",")
            args.append(shape(depth + 1) if nested else number())
        if len(args) < 2:
            raise ConfigError("shape spec: union needs at least two parts")
        try:
            result = build(*args)
        except ValueError as exc:
            raise ConfigError(f"shape spec: {exc}") from exc
        take(")")
        return result

    result = shape(0)
    take("end")
    return result


def _number(text: str, convert=float, kind: str = "number"):
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"invalid {kind} {text!r}") from None


_integer = partial(_number, convert=int, kind="integer")


def _optional_number(text: str) -> float | None:
    return None if text == "" else _number(text)


def _numbers(text: str, count: int | None = None) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    if count is not None and len(parts) != count:
        raise ValueError(f"expected {count} numbers, got {len(parts)}")
    return tuple(map(_number, parts))


# section -> key -> converter of the stripped text, whose ValueError _value
# reports. An [evolve] field's default picks its converter: None an
# optional number, an int an integer, anything else a number.
_SCHEMA = {
    "run": {"command": str, "seed": _integer, "output_dir": str,
            "snapshot_times": _numbers},
    "grid": {"n": _integer, "box_length": _number},
    "shape": {"spec": str},
    "solver": {"tol": _number, "max_iter": _integer},
    "evolve": {
        field.name: _optional_number if field.default is None
        else _integer if isinstance(field.default, int) else _number
        for field in dataclasses.fields(EvolveConfig)
    },
    "initial": {"kind": str, "path": str, "scale": _number,
                "center": partial(_numbers, count=2), "width": _number,
                "amplitude": _number, "cutoff": _optional_number},
    "verify": {"t_blowup": _number, "t_final": _number},
}
_REQUIRED = object()


def _value(parser: configparser.ConfigParser, section: str, key: str, default=_REQUIRED):
    """The converted value of a key, or default when the key is absent."""
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    try:
        return _SCHEMA[section][key](parser.get(section, key).strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] key {key!r}: {exc}") from exc


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported as a ConfigError of
    the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=os.path.basename(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser messages carry [line N] markers for syntax errors
        raise ConfigError(f"config parse error: {exc}") from exc
    if parser.defaults():
        # configparser repeats [DEFAULT] keys in every section
        keys = ", ".join(map(repr, parser.defaults()))
        raise ConfigError(f"section [DEFAULT] is not allowed (it sets {keys})")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def _read_initial(parser: configparser.ConfigParser, base_dir: str) -> InitialSpec:
    kind = _value(parser, "initial", "kind")
    match kind:
        case "file":
            path = os.path.join(base_dir, _value(parser, "initial", "path"))
            for forbidden in ("center", "width", "amplitude", "cutoff"):
                if parser.has_option("initial", forbidden):
                    raise ConfigError(
                        f"[initial] key {forbidden!r} does not apply to kind 'file'"
                    )
            initial = InitialSpec(kind="file", path=path,
                                  scale=_value(parser, "initial", "scale", 1.0))
        case "bump":
            if parser.has_option("initial", "path"):
                raise ConfigError("[initial] key 'path' does not apply to kind 'bump'")
            width = _value(parser, "initial", "width")
            cutoff = _value(parser, "initial", "cutoff", None)
            initial = InitialSpec(
                kind="bump",
                scale=_value(parser, "initial", "scale", 1.0),
                center=_value(parser, "initial", "center", (0.0, 0.0)),
                width=width,
                amplitude=_value(parser, "initial", "amplitude", 1.0),
                cutoff=cutoff,
            )
            _checked("initial", _check_bump, initial.center, initial.width, initial.cutoff)
        case _:
            raise ConfigError(f"[initial] kind must be 'file' or 'bump', got {kind!r}")
    for key in ("scale", "amplitude"):
        value = getattr(initial, key)
        if not math.isfinite(value):
            raise ConfigError(f"[initial] {key} must be finite, got {value}")
    return initial


def load_run_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a run configuration file.

    Relative paths inside the file (initial field, output directory) are
    resolved against the directory containing the file, so a run directory
    is self-contained.
    """
    path = os.fspath(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    parser = _read_ini(path)

    if not parser.has_section("run"):
        raise ConfigError("missing section [run]")
    command = _value(parser, "run", "command")
    if command not in COMMANDS:
        raise ConfigError(
            f"[run] command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )
    seed = _value(parser, "run", "seed", 0)
    if seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {seed}")
    output_dir = os.path.join(base_dir, _value(parser, "run", "output_dir", "out"))
    snapshot_times = _value(parser, "run", "snapshot_times", ())
    for requested in snapshot_times:
        if not (math.isfinite(requested) and requested >= 0.0):
            raise ConfigError(
                f"[run] snapshot_times must be finite and nonnegative, got {requested}"
            )

    if not parser.has_section("grid"):
        raise ConfigError("missing section [grid]")
    grid = _checked("grid", Grid, _value(parser, "grid", "n"),
                    _value(parser, "grid", "box_length"))

    needs_shape = command in ("solve-profile", "verify-self-similar")
    shape_text = _value(parser, "shape", "spec", _REQUIRED if needs_shape else None)
    shape = parse_shape(shape_text) if shape_text is not None else None

    solver_tol = _value(parser, "solver", "tol", 1e-8)
    solver_max_iter = _value(parser, "solver", "max_iter", 10_000)
    _checked("solver", _check_solver_settings, solver_tol, solver_max_iter)

    evolve_cfg = None
    if command in ("evolve", "verify-self-similar"):
        values = {field.name: _value(parser, "evolve", field.name, field.default)
                  for field in dataclasses.fields(EvolveConfig)}
        if command == "verify-self-similar" and not parser.has_option("evolve", "record_every"):
            # records default to every step, for the trailing-window fit
            values["record_every"] = 1
        evolve_cfg = _checked("evolve", EvolveConfig, **values)

    initial = None
    if command == "evolve":
        if not parser.has_section("initial"):
            raise ConfigError("missing section [initial] for command 'evolve'")
        initial = _read_initial(parser, base_dir)

    verify_t_blowup = _value(parser, "verify", "t_blowup", 1.0)
    verify_t_final = _value(parser, "verify", "t_final", 0.9 * verify_t_blowup)
    if command == "verify-self-similar":
        if verify_t_blowup <= 0.0:
            raise ConfigError(f"[verify] t_blowup must be positive, got {verify_t_blowup}")
        if not 0.0 < verify_t_final < verify_t_blowup:
            raise ConfigError(
                f"[verify] t_final must lie in (0, t_blowup), got {verify_t_final}"
            )

    return RunConfig(
        command=command,
        seed=seed,
        output_dir=output_dir,
        grid=grid,
        shape=shape,
        shape_text=shape_text,
        solver_tol=solver_tol,
        solver_max_iter=solver_max_iter,
        evolve=evolve_cfg,
        initial=initial,
        verify_t_blowup=verify_t_blowup,
        verify_t_final=verify_t_final,
        snapshot_times=snapshot_times,
    )
