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
lower corner and the two side lengths.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
import re
from dataclasses import dataclass

from .evolution import EvolveConfig
from .shapes import (
    Annulus,
    Disk,
    Ellipse,
    Rectangle,
    ShapeDifference,
    ShapeSpec,
    ShapeUnion,
)

__all__ = [
    "ConfigError",
    "parse_shape",
    "load_run_config",
]

COMMANDS = ("solve-profile", "evolve", "verify-self-similar", "diagnostics")

_ALLOWED_KEYS = {
    "run": {"command", "seed", "output_dir", "snapshot_times"},
    "grid": {"n", "box_length"},
    "shape": {"spec"},
    "solver": {"tol", "max_iter"},
    "evolve": {field.name for field in dataclasses.fields(EvolveConfig)},
    "initial": {"kind", "path", "scale", "center", "width", "amplitude", "cutoff"},
    "verify": {"t_blowup", "t_final"},
}


class ConfigError(ValueError):
    """Invalid run configuration file."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; paths are absolute."""

    command: str
    seed: int
    output_dir: str
    grid_n: int
    box_length: float
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
    r"|(?P<punct>[(),]))"
)


def _tokenize_shape(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ConfigError(
                f"shape spec: unexpected character {text[pos:].strip()[0]!r} "
                f"at position {pos}"
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
        pos = match.end()
    tokens.append(("end", ""))
    return tokens


class _ShapeParser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self, kind: str, value: str | None = None) -> str:
        got_kind, got_value = self.tokens[self.pos]
        if got_kind != kind or (value is not None and got_value != value):
            expected = value if value is not None else kind
            raise ConfigError(
                f"shape spec: expected {expected!r}, got {got_value or got_kind!r}"
            )
        self.pos += 1
        return got_value

    def number(self) -> float:
        return float(self.take("num"))

    def numbers(self, count: int) -> list[float]:
        values = [self.number()]
        for _ in range(count - 1):
            self.take("punct", ",")
            values.append(self.number())
        return values

    def shape(self) -> ShapeSpec:
        name = self.take("name")
        self.take("punct", "(")
        match name:
            case "disk":
                cx, cy, r = self.numbers(3)
                result: ShapeSpec = Disk(center=(cx, cy), radius=r)
            case "ellipse":
                cx, cy, a1, a2 = self.numbers(4)
                result = Ellipse(center=(cx, cy), semi_axes=(a1, a2))
            case "rect":
                x0, y0, w1, w2 = self.numbers(4)
                result = Rectangle(corner=(x0, y0), widths=(w1, w2))
            case "annulus":
                cx, cy, ri, ro = self.numbers(4)
                result = Annulus(center=(cx, cy), inner_radius=ri, outer_radius=ro)
            case "union":
                parts = [self.shape()]
                while self.peek() == ("punct", ","):
                    self.take("punct", ",")
                    parts.append(self.shape())
                if len(parts) < 2:
                    raise ConfigError("shape spec: union needs at least two parts")
                result = ShapeUnion(parts=tuple(parts))
            case "diff":
                base = self.shape()
                self.take("punct", ",")
                cut = self.shape()
                result = ShapeDifference(base=base, cut=cut)
            case _:
                raise ConfigError(f"shape spec: unknown shape {name!r}")
        self.take("punct", ")")
        return result


def parse_shape(text: str) -> ShapeSpec:
    """Parse the textual shape grammar into a shape description."""
    parser = _ShapeParser(_tokenize_shape(text))
    try:
        result = parser.shape()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"shape spec: {exc}") from exc
    parser.take("end")
    return result


_REQUIRED = object()


class _SectionReader:
    """Typed access to one section with required/default handling."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.parser = parser
        self.section = section

    def present(self) -> bool:
        return self.parser.has_section(self.section)

    def raw(self, key: str, default=_REQUIRED) -> str:
        if self.present() and self.parser.has_option(self.section, key):
            return self.parser.get(self.section, key).strip()
        if default is _REQUIRED:
            raise ConfigError(f"[{self.section}] missing required key {key!r}")
        return default

    def _convert(self, key: str, text: str, kind: str, convert):
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigError(
                f"[{self.section}] key {key!r}: invalid {kind} {text!r}"
            ) from exc

    def integer(self, key: str, default=_REQUIRED) -> int:
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        return self._convert(key, text, "integer", int)

    def real(self, key: str, default=_REQUIRED) -> float:
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        return self._convert(key, text, "number", float)

    def real_or_none(self, key: str) -> float | None:
        text = self.raw(key, None)
        if text is None or text == "":
            return None
        return self._convert(key, text, "number", float)

    def real_tuple(self, key: str, count: int | None, default=_REQUIRED):
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if count is not None and len(parts) != count:
            raise ConfigError(
                f"[{self.section}] key {key!r}: expected {count} numbers, got {len(parts)}"
            )
        return tuple(self._convert(key, p, "number", float) for p in parts)


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
    for section in parser.sections():
        allowed = _ALLOWED_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def _read_initial(reader: _SectionReader) -> InitialSpec:
    kind = reader.raw("kind")
    match kind:
        case "file":
            path = reader.raw("path")
            for forbidden in ("center", "width", "amplitude", "cutoff"):
                if reader.raw(forbidden, None) is not None:
                    raise ConfigError(
                        f"[initial] key {forbidden!r} does not apply to kind 'file'"
                    )
            return InitialSpec(kind="file", path=path, scale=reader.real("scale", 1.0))
        case "bump":
            if reader.raw("path", None) is not None:
                raise ConfigError("[initial] key 'path' does not apply to kind 'bump'")
            width = reader.real("width")
            if width <= 0.0:
                raise ConfigError(f"[initial] width must be positive, got {width}")
            return InitialSpec(
                kind="bump",
                scale=reader.real("scale", 1.0),
                center=reader.real_tuple("center", 2, (0.0, 0.0)),
                width=width,
                amplitude=reader.real("amplitude", 1.0),
                cutoff=reader.real_or_none("cutoff"),
            )
        case _:
            raise ConfigError(f"[initial] kind must be 'file' or 'bump', got {kind!r}")


def _read_evolve(reader: _SectionReader) -> EvolveConfig:
    """Read every EvolveConfig field; its default picks the parser: None
    reads an optional number, an int an integer, anything else a number."""
    values = {}
    for field in dataclasses.fields(EvolveConfig):
        if field.default is None:
            values[field.name] = reader.real_or_none(field.name)
        elif isinstance(field.default, int):
            values[field.name] = reader.integer(field.name, field.default)
        else:
            values[field.name] = reader.real(field.name, field.default)
    try:
        return EvolveConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"[evolve] {exc}") from exc


def load_run_config(path: str | os.PathLike) -> RunConfig:
    """Load and validate a run configuration file.

    Relative paths inside the file (initial field, output directory) are
    resolved against the directory containing the file, so a run directory
    is self-contained.
    """
    path = os.fspath(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    parser = _read_ini(path)

    run = _SectionReader(parser, "run")
    if not run.present():
        raise ConfigError("missing section [run]")
    command = run.raw("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"[run] command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )
    seed = run.integer("seed", 0)
    if seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {seed}")
    output_dir = os.path.join(base_dir, run.raw("output_dir", "out"))
    snapshot_times = run.real_tuple("snapshot_times", None, ())
    for requested in snapshot_times:
        if not (math.isfinite(requested) and requested >= 0.0):
            raise ConfigError(
                f"[run] snapshot_times must be finite and nonnegative, got {requested}"
            )

    grid = _SectionReader(parser, "grid")
    if not grid.present():
        raise ConfigError("missing section [grid]")
    grid_n = grid.integer("n")
    box_length = grid.real("box_length")

    shape_reader = _SectionReader(parser, "shape")
    needs_shape = command in ("solve-profile", "verify-self-similar")
    shape_text = shape_reader.raw("spec") if needs_shape else shape_reader.raw("spec", None)
    shape = parse_shape(shape_text) if shape_text is not None else None

    solver = _SectionReader(parser, "solver")
    solver_tol = solver.real("tol", 1e-8)
    solver_max_iter = solver.integer("max_iter", 10_000)

    evolve_reader = _SectionReader(parser, "evolve")
    evolve_cfg = None
    if command in ("evolve", "verify-self-similar"):
        evolve_cfg = _read_evolve(evolve_reader)
    if command == "verify-self-similar" and evolve_reader.raw("record_every", None) is None:
        # records default to every step so the trailing-window fit has
        # enough samples
        evolve_cfg = dataclasses.replace(evolve_cfg, record_every=1)

    initial = None
    if command == "evolve":
        initial_reader = _SectionReader(parser, "initial")
        if not initial_reader.present():
            raise ConfigError("missing section [initial] for command 'evolve'")
        initial = _read_initial(initial_reader)
        if initial.kind == "file" and initial.path is not None:
            resolved = os.path.join(base_dir, initial.path)
            initial = InitialSpec(kind="file", path=resolved, scale=initial.scale)

    verify = _SectionReader(parser, "verify")
    verify_t_blowup = verify.real("t_blowup", 1.0)
    verify_t_final = verify.real("t_final", 0.9 * verify_t_blowup)
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
        grid_n=grid_n,
        box_length=box_length,
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
