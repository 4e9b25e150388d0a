"""Public API guard: the package exports exactly what a user constructs,
calls or catches, and the functions the benchmark tracer looks up by
qualified name stay public functions of their own modules. The tracer
wraps only functions listed in a module's ``__all__`` and defined in that
module, so pruning one of these would zero its per-layer metric without
any error."""

import importlib
import inspect
import pkgutil
from collections import Counter

import pytest

import z11sim

EXPORTED = {
    "Annulus", "ConfigError", "ConvergenceError", "CurvatureBreakdownError",
    "Disk", "Ellipse", "EvolutionTrace", "EvolveConfig", "FieldFileError",
    "Grid", "Mask", "ProfileSolution", "RealField", "Rectangle",
    "RestrictedOperator", "ShapeDifference", "ShapeUnion",
    "SingularOperatorError", "StepUnderflowError", "apply_z11", "apply_z22",
    "cone_mass_ratio", "dense_L_matrix", "estimate_blowup_time",
    "estimate_coercivity", "evolve", "field_integral", "gaussian_bump",
    "inner", "l2_norm", "load_run_config", "mask_area", "parse_shape",
    "quadratic_form", "rasterize", "read_field", "read_header",
    "read_trace_csv", "rhs", "rk_step", "run_diagnostics",
    "self_similar_deviation", "solve_profile", "step", "sup_norm",
    "verify_profile", "write_field", "write_trace_csv",
}

# Constants, aliases, records a public call only returns, and sub-steps of
# a public call: importable from their module, not exported.
INTERNAL = (
    "config.COMMANDS",
    "config.InitialSpec",
    "config.RunConfig",
    "shapes.ShapeSpec",
    "shapes.shape_contains",
    "profile.ProfileReport",
    "evolution.StepResult",
    "fieldio.FieldHeader",
    "fieldio.KIND_NAMES",
    "fieldio.TRACE_COLUMNS",
    "diagnostics.multiplier_identity_report",
    "diagnostics.negation_symmetry_error",
    "diagnostics.cone_mass_study",
)

TRACED = (
    "spectral.apply_z11",
    "spectral.quadratic_form",
    "profile.solve_profile",
    "profile.estimate_coercivity",
    "profile.verify_profile",
    "evolution.step",
    "evolution.evolve",
    "evolution.estimate_blowup_time",
    "evolution.self_similar_deviation",
    "shapes.rasterize",
    "fieldio.atomic_write_bytes",
    "config.load_run_config",
)


def test_every_exported_name_resolves_once():
    assert len(set(z11sim.__all__)) == len(z11sim.__all__)
    for name in z11sim.__all__:
        assert hasattr(z11sim, name), name


def test_exports_are_pinned():
    assert set(z11sim.__all__) == EXPORTED


def test_every_exported_name_has_one_home():
    """The package republishes its modules' ``__all__`` by wildcard
    imports, so a name listed in two modules would silently shadow one of
    its definitions."""
    homes = Counter(
        name
        for info in pkgutil.iter_modules(z11sim.__path__)
        for name in importlib.import_module(f"z11sim.{info.name}").__all__
    )
    assert {name: homes[name] for name in z11sim.__all__} == dict.fromkeys(z11sim.__all__, 1)


def test_atomic_write_bytes_stays_in_fieldio():
    """Public in its module, so that the benchmark's tracer wraps it, but
    not part of the package's API."""
    assert "atomic_write_bytes" in importlib.import_module("z11sim.fieldio").__all__
    assert not hasattr(z11sim, "atomic_write_bytes")


@pytest.mark.parametrize("name", ["apply_L", "make_grid"])
def test_removed_names_are_gone(name):
    assert name not in z11sim.__all__
    assert not hasattr(z11sim, name)
    for module in ("spectral", "profile"):
        assert not hasattr(importlib.import_module(f"z11sim.{module}"), name)


@pytest.mark.parametrize("qualified", INTERNAL)
def test_internal_name_lives_in_its_module_only(qualified):
    layer, _, name = qualified.partition(".")
    module = importlib.import_module(f"z11sim.{layer}")
    assert hasattr(module, name)
    assert name not in module.__all__
    assert not hasattr(z11sim, name)


@pytest.mark.parametrize("qualified", TRACED)
def test_traced_function_is_public(qualified):
    layer, _, name = qualified.partition(".")
    module = importlib.import_module(f"z11sim.{layer}")
    assert name in module.__all__
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
