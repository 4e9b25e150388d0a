"""Public API guard: the exported names resolve, and the functions the
benchmark tracer looks up by qualified name stay public functions of their
own modules. The tracer wraps only functions listed in a module's
``__all__`` and defined in that module, so pruning one of these would zero
its per-layer metric without any error."""

import importlib
import inspect

import pytest

import z11sim

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


@pytest.mark.parametrize("name", ["apply_L", "make_grid"])
def test_removed_names_are_gone(name):
    assert name not in z11sim.__all__
    assert not hasattr(z11sim, name)
    for module in ("spectral", "profile"):
        assert not hasattr(importlib.import_module(f"z11sim.{module}"), name)


@pytest.mark.parametrize("qualified", TRACED)
def test_traced_function_is_public(qualified):
    layer, _, name = qualified.partition(".")
    module = importlib.import_module(f"z11sim.{layer}")
    assert name in module.__all__
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
