"""The package's public names: each module's __all__ and what imcflow exports."""

import importlib

import pytest

import imcflow
from imcflow import flow, manifold

MODULES = ["cli", "flow", "geometry", "manifold", "verify", "warp"]

# moved into the tests (probes.py) or replaced by the call they restated
REMOVED = {
    "flow": ["stable_dt"],
    "geometry": ["shape_operator", "ambient_ricci", "induced_metric"],
    "manifold": ["integrate", "commuting_residual", "_third_covariant_axisphere",
                 "UnsupportedBaseError"],
    "warp": ["hp_at_phi"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"imcflow.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_export_is_in_its_modules_all():
    modules = [importlib.import_module(f"imcflow.{name}") for name in MODULES]
    exports = [n for n in vars(imcflow) if not n.startswith("_")
               and n not in MODULES]
    assert exports
    for n in exports:
        homes = [m.__name__ for m in modules
                 if n in m.__all__ and getattr(m, n) is getattr(imcflow, n)]
        assert homes, n


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        module = importlib.import_module(f"imcflow.{module}")
        for n in names:
            assert not hasattr(imcflow, n), n
            assert not hasattr(module, n), n
    assert not hasattr(flow.FlowTrace, "snapshot_times")
    assert not hasattr(manifold.BaseManifold, "sigma_diag")
    assert not hasattr(manifold.AxisphereBase, "sigma_diag")
