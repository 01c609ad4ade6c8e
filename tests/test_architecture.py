"""One owner for the model hierarchy's rungs.

Which bus class and energy model a layer name means, and how its final
energy is read, is decided in :mod:`repro.soc.layers` (and, for the
fabric's segment buses, :mod:`repro.fabric.builder`).  Everything else
asks them.  This walks ``src/repro`` with :mod:`ast` and fails when a
module outside the bus and power packages names a rung's bus class or
energy model itself.
"""

import ast
import os

import repro

#: the classes that make up a rung
RUNG_NAMES = frozenset({"Layer1PowerModel", "Layer2PowerModel",
                        "EcBusLayer1", "EcBusLayer2", "RtlBus",
                        "DieselEstimator"})

#: packages that define the rungs, relative to ``src/repro``
DEFINING_PACKAGES = ("tlm", "rtl", "power")

#: the owners, relative to ``src/repro``
OWNERS = frozenset({os.path.join("soc", "layers.py"),
                    os.path.join("fabric", "builder.py")})

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _rung_references(path):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names
                         if alias.name in RUNG_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in RUNG_NAMES:
            found.add(node.attr)
    return found


def _checked_modules():
    for directory, _, files in os.walk(ROOT):
        relative_dir = os.path.relpath(directory, ROOT)
        if relative_dir.split(os.sep)[0] in DEFINING_PACKAGES:
            continue
        for name in files:
            if name.endswith(".py"):
                relative = os.path.normpath(os.path.join(relative_dir, name))
                if relative not in OWNERS:
                    yield relative, os.path.join(directory, name)


def test_only_the_owners_name_rung_classes():
    offenders = {relative: sorted(names)
                 for relative, path in _checked_modules()
                 for names in [_rung_references(path)] if names}
    assert offenders == {}, (
        "build buses through repro.soc.layers instead of naming these "
        f"classes: {offenders}")


def test_the_walk_sees_the_package():
    checked = dict(_checked_modules())
    assert "cli.py" in checked
    assert os.path.join("experiments", "common.py") in checked
    assert os.path.join("tlm", "layer1.py") not in checked
