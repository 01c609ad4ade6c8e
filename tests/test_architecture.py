"""One owner each for the model hierarchy's rungs and the DPM stack.

Which bus class and energy model a layer name means, and how its final
energy is read, is decided in :mod:`repro.soc.layers` (and, for the
fabric's segment buses, :mod:`repro.fabric.builder`).  How a card's
DPM power stack is assembled is decided in :mod:`repro.soc.smartcard`
(:meth:`~repro.soc.SmartCardPlatform.attach_power`).  Everything else
asks them.  This walks ``src/repro`` with :mod:`ast` and fails when a
module outside the owners and the defining packages names one of
their classes itself.
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

#: the DPM stack's governor and controller, defined in ``power``
DPM_STACK_NAMES = frozenset({"DpmGovernor", "DpmController"})

#: the one module that assembles a DPM stack
DPM_OWNERS = frozenset({os.path.join("soc", "smartcard.py")})

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _references(path, names):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names
                         if alias.name in names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def _checked_modules(defining_packages=DEFINING_PACKAGES, owners=OWNERS):
    for directory, _, files in os.walk(ROOT):
        relative_dir = os.path.relpath(directory, ROOT)
        if relative_dir.split(os.sep)[0] in defining_packages:
            continue
        for name in files:
            if name.endswith(".py"):
                relative = os.path.normpath(os.path.join(relative_dir, name))
                if relative not in owners:
                    yield relative, os.path.join(directory, name)


def _offenders(names, defining_packages=DEFINING_PACKAGES,
               owners=OWNERS):
    return {relative: sorted(found)
            for relative, path in _checked_modules(defining_packages,
                                                   owners)
            for found in [_references(path, names)] if found}


def test_only_the_owners_name_rung_classes():
    offenders = _offenders(RUNG_NAMES)
    assert offenders == {}, (
        "build buses through repro.soc.layers instead of naming these "
        f"classes: {offenders}")


def test_only_the_card_assembles_a_dpm_stack():
    offenders = _offenders(DPM_STACK_NAMES, ("power",), DPM_OWNERS)
    assert offenders == {}, (
        "attach the DPM stack with SmartCardPlatform.attach_power "
        f"instead of naming these classes: {offenders}")


def test_the_walk_sees_the_package():
    checked = dict(_checked_modules())
    assert "cli.py" in checked
    assert os.path.join("experiments", "common.py") in checked
    assert os.path.join("tlm", "layer1.py") not in checked
