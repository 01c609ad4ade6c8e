"""One owner each for the model hierarchy's rungs and the DPM stack,
and one narrow surface for the kernel.

Which bus class and energy model a layer name means, and how its final
energy is read, is decided in :mod:`repro.soc.layers` — for every rung,
the untimed layer 3 included, and for the fabric's segment buses too,
which :mod:`repro.fabric.builder` builds through it.  How a card's
DPM power stack is assembled is decided in :mod:`repro.soc.smartcard`
(:meth:`~repro.soc.SmartCardPlatform.attach_power`).  A simulator and
a clock are made only by :func:`repro.soc.layers.build_bus` (a fresh
rung's, at the replay period) and by the card.  Everything else asks
them.  This walks ``src/repro`` with :mod:`ast` and fails when a
module outside the owners and the defining packages names one of
their classes itself.  It also fails when a module outside
:mod:`repro.kernel` imports a kernel name beyond the models' surface,
or when the generic scheduler's API reappears anywhere, or when a
result that prints a report decides its own ``passed`` instead of
passing on the checks it prints.
"""

import ast
import importlib
import os
import pkgutil

import repro

#: the classes that make up a rung
RUNG_NAMES = frozenset({"Layer1PowerModel", "Layer2PowerModel",
                        "EcBusLayer1", "EcBusLayer2", "EcBusLayer3",
                        "RtlBus", "DieselEstimator"})

#: packages that define the rungs, relative to ``src/repro``
DEFINING_PACKAGES = ("tlm", "rtl", "power")

#: the owner, relative to ``src/repro``
OWNERS = frozenset({os.path.join("soc", "layers.py")})

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


#: the kernel objects a fresh harness needs, and who may make them
HARNESS_NAMES = frozenset({"Simulator", "Clock"})
HARNESS_OWNERS = frozenset({os.path.join("soc", "layers.py"),
                            os.path.join("soc", "smartcard.py")})


def _calls(path, names):
    """The *names* called in *path*: constructions, not imports (the
    masters import the kernel classes for their annotations)."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in names:
                found.add(name)
    return found


def test_only_the_rung_and_the_card_build_a_simulator_or_clock():
    offenders = {relative: sorted(found)
                 for relative, path in _checked_modules(("kernel",),
                                                        HARNESS_OWNERS)
                 for found in [_calls(path, HARNESS_NAMES)] if found}
    assert offenders == {}, (
        "get a fresh simulator and clock from "
        "repro.soc.layers.build_bus(layer, None, None, memory_map) "
        f"instead of building them: {offenders}")


def test_the_call_walk_sees_constructions():
    calls = {relative: _calls(path, HARNESS_NAMES)
             for relative, path in _checked_modules(("kernel",), ())}
    assert calls[os.path.join("soc", "layers.py")] == HARNESS_NAMES
    assert calls[os.path.join("soc", "smartcard.py")] == HARNESS_NAMES
    # an import for annotations is not a construction
    assert calls[os.path.join("tlm", "master.py")] == set()


def test_the_walk_sees_the_package():
    checked = dict(_checked_modules())
    assert "cli.py" in checked
    assert os.path.join("experiments", "common.py") in checked
    assert os.path.join("tlm", "layer1.py") not in checked


# -- the kernel's surface ------------------------------------------------

#: the kernel names a model may import (anything else is kernel-internal)
KERNEL_NAMES = frozenset({"Clock", "Simulator", "Module", "Process",
                          "STEADY_FOREVER", "ProgressWatchdog",
                          "StallError", "DeadlockError", "BlockedWaiter",
                          "JournalEntry", "SimulationError", "time"})

#: the generic scheduler's API, gone with it: no module may bring it back
DELETED_KERNEL_NAMES = frozenset({
    "ThreadProcess", "Signal", "SignalBase", "BitSignal", "next_trigger",
    "notify_delayed", "fast_lane", "fast_lane_time", "FELL_BACK",
    "INELIGIBLE"})

#: ... nor may the kernel grow its timed queue, delta loop or thread
#: helpers again (other packages use some of these words for their own)
DELETED_KERNEL_INTERNALS = frozenset({
    "wait_cycles", "cancel", "heapq", "_timed_queue", "_run_delta",
    "_advance_time", "_update_requests", "_runnable", "_dynamic_waiters",
    "_deltas_since_check", "_DELTAS_PER_WATCHDOG_CHECK"})

#: kernel modules deleted with the generic scheduler
DELETED_KERNEL_MODULES = ("thread.py", "fastlane.py", "signal.py")


def _identifiers(path):
    """Every name a module defines, binds, imports or reads."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def _absolute(module, level, relative_dir):
    """The absolute name of a (possibly relative) import in a module of
    the package at *relative_dir* (relative to ``src/repro``)."""
    if not level:
        return module
    package = ["repro"] + ([] if relative_dir == "."
                           else relative_dir.split(os.sep))
    base = package[:len(package) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _kernel_imports(path, relative_dir):
    """The names *path* imports from repro.kernel or its submodules."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _absolute(node.module or "", node.level, relative_dir)
            if module.split(".")[:2] == ["repro", "kernel"]:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.kernel."):
                    yield alias.name.rsplit(".", 1)[-1]


def _package_modules():
    for directory, _, files in os.walk(ROOT):
        relative_dir = os.path.relpath(directory, ROOT)
        for name in files:
            if name.endswith(".py"):
                yield relative_dir, name, os.path.join(directory, name)


def test_models_import_only_the_kernel_surface():
    offenders = {}
    for relative_dir, name, path in _package_modules():
        if relative_dir.split(os.sep)[0] == "kernel":
            continue
        found = sorted(set(_kernel_imports(path, relative_dir))
                       - KERNEL_NAMES)
        if found:
            offenders[os.path.join(relative_dir, name)] = found
    assert offenders == {}, (
        "models drive the kernel through its public surface only: "
        f"{offenders}")


def test_the_generic_scheduler_stays_deleted():
    kernel = os.path.join(ROOT, "kernel")
    assert [name for name in DELETED_KERNEL_MODULES
            if os.path.exists(os.path.join(kernel, name))] == []
    offenders = {}
    for relative_dir, name, path in _package_modules():
        banned = DELETED_KERNEL_NAMES
        if relative_dir.split(os.sep)[0] == "kernel":
            banned = banned | DELETED_KERNEL_INTERNALS
        found = sorted(set(_identifiers(path)) & banned)
        if found:
            offenders[os.path.join(relative_dir, name)] = found
    assert offenders == {}, (
        "the kernel is one clocked cycle loop; its generic-scheduler "
        f"API must not come back: {offenders}")


def test_the_kernel_import_walk_sees_models():
    imported = {os.path.join(relative_dir, name):
                set(_kernel_imports(path, relative_dir))
                for relative_dir, name, path in _package_modules()}
    assert {"Clock", "Module", "Simulator"} <= imported[
        os.path.join("soc", "smartcard.py")]
    assert "STEADY_FOREVER" in imported[os.path.join("soc", "uart.py")]
    # relative imports resolve against their package
    assert _absolute("kernel", 2, "tlm") == "repro.kernel"
    assert _absolute("", 1, "tlm") == "repro.tlm"


# -- one verdict rule ----------------------------------------------------

def _reported_classes():
    """Every subclass of :class:`repro.report.Reported` that a module
    under ``src/repro`` defines (``__main__`` would run the CLI)."""
    from repro.report import Reported
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    pending, found = [Reported], set()
    while pending:
        for subclass in pending.pop().__subclasses__():
            if subclass.__module__.startswith("repro.") \
                    and subclass not in found:
                found.add(subclass)
                pending.append(subclass)
    return found


def test_no_reported_result_defines_its_own_passed():
    offenders = sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in _reported_classes()
        if "passed" in vars(cls)
        or "passed" in vars(cls).get("__annotations__", {}))
    assert offenders == [], (
        "a result passes on the checks its report prints "
        f"(Reported.passed); state the rule as Report.checks: {offenders}")


def test_the_reported_walk_sees_the_results():
    names = {cls.__name__ for cls in _reported_classes()}
    assert {"TearCampaignResult", "Table1Result",
            "ExplorationResult"} <= names
