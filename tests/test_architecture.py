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
import collections
import functools
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


# -- every public name has a caller --------------------------------------

#: the trees, relative to the repository root, whose references count
#: as callers; a name only ``tests/`` reaches has none
CALLER_TREES = ("src", "bench", "examples")

REPOSITORY = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: public names no command, benchmark or example reaches, each kept on
#: purpose; an entry goes once its name gains a caller
KEPT_WITHOUT_CALLER = {
    # the per-run record (ROADMAP's RunStats item) will read these
    "repro.kernel.simulator.Simulator.steady_cycles":
        "RunStats: cycles the kernel ran as span steps",
    "repro.rtl.netlist.Netlist.window_flushes":
        "RunStats: deferred gate-level windows settled",
    "repro.rtl.netlist.Netlist.deferred_cycles":
        "RunStats: gate-level cycles settled in windows",
    "repro.soc.smartcard.SmartCardPlatform.peripheral_energy_pj":
        "RunStats: the peripherals' energy bucket",
    # verification IP that tests point at the real models
    "repro.ec.checker.check_recorder":
        "verification IP: ProtocolChecker over a recorded trace",
    "repro.ec.monitor.BusMonitor.attach":
        "verification IP: hooks the BusMonitor onto any layer",
    # test fixtures
    "repro.faults.injectors.ErrorSlave":
        "fixture: a slave that always errors",
    "repro.soc.assembler.load_words":
        "fixture: loads assembled words into a memory",
    "repro.soc.timer.TimerUnit.configure":
        "fixture: programs a timer without bus traffic",
    "repro.experiments.supervisor.CampaignSupervisor.run_cell":
        "fixture: runs one supervised cell outside a grid",
    "repro.fabric.builder.BusFabric.root_bus":
        "fixture: the root segment of a built fabric",
    "repro.ec.limits.OutstandingBudget.total_in_flight":
        "fixture: outstanding transactions over every master",
    "repro.ec.decoder.MemoryMap.resolve":
        "fixture: the unchecked route behind resolve_checked",
    "repro.ec.signals.hamming_distance":
        "fixture: the energy oracles price transitions with it",
    "repro.ec.signals.total_interface_bits":
        "fixture: the interface width the signal tests pin",
    "repro.ec.types.MergePattern.data_mask":
        "fixture: the data-lane mask beside byte_enables",
    "repro.experiments.fault_campaign.CampaignCell.completion_rate":
        "fixture: a fault cell's completed share",
    "repro.faults.fabric.ArbiterGlitchProcess.scheduled":
        "fixture: size of a fabric fault schedule",
    "repro.faults.fabric.BridgeFaultProcess.scheduled":
        "fixture: size of a fabric fault schedule",
    "repro.faults.fabric.FaultyBridge":
        "fixture: a hand-built faulty bridge; campaigns use "
        "build_fault_processes",
    "repro.kernel.module.Module.processes":
        "fixture: the processes a module registered",
    "repro.link.frame.Block.is_s":
        "fixture: S-block test beside is_i and is_r",
    "repro.power.calibration.TechnologyTable.corners":
        "fixture: every calibrated grid point",
    "repro.power.interfaces.CycleAccuratePowerInterface"
    ".energy_last_cycle_pj":
        "fixture: the last cycle's energy the engine oracles compare",
    "repro.power.layer1.Layer1PowerModel.energy_last_cycle_pj":
        "fixture: the last cycle's energy the engine oracles compare",
    "repro.rtl.decoder.AddressDecoder.evaluate":
        "fixture: decodes one address in a single cycle",
    "repro.rtl.netlist.Netlist.input_nets":
        "fixture: netlist inspection for the reference netlist",
    "repro.rtl.netlist.Netlist.nets":
        "fixture: netlist inspection for the reference netlist",
    "repro.rtl.netlist.Netlist.output_names":
        "fixture: netlist inspection for the reference netlist",
    "repro.rtl.netlist.Netlist.output_nets":
        "fixture: netlist inspection for the reference netlist",
    "repro.rtl.netlist.Netlist.total_glitches":
        "fixture: netlist inspection for the reference netlist",
    "repro.rtl.netlist.Netlist.xnor_gate":
        "fixture: gate builder the netlist window tests use",
    "repro.rtl.netlist.Netlist.xor_gate":
        "fixture: gate builder the netlist window tests use",
    "repro.soc.dma.DmaController.attach_governor":
        "fixture: gates DMA chunks on an energy governor",
    "repro.soc.journal.JournalState.empty":
        "fixture: a journal with no committed record",
    "repro.tlm.arbiter.BusArbiter.pending_requests":
        "fixture: the arbiter's queue depth",
    "repro.tlm.layer3.EcBusLayer3.read_message":
        "fixture: layer 3's direct message read; cards use MessageRun",
    "repro.tlm.layer3.EcBusLayer3.write_message":
        "fixture: layer 3's direct message write; cards use MessageRun",
    "repro.kernel.time.ps":
        "unit helper; only the kernel time tests call it",
    "repro.kernel.time.ns":
        "unit helper; only the kernel time tests call it",
    "repro.kernel.time.us":
        "unit helper; only the kernel time tests call it",
    "repro.kernel.time.ms":
        "unit helper; only the kernel time tests call it",
    "repro.kernel.time.format_time":
        "unit helper; only the kernel time tests call it",
    # the SPA/DPA extension DESIGN.md and EXPERIMENTS.md document
    "repro.power.security.cpa_correlation": "SPA/DPA extension",
    "repro.power.security.dpa_difference_of_means": "SPA/DPA extension",
    "repro.power.security.max_abs": "SPA/DPA extension",
    # read by nothing, not even a test
    "repro.soc.memory.Eeprom.power_state_machine":
        "unread: the PSM attach_power_state_machine set",
    "repro.soc.peripheral.Peripheral.power_state_machine":
        "unread: the PSM attach_power_state_machine set",
}


def _public_definitions():
    """``repro.<module>.<name>`` of every public top-level function and
    class under ``src/repro``, and of every public method of a
    top-level class."""
    for relative_dir, name, path in _package_modules():
        parts = ["repro"] + ([] if relative_dir == "."
                             else relative_dir.split(os.sep))
        if name != "__init__.py":
            parts.append(name[:-3])
        module = ".".join(parts)
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}"


def _declarations(tree):
    """The nodes that declare exports rather than use them: the
    ``lazy_exports`` maps and ``__all__`` lists."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "lazy_exports":
            yield node
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            yield node


def _named_strings(path):
    """String constants that name an identifier — a name reached through
    ``getattr`` or an argparse ``runner=`` — outside export lists."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    declared = {id(node) for declaration in _declarations(tree)
                for node in ast.walk(declaration)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in declared:
            yield node.value


def _definition_names(path):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


@functools.lru_cache(maxsize=None)
def _uncalled():
    """The public definitions whose name appears in the caller trees
    only where something of that name is defined."""
    references = collections.Counter()
    definitions = collections.Counter()
    for tree in CALLER_TREES:
        for directory, _, files in os.walk(os.path.join(REPOSITORY, tree)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    references.update(_identifiers(path))
                    references.update(_named_strings(path))
                    definitions.update(_definition_names(path))
    return frozenset(
        qualified for qualified in _public_definitions()
        for name in [qualified.rsplit(".", 1)[-1]]
        if references[name] <= definitions[name])


def test_every_public_definition_has_a_caller_outside_tests():
    unexplained = sorted(_uncalled() - set(KEPT_WITHOUT_CALLER))
    assert unexplained == [], (
        "nothing under src/, bench/ or examples/ reaches these; delete "
        "them (and the tests that check only them) or give a reason in "
        f"KEPT_WITHOUT_CALLER: {unexplained}")


def test_every_kept_name_is_still_uncalled():
    called = sorted(set(KEPT_WITHOUT_CALLER) - _uncalled())
    assert called == [], (
        f"these have a caller now; drop them from KEPT_WITHOUT_CALLER: "
        f"{called}")


def test_the_caller_walk_sees_callers():
    uncalled = _uncalled()
    # top-level functions, classes and their public methods are walked
    called = {"repro.soc.layers.build_bus",
              "repro.kernel.simulator.Simulator",
              "repro.kernel.simulator.Simulator.run"}
    assert called <= set(_public_definitions())
    assert called.isdisjoint(uncalled)
    # a name reached by string (argparse runner=, getattr) is called
    assert "repro.experiments.tear_campaign.run_tear_campaign" \
        not in uncalled
    assert "repro.power.psm.CardPowerModel.span_drains" not in uncalled
    # ... but an export map entry is not a caller
    exported = set(_named_strings(os.path.join(ROOT, "faults",
                                               "__init__.py")))
    assert "FaultySlave" not in exported
