"""Every package's public names, and when they load.

Each ``repro`` package declares its exports as one map from submodule
to names (:mod:`repro._exports`) and loads a submodule only when one of
its names is first used.  :data:`EXPECTED` pins the public API: the
same names, each the very object its submodule defines.  The import
budgets run in fresh interpreters and fail when an ``__init__`` imports
a submodule eagerly or a light entry point drags in a heavy package.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys
import types

import pytest

import repro

#: package -> submodule -> the names it exports; a name equal to its
#: submodule exports the submodule itself
EXPECTED = {
    "chaos": {
        "scenario": ("CHAOS_WORKLOADS", "ChaosScenario", "generate_scenario",
                     "scenario_script"),
        "oracle": ("LayerRun", "ScenarioResult", "run_scenario"),
        "shrink": ("ShrinkResult", "shrink_scenario"),
    },
    "ec": {
        "checker": ("ProtocolChecker", "ProtocolViolationError", "Violation",
                    "check_recorder"),
        "decoder": ("MAX_ROUTE_DEPTH", "DecodeError", "MapConflictError",
                    "MemoryMap", "Region", "Route"),
        "monitor": ("BusMonitor", "Observation"),
        "interfaces": ("BusMasterInterface", "Slave",
                       "SlaveControlInterface", "SlaveDataInterface",
                       "SlaveResponse", "WaitStates"),
        "limits": ("OutstandingBudget",),
        "recovery": ("ErrorCause", "FaultReport", "RetryPolicy"),
        "signals": ("EC_SIGNALS", "SIGNALS_BY_GROUP", "SIGNALS_BY_NAME",
                    "SignalGroup", "SignalSpec", "hamming_distance",
                    "total_interface_bits"),
        "transaction": ("Transaction", "data_read", "data_write",
                        "instruction_fetch"),
        "types": ("ADDRESS_BITS", "ADDRESS_MASK", "BYTES_PER_WORD",
                  "DATA_BITS", "DATA_MASK", "LEGAL_BURST_LENGTHS",
                  "MAX_OUTSTANDING_PER_KIND", "AccessRights", "BusState",
                  "Direction", "MergePattern", "MisalignedAccessError",
                  "ProtocolError", "TransactionKind"),
    },
    "experiments": {
        "bus_sweep": ("BusSweepResult", "run_bus_sweep"),
        "casestudy": ("CaseStudyResult", "run_casestudy"),
        "chaos_campaign": ("ChaosCampaignResult", "ChaosCell", "ShrinkCell",
                           "run_chaos_campaign"),
        "coprocessor": ("CoprocessorStudyResult", "run_coprocessor_study"),
        "common": ("RunResult", "characterization", "evaluation_script",
                   "percent_error", "run_on_layer", "test_program_trace"),
        "export": ("write_csv_reports",),
        "dpm_campaign": ("DpmCampaignResult", "DpmCell", "EmergencyCell",
                         "run_dpm_campaign"),
        "fabric_campaign": ("FabricCampaignResult", "FabricCell",
                            "run_fabric_campaign"),
        "fault_campaign": ("CampaignCell", "FaultCampaignResult",
                           "run_fault_campaign"),
        "figure6": ("Figure6Result", "run_figure6"),
        "link_campaign": ("LinkCampaignResult", "LinkCell",
                          "run_link_campaign"),
        "report": ("PaperResults", "full_report", "run_extended",
                   "run_paper"),
        "robustness": ("RobustnessResult", "run_robustness"),
        "supervisor": ("CampaignSupervisor", "CellOutcome",
                       "CheckpointJournal", "cell_key"),
        "table1": ("Table1Result", "run_table1"),
        "tear_campaign": ("GovernorCell", "TearCampaignResult", "TearCell",
                          "run_tear_campaign"),
        "table2": ("Table2Result", "run_table2"),
        "table3": ("Table3Result", "run_table3"),
    },
    "fabric": {
        "bridge": ("BusBridge",),
        "builder": ("BusFabric", "FabricEnergyReport", "FabricSegment",
                    "build_fabric"),
        "topology": ("ARBITER_POLICIES", "CPU_SLAVES", "FLAT_SLAVES",
                     "PERIPHERAL_SLAVES", "BridgeSpec", "SegmentSpec",
                     "Topology"),
    },
    "faults": {
        "fabric": ("ArbiterGlitchProcess", "BRIDGE_FAULT_KINDS",
                   "BridgeFaultProcess", "FABRIC_FAULT_KINDS",
                   "FabricFaultSpec", "FaultyBridge", "ROUTE_ERROR_CAUSES",
                   "build_fault_processes", "split_fault_specs"),
        "injectors": ("BitFlipInjector", "ErrorSlave", "FaultAction",
                      "FaultEvent", "FaultInjector", "FaultKind",
                      "IntermittentErrorInjector", "StuckWaitInjector",
                      "TransientErrorInjector"),
        "tear": ("TearInjector", "tear_schedule"),
        "wrapper": ("FaultySlave",),
    },
    "javacard": {
        "adapters": ("StackMasterAdapter", "StaticsBusPort"),
        "bytecode": ("BytecodeError", "Instruction", "Method", "Package",
                     "assemble_method", "package", "to_short"),
        "explore": ("ConfigResult", "ExplorationResult", "InterfaceConfig",
                    "default_configurations", "evaluate_configuration",
                    "run_exploration"),
        "interpreter": ("BytecodeInterpreter", "InterpreterError"),
        "stack": ("FunctionalStack", "HardwareStack", "SfrLayout",
                  "StackError", "StackInterface"),
        "workloads": ("BENCHMARKS", "benchmark_package"),
    },
    "kernel": {
        "clock": ("Clock",),
        "event": ("Event",),
        "module": ("STEADY_FOREVER", "Module", "Process"),
        "simulator": ("SimulationError", "Simulator"),
        "supervision": ("BlockedWaiter", "DeadlockError", "JournalEntry",
                        "ProgressWatchdog", "StallError"),
        "time": ("time",),
    },
    "link": {
        "channel": ("NoisyChannel",),
        "endpoint": ("T1CardEndpoint",),
        "frame": ("Block", "DecodeResult", "FrameDecoder", "MAX_INF",
                  "R_EDC", "R_OK", "R_OTHER", "S_ABORT", "S_IFS", "S_RESYNC",
                  "S_WTX", "encode", "i_block", "lrc", "r_block", "s_block"),
        "host": ("LinkParams", "T1Host"),
        "report": ("LinkReport",),
        "session": ("run_link_session",),
    },
    "power": {
        "calibration": ("TechnologyPoint", "TechnologyTable",
                        "default_technology_table"),
        "domain": ("BrownoutEvent", "EnergyGovernor", "PowerDomain",
                   "PowerLossEvent", "PowerSupply"),
        "engine": ("PackedEngine",),
        "governors": ("AlwaysOnPolicy", "BudgetAwarePolicy", "DpmController",
                      "DpmGovernor", "DpmPolicy", "FixedTimeoutPolicy",
                      "HistoryPredictivePolicy", "IssueGate", "POLICIES"),
        "interfaces": ("CycleAccuratePowerInterface", "EnergyAccumulator",
                       "PowerInterface"),
        "layer1": ("Layer1PowerModel", "SignalStateRecorder"),
        "layer2": ("Layer2PowerModel",),
        "psm": ("CardPowerModel", "DEFAULT_STATE_PROFILES", "PowerState",
                "PowerStateMachine", "StateProfile"),
        "table": ("CharacterizationTable", "default_table"),
        "trace": ("EnergySample", "PowerTrace", "SamplingProfiler"),
        "vcd": ("dump_vcd", "save_vcd"),
        "security": ("security",),
        "units": ("units",),
    },
    "rtl": {
        "bus_rtl": ("CONTROL_FLOP_COUNT", "RtlBus"),
        "decoder": ("AddressDecoder", "build_address_decoder",
                    "required_width"),
        "gates": ("Flop", "Gate", "GateKind"),
        "netlist": ("Net", "Netlist", "NetlistError"),
        "library": ("library",),
    },
    "soc": {
        "assembler": ("AssemblerError", "assemble", "load_words"),
        "cpu": ("CpuFault", "MipsCore"),
        "crypto": ("CryptoCoprocessor", "DmaDriver", "xtea_decrypt",
                   "xtea_encrypt"),
        "dma": ("DmaController",),
        "interrupt": ("InterruptController",),
        "journal": ("JournalState", "TransactionJournal"),
        "memory": ("Eeprom", "Flash", "Rom", "ScratchpadRam"),
        "peripheral": ("Peripheral",),
        "rng": ("TrueRandomNumberGenerator",),
        "smartcard": ("DEFAULT_CLOCK_HZ", "DMA_BASE", "EEPROM_BASE",
                      "FLASH_BASE", "INTC_BASE", "RAM_BASE", "RNG_BASE",
                      "ROM_BASE", "SmartCardPlatform", "TIMER_BASE",
                      "UART_BASE"),
        "timer": ("TimerUnit",),
        "uart": ("Uart",),
    },
    "tlm": {
        "arbiter": ("ArbiterPort", "BusArbiter"),
        "bus_base": ("EcBusBase",),
        "layer1": ("EcBusLayer1",),
        "layer2": ("EcBusLayer2",),
        "layer3": ("EcBusLayer3", "MessageRun"),
        "master": ("BlockingMaster", "PipelinedMaster", "ScriptedMaster",
                   "normalise_script", "run_script"),
        "queues": ("FinishPool", "TransactionQueue"),
        "slave": ("BehaviouralSlave", "MemorySlave", "RegisterSlave"),
    },
    "workloads": {
        "apdu": ("ApduSession", "apdu_session"),
        "ecspec": ("ALL_SEQUENCES", "full_suite"),
        "generator": ("Mix", "PROGRAM_MIX", "TABLE3_MIX", "Window",
                      "generate_script", "sub_word_script", "table3_script"),
        "trace": ("BusTrace", "TraceRecord"),
    },
}

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _fresh_modules(code):
    """``repro`` modules a fresh interpreter has loaded after *code*."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(name for name in sys.modules\n"
             "                        if name.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(ROOT))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60)
    return json.loads(result.stdout)


def test_every_package_is_pinned():
    on_disk = {entry for entry in os.listdir(ROOT)
               if os.path.isfile(os.path.join(ROOT, entry, "__init__.py"))}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_all_lists_the_pinned_names(name):
    package = importlib.import_module(f"repro.{name}")
    pinned = [export for names in EXPECTED[name].values()
              for export in names]
    assert sorted(package.__all__) == sorted(pinned)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_names_resolve_to_their_submodule_objects(name):
    package = importlib.import_module(f"repro.{name}")
    for module_name, exports in EXPECTED[name].items():
        module = importlib.import_module(f"repro.{name}.{module_name}")
        for export in exports:
            defined = (module if export == module_name
                       else getattr(module, export))
            assert getattr(package, export) is defined, export
            if isinstance(defined, (type, types.FunctionType)):
                assert pickle.loads(pickle.dumps(defined)) is defined


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(f"repro.{name}")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def test_unlisted_submodule_still_imports_by_name():
    from repro.power import diesel
    from repro.soc import layers
    assert diesel is sys.modules["repro.power.diesel"]
    assert layers is sys.modules["repro.soc.layers"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_dir_lists_the_exports(name):
    package = importlib.import_module(f"repro.{name}")
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from repro.{name} import *", namespace)
    package = importlib.import_module(f"repro.{name}")
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(package.__all__)
    for export in bound:
        assert namespace[export] is getattr(package, export)


def test_packages_import_no_submodule_until_a_name_is_used():
    loaded = _fresh_modules("\n".join(f"import repro.{name}"
                                      for name in EXPECTED))
    assert loaded == sorted(["repro", "repro._exports"]
                            + [f"repro.{name}" for name in EXPECTED])


def test_cli_import_loads_no_experiment_javacard_or_chaos_module():
    loaded = _fresh_modules("import repro.cli")
    heavy = [name for name in loaded
             if name.split(".")[:2] in (["repro", "experiments"],
                                        ["repro", "javacard"],
                                        ["repro", "chaos"])]
    assert heavy == []


def test_table1_loads_no_campaign_or_javacard_module():
    loaded = _fresh_modules("from repro.experiments import run_table1")
    assert "repro.experiments.table1" in loaded
    heavy = [name for name in loaded
             if name.endswith("_campaign")
             or name.split(".")[:2] == ["repro", "javacard"]]
    assert heavy == []
