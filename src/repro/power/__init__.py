"""Power modelling stack: characterisation table, hierarchical energy
models for TLM layers 1 and 2, gate-level estimation (Diesel
substitute), traces and SPA/DPA leakage metrics."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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
})
