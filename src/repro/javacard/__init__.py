"""Java Card VM case study (Figure 7, §4.3): functional bytecode
interpreter, hardware stack coprocessor, communication-refinement
adapters and the HW/SW interface design-space exploration."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adapters": ("StackMasterAdapter", "StaticsBusPort"),
    "bytecode": ("BytecodeError", "Instruction", "Method", "Package",
                 "assemble_method", "package", "to_short"),
    "explore": ("ConfigResult", "ExplorationResult", "InterfaceConfig",
                "default_configurations", "evaluate_configuration",
                "run_exploration"),
    "interpreter": ("BytecodeInterpreter", "InterpreterError"),
    "stack": ("FunctionalStack", "HardwareStack", "SfrLayout", "StackError",
              "StackInterface"),
    "workloads": ("BENCHMARKS", "benchmark_package"),
})
