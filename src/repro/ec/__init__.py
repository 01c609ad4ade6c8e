"""EC-style bus protocol: the shared vocabulary of every model layer.

Reconstructs the externally documented features of the MIPS EC
interface the paper builds on: 36-bit address and 32-bit data buses,
separate unidirectional read/write paths, slave wait states, pipelined
address/data phases, merge patterns and the 4/4/4 outstanding budgets.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "checker": ("ProtocolChecker", "ProtocolViolationError", "Violation",
                "check_recorder"),
    "decoder": ("MAX_ROUTE_DEPTH", "DecodeError", "MapConflictError",
                "MemoryMap", "Region", "Route"),
    "monitor": ("BusMonitor", "Observation"),
    "interfaces": ("BusMasterInterface", "Slave", "SlaveControlInterface",
                   "SlaveDataInterface", "SlaveResponse", "WaitStates"),
    "limits": ("OutstandingBudget",),
    "recovery": ("ErrorCause", "FaultReport", "RetryPolicy"),
    "signals": ("EC_SIGNALS", "SIGNALS_BY_GROUP", "SIGNALS_BY_NAME",
                "SignalGroup", "SignalSpec", "hamming_distance",
                "total_interface_bits"),
    "transaction": ("Transaction", "data_read", "data_write",
                    "instruction_fetch"),
    "types": ("ADDRESS_BITS", "ADDRESS_MASK", "BYTES_PER_WORD", "DATA_BITS",
              "DATA_MASK", "LEGAL_BURST_LENGTHS", "MAX_OUTSTANDING_PER_KIND",
              "AccessRights", "BusState", "Direction", "MergePattern",
              "MisalignedAccessError", "ProtocolError", "TransactionKind"),
})
