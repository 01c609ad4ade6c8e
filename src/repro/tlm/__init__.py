"""Transaction-level bus models — the paper's contribution.

* :mod:`repro.tlm.layer1` — cycle-accurate (transfer layer) EC bus,
* :mod:`repro.tlm.layer2` — timed but not cycle-accurate bus,
* :mod:`repro.tlm.layer3` — untimed message-layer bus,
* :mod:`repro.tlm.master` / :mod:`repro.tlm.slave` — reusable masters
  and behavioural slaves shared by both layers.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "arbiter": ("ArbiterPort", "BusArbiter"),
    "bus_base": ("EcBusBase",),
    "layer1": ("EcBusLayer1",),
    "layer2": ("EcBusLayer2",),
    "layer3": ("EcBusLayer3", "MessageRun"),
    "master": ("BlockingMaster", "PipelinedMaster", "ScriptedMaster",
               "normalise_script", "run_script"),
    "queues": ("FinishPool", "TransactionQueue"),
    "slave": ("BehaviouralSlave", "MemorySlave", "RegisterSlave"),
})
