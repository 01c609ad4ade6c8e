"""Paper-reproduction experiments: one module per table/figure, plus
the supervised campaigns.

* :mod:`repro.experiments.table1` — timing accuracy,
* :mod:`repro.experiments.table2` — energy estimation accuracy,
* :mod:`repro.experiments.table3` — simulation performance,
* :mod:`repro.experiments.figure6` — energy sampling profile,
* :mod:`repro.experiments.casestudy` — §4.3 HW/SW interface
  exploration,
* :mod:`repro.experiments.coprocessor` — the §1 coprocessor HW/SW
  interface study (extension),
* :mod:`repro.experiments.report` — everything at once, and
  :mod:`repro.experiments.export` — the same as CSV files,
* :mod:`repro.experiments.common` — the shared characterisation and
  per-layer run flow.

The eight campaigns run their cells through
:mod:`repro.experiments.supervisor` (journal, retry, resume, process
pool):

* :mod:`repro.experiments.fault_campaign` — recovery cost per layer
  under injected slave faults (``repro faults``),
* :mod:`repro.experiments.tear_campaign` — anti-tearing under power
  loss (``repro tear``),
* :mod:`repro.experiments.dpm_campaign` — adaptive power management
  on starved supplies (``repro dpm``),
* :mod:`repro.experiments.link_campaign` — T=1 sessions over a noisy
  reader (``repro link``),
* :mod:`repro.experiments.fabric_campaign` — flat vs bridged topology
  (``repro fabric``),
* :mod:`repro.experiments.chaos_campaign` — fabric-fault scenarios
  under the cross-layer oracle (``repro chaos``),
* :mod:`repro.experiments.robustness` — accuracy across workload
  classes (``repro robustness``),
* :mod:`repro.experiments.bus_sweep` — the fetch-path parameter sweep
  (``repro sweep``).

Names load on first use (see :mod:`repro._exports`), so importing one
table does not load the campaigns.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
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
    "link_campaign": ("LinkCampaignResult", "LinkCell", "run_link_campaign"),
    "report": ("PaperResults", "full_report", "run_extended", "run_paper"),
    "robustness": ("RobustnessResult", "run_robustness"),
    "supervisor": ("CampaignSupervisor", "CellOutcome", "CheckpointJournal",
                   "cell_key"),
    "table1": ("Table1Result", "run_table1"),
    "tear_campaign": ("GovernorCell", "TearCampaignResult", "TearCell",
                      "run_tear_campaign"),
    "table2": ("Table2Result", "run_table2"),
    "table3": ("Table3Result", "run_table3"),
})
