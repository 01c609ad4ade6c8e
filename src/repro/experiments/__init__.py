"""Paper-reproduction experiments: one module per table/figure.

* :mod:`repro.experiments.table1` — timing accuracy,
* :mod:`repro.experiments.table2` — energy estimation accuracy,
* :mod:`repro.experiments.table3` — simulation performance,
* :mod:`repro.experiments.figure6` — energy sampling profile,
* :mod:`repro.experiments.casestudy` — §4.3 HW/SW interface
  exploration,
* :mod:`repro.experiments.coprocessor` — the §1 coprocessor HW/SW
  interface study (extension),
* :mod:`repro.experiments.report` — everything at once.
"""

from .bus_sweep import BusSweepResult, run_bus_sweep
from .casestudy import CaseStudyResult, run_casestudy
from .chaos_campaign import (ChaosCampaignResult, ChaosCell, ShrinkCell,
                             run_chaos_campaign)
from .coprocessor import CoprocessorStudyResult, run_coprocessor_study
from .common import (RunResult, characterization, evaluation_script,
                     percent_error, run_on_layer,
                     test_program_trace)
from .export import write_csv_reports
from .dpm_campaign import (DpmCampaignResult, DpmCell, EmergencyCell,
                           run_dpm_campaign)
from .fabric_campaign import (FabricCampaignResult, FabricCell,
                              run_fabric_campaign)
from .fault_campaign import (CampaignCell, FaultCampaignResult,
                             run_fault_campaign)
from .figure6 import Figure6Result, run_figure6
from .link_campaign import (LinkCampaignResult, LinkCell,
                            run_link_campaign)
from .report import full_report
from .robustness import RobustnessResult, run_robustness
from .supervisor import (CampaignSupervisor, CellOutcome,
                         CheckpointJournal, cell_key)
from .table1 import Table1Result, run_table1
from .tear_campaign import (GovernorCell, TearCampaignResult, TearCell,
                            run_tear_campaign)
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3

__all__ = [
    "BusSweepResult",
    "CampaignCell",
    "CampaignSupervisor",
    "CaseStudyResult",
    "CellOutcome",
    "ChaosCampaignResult",
    "ChaosCell",
    "CheckpointJournal",
    "CoprocessorStudyResult",
    "DpmCampaignResult",
    "DpmCell",
    "EmergencyCell",
    "FabricCampaignResult",
    "FabricCell",
    "FaultCampaignResult",
    "Figure6Result",
    "GovernorCell",
    "LinkCampaignResult",
    "LinkCell",
    "RobustnessResult",
    "RunResult",
    "ShrinkCell",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "TearCampaignResult",
    "TearCell",
    "cell_key",
    "characterization",
    "evaluation_script",
    "full_report",
    "percent_error",
    "run_bus_sweep",
    "run_casestudy",
    "run_chaos_campaign",
    "run_coprocessor_study",
    "run_dpm_campaign",
    "run_fabric_campaign",
    "run_fault_campaign",
    "run_figure6",
    "run_link_campaign",
    "run_on_layer",
    "run_robustness",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_tear_campaign",
    "test_program_trace",
    "write_csv_reports",
]
