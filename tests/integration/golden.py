"""Golden byte-identity manifest of the eight supervised campaigns and
of the gate-level reference flows.

Each campaign entry runs one campaign at the smoke size its own integration
tests already use, with a JSONL journal, and records the SHA-256 of
the printed report (``result.format()``) and of the journal's cell
lines (header records excluded: they carry the host's worker count).
The report text itself is kept alongside the digests so a mismatch can
print a readable old/new diff.

The value entries (:data:`VALUES`) pin the gate-level flows exactly:
the default characterisation's coefficients, its Diesel module
energies and glitch count plus a SHA-256 over every decoder net's
activity counters, and every Table 1 and Table 2 row.  They also pin
the experiments that build their buses outside a campaign: the
Figure 6 samples, the case-study and coprocessor-study rows, and the
SHA-256 of the ``repro vcd`` waveform file.  Floats are kept as
``repr`` strings, so a change in the last bit fails.  Tables 1 and 2,
Figure 6, the case study and the coprocessor study keep their printed
report and its SHA-256 beside their values, as the campaigns do.

The manifest lives next to this module in ``golden_campaigns.json``;
rewrite it with ``python tests/integration/test_golden_campaigns.py
--regen`` (``PYTHONPATH=src``) and review the diff like any other
change to expected results.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import typing

from repro.cli import main as cli_main
from repro.experiments import (characterization, run_bus_sweep,
                               run_casestudy, run_chaos_campaign,
                               run_coprocessor_study, run_dpm_campaign,
                               run_fabric_campaign, run_fault_campaign,
                               run_figure6, run_link_campaign,
                               run_robustness, run_table1, run_table2,
                               run_tear_campaign)
from repro.javacard.explore import run_exploration
from repro.power.characterize import default_characterization

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_campaigns.json")

#: campaign -> (runner, keyword arguments); the sizes match the
#: journaled runs of each campaign's own tests, which share these runs
RUNS: typing.Dict[str, typing.Tuple[typing.Callable[..., typing.Any],
                                    typing.Dict[str, typing.Any]]] = {
    "faults": (run_fault_campaign,
               dict(rates=(0.0, 0.05), classes=("random_mix",),
                    layers=("layer1", "layer2"))),
    "tear": (run_tear_campaign,
             dict(points=3, transactions=4, layers=("layer1",))),
    "dpm": (run_dpm_campaign,
            dict(traces=1, transactions=6, layers=("layer1",),
                 policies=("always_on", "budget_aware"),
                 emergency_cells=1)),
    "link": (run_link_campaign,
             dict(noise_rates=(0.0, 0.02), layers=("layer1",),
                  sessions=2, commands=4)),
    "fabric": (run_fabric_campaign,
               dict(topologies=("flat", "bridged"), layers=("layer1",),
                    commands=4, seed="resume-test")),
    "chaos": (run_chaos_campaign,
              dict(scenarios=2, seed="chaos-resume", selftest=False)),
    "robustness": (run_robustness, dict(classes=("sparse",))),
    "sweep": (run_bus_sweep,
              dict(burst_lengths=(1, 4), buffer_lines=(1, 8))),
    # the layers the runs above leave out, at the same sizes
    "faults_gate_level": (run_fault_campaign,
                          dict(rates=(0.0, 0.05), classes=("random_mix",),
                               layers=("gate-level",))),
    "tear_layer2_gate_level": (run_tear_campaign,
                               dict(points=3, transactions=4,
                                    layers=("layer2", "gate-level"),
                                    governor_study=False)),
    "dpm_layer2": (run_dpm_campaign,
                   dict(traces=1, transactions=6, layers=("layer2",),
                        policies=("always_on", "budget_aware"),
                        emergency_cells=1)),
    "link_layer2": (run_link_campaign,
                    dict(noise_rates=(0.0, 0.02), layers=("layer2",),
                         sessions=2, commands=4)),
    "fabric_layer2_layer3": (run_fabric_campaign,
                             dict(topologies=("flat", "bridged"),
                                  layers=("layer2", "layer3"),
                                  commands=4, seed="resume-test")),
}


def net_activity_sha256(netlist) -> str:
    """SHA-256 over every net's (transitions, rises, falls, glitches)."""
    counters = [(net.transitions, net.rise_count, net.fall_count,
                 net.glitches) for net in netlist.nets]
    return hashlib.sha256(repr(counters).encode()).hexdigest()


def characterization_values() -> dict:
    """The default characterisation run, value for value."""
    result = default_characterization()
    table = result.table
    return {
        "coefficients": {name: repr(value) for name, value
                         in sorted(table.energy_per_transition_pj.items())},
        "clock_energy_per_cycle_pj": repr(table.clock_energy_per_cycle_pj),
        "inter_txn_address_hamming": repr(table.inter_txn_address_hamming),
        "inter_txn_data_hamming": repr(table.inter_txn_data_hamming),
        "module_energy_pj": {name: repr(value) for name, value
                             in sorted(result.report.module_energy_pj.items())},
        "glitch_transitions": result.report.glitch_transitions,
        "cycles": result.cycles,
        "decoder_nets_sha256": net_activity_sha256(result.netlist),
    }


def report_text(result: typing.Any) -> dict:
    """The printed report (``result.format()``): its SHA-256 and its
    lines."""
    report = result.format()
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "report": report.splitlines(),
    }


def table1_values() -> dict:
    """Every Table 1 row: cycles, relative cycles, error; and the
    report."""
    result = run_table1()
    return {"rows": [[row.abstraction_level, row.cycles,
                      repr(row.cycles_relative), repr(row.error_percent)]
                     for row in result.rows],
            **report_text(result)}


def table2_values() -> dict:
    """Every Table 2 row: energy, relative energy, error; and the
    report."""
    result = run_table2()
    return {"rows": [[row.abstraction_level, repr(row.energy_pj),
                      repr(row.energy_relative), repr(row.error_percent)]
                     for row in result.rows],
            **report_text(result)}


def figure6_values() -> dict:
    """The Figure 6 samples, windows, totals and phase timings; and
    the report."""
    result = run_figure6()
    return {
        "sample_cycles": result.sample_cycles,
        "layer2_samples_pj": [repr(v) for v in result.layer2_samples_pj],
        "layer1_window_pj": [repr(v) for v in result.layer1_window_pj],
        "phases": [[phase.label, phase.address_done_cycle,
                    phase.data_done_cycle] for phase in result.phases],
        "layer2_total_pj": repr(result.layer2_total_pj),
        "layer1_total_pj": repr(result.layer1_total_pj),
        **report_text(result),
    }


def _exploration_rows(exploration) -> list:
    return [[row.config.name, row.bus_cycles, repr(row.bus_energy_pj),
             row.bus_transactions, row.results_correct]
            for row in exploration.rows]


def casestudy_values() -> dict:
    """The case study's functional results and exploration rows, plus
    the same exploration on layer 2; and the report."""
    result = run_casestudy()
    layer2 = run_exploration(characterization().table, bus_layer=2)
    return {
        "functional": {name: repr(value) for name, value
                       in sorted(result.functional_results.items())},
        "rows": _exploration_rows(result.exploration),
        "layer2_rows": _exploration_rows(layer2),
        **report_text(result),
    }


def coprocessor_values() -> dict:
    """Every coprocessor-study row; and the report."""
    result = run_coprocessor_study()
    return {"rows": [[row.name, row.cycles, repr(row.bus_energy_pj),
                      repr(row.coprocessor_energy_pj),
                      row.bus_transactions, row.cpu_instructions,
                      row.correct]
                     for row in result.rows],
            **report_text(result)}


def vcd_values() -> dict:
    """SHA-256 of the waveform file ``repro vcd`` writes."""
    import contextlib
    import io
    import tempfile
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "bus.vcd")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["vcd", "-o", path])
        with open(path, "rb") as handle:
            data = handle.read()
    return {"status": status,
            "vcd_sha256": hashlib.sha256(data).hexdigest()}


#: value entry -> producer of its JSON record
VALUES: typing.Dict[str, typing.Callable[[], dict]] = {
    "characterization": characterization_values,
    "table1": table1_values,
    "table2": table2_values,
    "figure6": figure6_values,
    "casestudy": casestudy_values,
    "coprocessor": coprocessor_values,
    "vcd": vcd_values,
}


def run(name: str, directory: typing.Union[str, os.PathLike]
        ) -> typing.Tuple[typing.Any, str]:
    """Run campaign *name* journaled into *directory*; returns
    ``(result, journal_path)``."""
    runner, kwargs = RUNS[name]
    journal = os.path.join(os.fspath(directory), f"{name}.jsonl")
    return runner(journal_path=journal, **kwargs), journal


def cell_lines(journal: str) -> bytes:
    """The journal's cell records, byte for byte, headers dropped."""
    with open(journal, "rb") as handle:
        return b"".join(line for line in handle
                        if json.loads(line).get("kind") != "header")


def digest(result: typing.Any, journal: str) -> dict:
    return {
        "journal_sha256": hashlib.sha256(cell_lines(journal)).hexdigest(),
        **report_text(result),
    }


def load() -> typing.Dict[str, dict]:
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        return json.load(handle)


def explain(name: str, old: dict, new: dict) -> str:
    """A per-campaign old/new diff of a manifest mismatch."""
    lines = [f"golden mismatch for {name!r}:"]
    for key in ("report_sha256", "journal_sha256"):
        if old.get(key) != new[key]:
            lines.append(f"  {key}: old {old.get(key)} new {new[key]}")
    lines.extend(difflib.unified_diff(
        old.get("report", []), new["report"], "old report", "new report",
        lineterm=""))
    return "\n".join(lines)


def regenerate(directory: typing.Union[str, os.PathLike]) -> None:
    """Rerun every campaign and value flow and rewrite the manifest."""
    manifest = {name: digest(*run(name, directory)) for name in RUNS}
    manifest.update((name, produce()) for name, produce in VALUES.items())
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
