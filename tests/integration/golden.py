"""Golden byte-identity manifest of the eight supervised campaigns.

Each entry runs one campaign at the smoke size its own integration
tests already use, with a JSONL journal, and records the SHA-256 of
the printed report (``result.format()``) and of the journal's cell
lines (header records excluded: they carry the host's worker count).
The report text itself is kept alongside the digests so a mismatch can
print a readable old/new diff.

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

from repro.experiments import (run_bus_sweep, run_chaos_campaign,
                               run_dpm_campaign, run_fabric_campaign,
                               run_fault_campaign, run_link_campaign,
                               run_robustness, run_tear_campaign)

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
    report = result.format()
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "journal_sha256": hashlib.sha256(cell_lines(journal)).hexdigest(),
        "report": report.splitlines(),
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
    """Rerun every campaign and rewrite the manifest."""
    manifest = {name: digest(*run(name, directory)) for name in RUNS}
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
