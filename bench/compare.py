"""Compare benchmark results of two commits.

    python3 bench/compare.py --base A1.json A2.json ... \\
                             --change B1.json B2.json ... \\
                             [--claim METRIC:WORKLOAD ...]

Each file holds the records ``bench/run.py -o`` writes; a record run
for another length than ``run_seconds`` is refused.  Runs pair up
in the order given, so alternate the two commits when running them
and list the files in that order.  For every (metric, workload) row the
report gives each side's median and quartiles and one verdict:

* ``worse``      — the change's median is worse than the base's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved`` — the run-to-run spread (quartile distance over median)
  of either side exceeds the bound, and not every change run beats
  every base run;
* ``better``     — the medians differ by more than the base's own
  spread and the change wins at least 9 of every 10 pairs;
* ``unchanged``  — anything else.

Per-layer metrics have no bound and get the verdict ``info``.  A
``--claim`` is met only by the paired-wins test above.  Any
``sim_digest`` that differs for the same (workload, seed) is flagged:
a speed-only change must leave every simulated result identical.

Exit status 0 when nothing is worse, unresolved, digest-changed or an
unmet claim; 1 otherwise; 2 on a bad argument or a refused record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import typing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: a claimed gain needs the change to win this share of all pairs
WIN_SHARE = 0.9


def load_records(paths: typing.Sequence[str]) -> typing.List[dict]:
    records: typing.List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.load(handle))
    return records


def _quartiles(values: typing.Sequence[float]) -> typing.List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _spread(quartiles: typing.Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    low, median, high = quartiles
    return (high - low) / abs(median) if median else 0.0


def _series(records, workload, metric) -> typing.List[float]:
    return [record["metrics"][metric]["value"] for record in records
            if record["workload"] == workload
            and metric in record["metrics"]]


def _row(workload: str, metric: str, spec: dict, base: list,
         change: list) -> dict:
    lower = spec["better"] == "lower"
    base_q, change_q = _quartiles(base), _quartiles(change)

    def gain(new: float, old: float) -> float:
        """Signed improvement of *new* over *old*, as a share of old."""
        if old == 0:
            return 0.0
        return (old - new) / abs(old) if lower else (new - old) / abs(old)

    pairs = list(zip(base, change))
    row = {"workload": workload, "metric": metric, "unit": spec["unit"],
           "base": base_q, "change": change_q,
           "improvement": gain(change_q[1], base_q[1]),
           "wins": sum(1 for old, new in pairs if gain(new, old) > 0),
           "pairs": len(pairs), "base_spread": _spread(base_q)}
    every_run_better = (max(change) < min(base) if lower
                        else min(change) > max(base))
    bound = spec.get("bound")
    if bound is None:
        row["verdict"] = "info"
    elif row["improvement"] < -bound:
        row["verdict"] = "worse"
    elif (max(_spread(base_q), _spread(change_q)) > bound
          and not every_run_better):
        row["verdict"] = "unresolved"
    elif claim_met(row):
        row["verdict"] = "better"
    else:
        row["verdict"] = "unchanged"
    return row


def digest_changes(base: typing.Sequence[dict],
                   change: typing.Sequence[dict]) -> typing.List[str]:
    """(workload, seed) pairs whose sim_digest differs between sides."""
    seen: typing.Dict[tuple, typing.Dict[str, set]] = {}
    for side, records in (("base", base), ("change", change)):
        for record in records:
            key = (record["workload"], record["seed"])
            seen.setdefault(key, {}).setdefault(side, set()).add(
                record["sim_digest"])
    return [f"{workload} seed {seed}"
            for (workload, seed), sides in sorted(seen.items())
            if len(sides) == 2 and sides["base"] != sides["change"]]


def compare(base: typing.Sequence[dict], change: typing.Sequence[dict],
            spec: dict) -> typing.List[dict]:
    """One row per (metric, workload); raises ValueError when a record
    was not measured for BENCHMARK.json's ``run_seconds``."""
    for record in (*base, *change):
        if record["seconds"] != spec["run_seconds"]:
            raise ValueError(f"{record['workload']} seed {record['seed']} "
                             f"ran {record['seconds']} s, not run_seconds "
                             f"= {spec['run_seconds']} s")
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, metric_spec in metrics.items():
            old = _series(base, workload, metric)
            new = _series(change, workload, metric)
            if old and new:
                rows.append(_row(workload, metric, metric_spec, old, new))
    return rows


def claim_met(row: dict) -> bool:
    """The paired-wins test: the change wins >= 9/10 of the pairs and
    the medians differ by more than the base's own spread."""
    return (row["pairs"] > 0 and row["wins"] >= WIN_SHARE * row["pairs"]
            and row["improvement"] > row["base_spread"])


def format_rows(rows: typing.Sequence[dict]) -> str:
    lines = [f"{'workload':<13}{'metric':<32}{'base median [q1, q3]':>34}"
             f"{'change median [q1, q3]':>34}{'gain':>8}  verdict"]
    for row in rows:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        lines.append(f"{row['workload']:<13}{row['metric']:<32}"
                     f"{cell(row['base']):>34}{cell(row['change']):>34}"
                     f"{100 * row['improvement']:>+7.1f}%  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result files of the change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD",
                        help="metric the change claims to improve")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base = load_records(args.base)
    change = load_records(args.change)
    try:
        rows = compare(base, change, spec)
    except ValueError as error:
        parser.error(str(error))
    print(format_rows(rows))
    failed = any(row["verdict"] in ("worse", "unresolved") for row in rows)
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        matching = [row for row in rows if row["metric"] == metric
                    and row["workload"] == workload]
        if not matching:
            parser.error(f"no results for claim {claim!r}")
        row = matching[0]
        met = claim_met(row)
        failed = failed or not met
        print(f"claim {claim}: change wins {row['wins']}/{row['pairs']} "
              f"pairs, median gain {100 * row['improvement']:+.2f}% vs "
              f"base spread {100 * row['base_spread']:.2f}%: "
              f"{'MET' if met else 'NOT MET'}")
    changed = digest_changes(base, change)
    for item in changed:
        print(f"sim_digest CHANGED: {item}")
    if not changed:
        print("sim_digest: identical wherever both sides ran a seed")
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
