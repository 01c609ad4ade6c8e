"""Benchmark entry point; see bench/README.md.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [-o FILE]

For each workload it prints one ``workload metric value unit`` line per
metric, a ``workload sim_digest <sha256>`` line, then one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones and writes ``bench/out/trace-<workload>-<seed>.json``.
``--seconds`` must equal BENCHMARK.json's ``run_seconds``: the run
length is the benchmark's, the same on every commit.  Several
workloads run one after another, each in a fresh interpreter.  Exit
status: 0 when every output checked out, 1 when a check failed, 2 on a
bad argument or when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: run-time files (journals, traces); ignored by git
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _parse(argv, spec):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measured seconds per run; only BENCHMARK.json "
                             "run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("-o", "--output", default=None,
                        help="write the result records here as JSON")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds}: the run length is "
                     f"BENCHMARK.json run_seconds = {spec['run_seconds']}")
    return args


def _one_workload(name, args, spec) -> list:
    """Run workload *name* in this process; returns its records."""
    sys.path.insert(0, SRC)
    import harness

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    record = harness.run_workload(name, args.seed, args.seconds, wanted,
                                  bool(args.trace))
    for problem in record["problems"]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    for metric, reading in record["metrics"].items():
        print(f"{name} {metric} {reading['value']!r} {reading['unit']}")
    print(f"{name} sim_digest {record['sim_digest']}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return [record]


def _each_in_own_process(names, args) -> list:
    """Run every workload in *names* in a fresh interpreter, so that
    each reports its own peak memory; returns their records."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="records-", dir=OUT_DIR)
    records = []
    try:
        for name in names:
            path = os.path.join(scratch, f"{name}.json")
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "-o", path],
                           check=False)
            if not os.path.isfile(path):
                raise SystemExit(f"bench/run.py: workload {name} "
                                 f"produced no result")
            with open(path, encoding="utf-8") as handle:
                records.extend(json.load(handle))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return records


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    args = _parse(argv, spec)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench/run.py: error: no program under test at {SRC}",
              file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if len(names) == 1:
        records = _one_workload(names[0], args, spec)
    else:
        records = _each_in_own_process(names, args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1)
            handle.write("\n")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
