"""Tests of the benchmark itself: ``python -m pytest bench/``.

They check BENCHMARK.json against the benchmark contract, run one
short untraced and one traced run of every workload in this process,
run the entry point itself where a fresh process matters, and exercise
``compare.py`` on synthetic results.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def _bench_modules():
    """``workloads`` and ``harness``, importable once ``src`` is on the
    path (this directory already is)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    import workloads
    return workloads, harness


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + list(E2E) + list(LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in E2E.values())
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_per_layer_metrics_point_at_end_to_end_metrics():
    workloads, _ = _bench_modules()
    assert list(workloads.WORKLOADS) == WORKLOADS
    assert set(workloads.LAYER_METRICS) == set(LAYER)
    for name, (moves, measured_on) in workloads.LAYER_METRICS.items():
        assert moves in E2E, name
        assert measured_on and set(measured_on) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_run_of_each_workload(workload):
    """A one-second untraced and traced run, in this process: every
    listed metric is reported, every output checks out."""
    _, harness = _bench_modules()
    plain = harness.run_workload(workload, 7, 1, SPEC["end_to_end"], False)
    assert plain["correct"] and plain["failed"] == 0, plain["problems"]
    assert plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(E2E)
    for name, reading in plain["metrics"].items():
        assert reading["unit"] == E2E[name]["unit"]
        assert reading["value"] > 0, name

    traced = harness.run_workload(workload, 7, 1, SPEC["per_layer"], True)
    assert traced["correct"] and traced["failed"] == 0, traced["problems"]
    assert set(traced["metrics"]) == set(LAYER)
    shares = [reading["value"] for name, reading
              in traced["metrics"].items() if name.endswith(".self_pct")]
    assert sum(shares) == pytest.approx(100.0)
    trace_file = harness.trace_path(workload, 7)
    with open(trace_file, encoding="utf-8") as handle:
        trace = json.load(handle)
    os.remove(trace_file)
    assert trace["spans"] and trace["samples"]
    assert plain["sim_digest"] == traced["sim_digest"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_each_workload_reports_its_own_peak_memory(tmp_path):
    """Peak memory is a peak over a process's life: a workload run
    after a hungrier one, or started by a large process, must still
    report its own memory."""
    both, alone = tmp_path / "both.json", tmp_path / "alone.json"
    done = _run("--workload", "ladder", "--workload", "card_session",
                "--seed", "7", "-o", str(both))
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2
    ballast = b"\1" * (128 << 20)
    done = _run("--workload", "card_session", "--seed", "7",
                "-o", str(alone))
    del ballast
    assert done.returncode == 0, done.stderr

    def peak(path, workload):
        (record,) = [r for r in json.loads(path.read_text())
                     if r["workload"] == workload]
        return record["metrics"]["peak_rss_mb"]["value"]
    assert peak(both, "card_session") == pytest.approx(
        peak(alone, "card_session"), rel=E2E["peak_rss_mb"]["bound"])


def test_run_refuses_another_run_length():
    done = _run("--workload", WORKLOADS[0], "--seconds",
                str(SPEC["run_seconds"] + 1))
    assert done.returncode == 2
    assert "run_seconds" in done.stderr and not done.stdout.strip()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "bench").mkdir()
    for name in os.listdir(BENCH_DIR):
        if os.path.isfile(os.path.join(BENCH_DIR, name)):
            shutil.copy(os.path.join(BENCH_DIR, name), tmp_path / "bench")
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                str(SPEC["run_seconds"]), "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def _records(values, digest="d" * 64, workload="ladder",
             seconds=SPEC["run_seconds"]):
    return [{"workload": workload, "seed": seed, "seconds": seconds,
             "sim_digest": digest,
             "metrics": {"txns_per_s": {"value": value, "unit": "txns/s"}}}
            for seed, value in enumerate(values)]


BASE = [1000.0, 1004.0, 998.0, 1001.0, 1003.0,
        999.0, 1002.0, 1000.5, 997.0, 1001.5]


def _verdict(base, change):
    rows = compare.compare(base, change, SPEC)
    (row,) = [r for r in rows if r["metric"] == "txns_per_s"]
    return row


def test_compare_same_commit_is_unchanged():
    assert _verdict(_records(BASE), _records(BASE[::-1]))["verdict"] == (
        "unchanged")
    assert compare.digest_changes(_records(BASE), _records(BASE)) == []


BOUND = E2E["txns_per_s"]["bound"]


def test_compare_flags_a_regression_beyond_the_bound():
    slower = [(1 - 1.5 * BOUND) * value for value in BASE]
    assert _verdict(_records(BASE), _records(slower))["verdict"] == "worse"
    within = [(1 - 0.5 * BOUND) * value for value in BASE]
    assert _verdict(_records(BASE), _records(within))["verdict"] != "worse"


def test_compare_paired_wins_for_a_claim():
    faster = [1.2 * value for value in BASE]
    row = _verdict(_records(BASE), _records(faster))
    assert row["verdict"] == "better" and compare.claim_met(row)
    noisy = [1.2 * v if i % 3 else 0.9 * v for i, v in enumerate(BASE)]
    assert not compare.claim_met(_verdict(_records(BASE), _records(noisy)))


def test_compare_flags_a_digest_change():
    changed = compare.digest_changes(_records(BASE),
                                     _records(BASE, digest="e" * 64))
    assert changed == [f"ladder seed {seed}" for seed in range(len(BASE))]


def test_compare_cli_exit_status(tmp_path):
    base, worse = tmp_path / "base.json", tmp_path / "worse.json"
    base.write_text(json.dumps(_records(BASE)))
    worse.write_text(json.dumps(_records([(1 - 1.5 * BOUND) * v
                                          for v in BASE])))
    assert compare.main(["--base", str(base), "--change", str(base)]) == 0
    assert compare.main(["--base", str(base), "--change", str(worse)]) == 1


def test_compare_refuses_another_run_length(tmp_path):
    short = _records(BASE, seconds=1)
    with pytest.raises(ValueError, match="run_seconds"):
        compare.compare(_records(BASE), short, SPEC)
    base, other = tmp_path / "base.json", tmp_path / "short.json"
    base.write_text(json.dumps(_records(BASE)))
    other.write_text(json.dumps(short))
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--base", str(base), "--change", str(other)])
    assert exit_info.value.code == 2
