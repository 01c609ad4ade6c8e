"""Crash-isolated campaign supervision: checkpoint, retry, resume.

A long sweep (``fault_campaign``, ``bus_sweep``, ``robustness``) used
to be all-or-nothing: a crash in cell 47 of 63 lost the first 46, and
one poisoned cell sank the whole campaign.  The supervisor makes each
sweep cell an independently retried, independently journaled unit:

* every finished cell is appended to a **JSONL checkpoint journal**,
  one self-contained record per line, keyed by the canonical JSON of
  ``(experiment, seed, cell params)`` — append-and-flush, so a killed
  process loses at most the in-flight cell;
* ``resume=True`` replays journaled cells from the checkpoint instead
  of re-running them.  Cell payloads round-trip through JSON exactly
  (``repr``-based float serialisation), so a resumed campaign is
  byte-identical to an uninterrupted one with the same seed;
* a cell that keeps raising after ``max_attempts`` tries is recorded
  as **degraded** (with the error text) instead of aborting the sweep.

The journal loader tolerates a truncated final line — the expected
state after ``SIGINT`` mid-append — and lets the last record win when
a key appears twice (a cell re-run after a degraded first pass).

:meth:`CampaignSupervisor.run_cells` adds process-parallel execution:
cells are sharded over a worker pool, but outcomes are collected —
and journaled — strictly in input order, so the JSONL journal, the
resume behaviour and every derived report are byte-identical to a
serial run of the same campaign.  Retry/degrade isolation happens
inside the worker; a worker process that dies outright degrades only
its own cell (the pool is rebuilt for the rest).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import json
import logging
import os
import typing

_LOG = logging.getLogger(__name__)


def cell_key(experiment: str, seed: typing.Union[int, str],
             params: typing.Mapping[str, typing.Any]) -> str:
    """Canonical identity of one sweep cell.

    Sorted-key JSON of (experiment, seed, params): stable across runs,
    insensitive to dict ordering, and distinguishing ``seed=1`` from
    ``seed="1"`` (they generate different fault streams).
    """
    return json.dumps(
        {"experiment": experiment,
         "seed": [type(seed).__name__, seed],
         "params": dict(params)},
        sort_keys=True)


@dataclasses.dataclass
class CellOutcome:
    """What the supervisor knows about one cell after running it."""

    params: typing.Dict[str, typing.Any]
    key: str
    status: str                 # "ok" | "degraded"
    attempts: int
    error: typing.Optional[str]
    payload: typing.Optional[typing.Dict[str, typing.Any]]
    from_journal: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: One parallelisable unit of work: ``(params, fn, args)``.  ``fn``
#: must be a module-level callable (picklable) returning the cell's
#: JSON-serialisable payload dict when called as ``fn(*args)``.
CellSpec = typing.Tuple[typing.Mapping[str, typing.Any],
                        typing.Callable[..., typing.Dict[str, typing.Any]],
                        typing.Tuple[typing.Any, ...]]


def _cell_worker(fn: typing.Callable[..., dict],
                 args: typing.Tuple[typing.Any, ...],
                 max_attempts: int) -> tuple:
    """Run one cell inside a worker process, with the same bounded
    retry the serial path applies, and report the outcome as data.

    Returns ``(status, attempts, error, payload)`` so the parent can
    build a :class:`CellOutcome` (and a journal record) that is
    byte-identical to what :meth:`CampaignSupervisor.run_cell` would
    have produced in-process.
    """
    last_error: typing.Optional[BaseException] = None
    for attempt in range(1, max_attempts + 1):
        try:
            return ("ok", attempt, None, fn(*args))
        except Exception as error:
            last_error = error
    return ("degraded", max_attempts,
            f"{type(last_error).__name__}: {last_error}", None)


class CheckpointJournal:
    """Append-only JSONL store of finished sweep cells."""

    def __init__(self, path: typing.Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)

    def load(self) -> typing.Dict[str, dict]:
        """Journaled records by cell key; last record wins.

        Undecodable lines (the truncated tail a mid-append kill leaves
        behind) are skipped, not fatal.
        """
        records: typing.Dict[str, dict] = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # truncated / corrupt line: ignore
                key = record.get("key")
                if key:
                    records[key] = record
        return records

    def append(self, record: dict) -> None:
        """Append one record and flush, so a kill loses at most the
        line being written."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


class CampaignSupervisor:
    """Runs sweep cells with bounded retry, journaling and resume.

    Parameters
    ----------
    experiment:
        Name baked into every cell key (``"fault_campaign"``, …).
    seed:
        The campaign seed, part of the cell identity: a journal written
        under one seed never satisfies a resume under another.
    journal_path:
        Where to checkpoint.  ``None`` disables journaling (and
        resume); the supervisor still provides retry/degrade isolation.
    resume:
        Replay journaled cells instead of re-running them.
    max_attempts:
        Total tries per cell before it is recorded as degraded.
    cell_wall_seconds:
        Advisory per-cell wall-clock budget.  Experiments thread it
        into :func:`~repro.tlm.run_script` so a hung cell trips a
        :class:`~repro.kernel.StallError` the supervisor can catch,
        instead of hanging the campaign.
    """

    def __init__(self, experiment: str, seed: typing.Union[int, str],
                 journal_path: typing.Union[str, os.PathLike,
                                            None] = None,
                 resume: bool = False, max_attempts: int = 2,
                 cell_wall_seconds: typing.Optional[float] = None
                 ) -> None:
        if resume and journal_path is None:
            raise ValueError("resume requires a journal_path")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1: {max_attempts}")
        self.experiment = experiment
        self.seed = seed
        self.journal = (None if journal_path is None
                        else CheckpointJournal(journal_path))
        self.resume = resume
        self.max_attempts = max_attempts
        self.cell_wall_seconds = cell_wall_seconds
        self.cells_run = 0
        self.cells_resumed = 0
        self.cells_degraded = 0
        #: worker count actually used by the last run_cells call (after
        #: the 1-CPU serial fallback), recorded in the journal header
        self.effective_workers: typing.Optional[int] = None
        self._header_written = False
        self._journaled: typing.Dict[str, dict] = (
            self.journal.load() if (self.journal and resume) else {})

    def run_cell(self, params: typing.Mapping[str, typing.Any],
                 thunk: typing.Callable[[], typing.Dict[str, typing.Any]]
                 ) -> CellOutcome:
        """Run (or replay) one cell; never raises for cell failures.

        *thunk* computes the cell and returns a JSON-serialisable
        payload dict.  Any exception it raises is contained: the cell
        is retried up to ``max_attempts`` times and then recorded as
        degraded.  ``KeyboardInterrupt``/``SystemExit`` still
        propagate — killing a campaign must work.
        """
        key = cell_key(self.experiment, self.seed, params)
        if self.resume:
            record = self._journaled.get(key)
            if record is not None and record.get("status") == "ok":
                self.cells_resumed += 1
                return CellOutcome(
                    params=dict(params), key=key, status="ok",
                    attempts=record.get("attempts", 1), error=None,
                    payload=record.get("payload"), from_journal=True)
        last_error: typing.Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                payload = thunk()
            except Exception as error:
                last_error = error
                continue
            outcome = CellOutcome(
                params=dict(params), key=key, status="ok",
                attempts=attempt, error=None, payload=payload)
            break
        else:
            self.cells_degraded += 1
            outcome = CellOutcome(
                params=dict(params), key=key, status="degraded",
                attempts=self.max_attempts,
                error=f"{type(last_error).__name__}: {last_error}",
                payload=None)
        self.cells_run += 1
        self._checkpoint(outcome)
        return outcome

    def run_cells(self, cells: typing.Sequence[CellSpec],
                  workers: int = 1) -> typing.List[CellOutcome]:
        """Run a batch of cells, optionally across worker processes.

        *cells* is a sequence of ``(params, fn, args)`` specs; with
        ``workers > 1`` each ``fn`` must be a module-level (picklable)
        callable.  Outcomes come back **in input order** regardless of
        completion order, and the journal is appended in that same
        order, so a parallel campaign's checkpoint file, resume
        behaviour and reports are byte-identical to a serial one.

        Retry/degrade semantics match :meth:`run_cell` exactly: the
        retry loop runs inside the worker, and a worker process that
        dies outright (not a Python exception — an abort or kill)
        degrades only its own cell; the pool is rebuilt to finish the
        remaining cells.
        """
        specs = [(dict(params), fn, tuple(args))
                 for params, fn, args in cells]
        host_cpus = os.cpu_count() or 1
        if workers > 1 and host_cpus == 1:
            # measured: a process pool on a 1-CPU host is a 0.86x
            # throughput *loss* — pay the warning, not the pool
            _LOG.warning(
                "supervisor[%s]: host has a single CPU; falling back "
                "from %d workers to serial execution",
                self.experiment, workers)
            workers = 1
        self.effective_workers = max(1, workers)
        self._write_header(host_cpus)
        if workers <= 1:
            return [self.run_cell(params, functools.partial(fn, *args))
                    for params, fn, args in specs]
        outcomes: typing.List[typing.Optional[CellOutcome]] = (
            [None] * len(specs))
        pending: typing.List[int] = []
        keys: typing.List[typing.Optional[str]] = [None] * len(specs)
        for index, (params, fn, args) in enumerate(specs):
            key = cell_key(self.experiment, self.seed, params)
            keys[index] = key
            if self.resume:
                record = self._journaled.get(key)
                if record is not None and record.get("status") == "ok":
                    self.cells_resumed += 1
                    outcomes[index] = CellOutcome(
                        params=dict(params), key=key, status="ok",
                        attempts=record.get("attempts", 1), error=None,
                        payload=record.get("payload"),
                        from_journal=True)
                    continue
            pending.append(index)
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers)
        try:
            futures = {
                index: executor.submit(
                    _cell_worker, specs[index][1], specs[index][2],
                    self.max_attempts)
                for index in pending}
            for position, index in enumerate(pending):
                params = specs[index][0]
                try:
                    status, attempts, error, payload = (
                        futures[index].result())
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as crash:
                    # the worker process itself died (segfault, kill,
                    # unpicklable payload): degrade this cell only and
                    # rebuild the pool — a broken pool poisons every
                    # future submitted before the break
                    status, attempts, error, payload = (
                        "degraded", self.max_attempts,
                        f"{type(crash).__name__}: {crash}", None)
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers)
                    for later in pending[position + 1:]:
                        futures[later] = executor.submit(
                            _cell_worker, specs[later][1],
                            specs[later][2], self.max_attempts)
                if status == "degraded":
                    self.cells_degraded += 1
                outcome = CellOutcome(
                    params=dict(params), key=keys[index], status=status,
                    attempts=attempts, error=error, payload=payload)
                self.cells_run += 1
                # journal in input order: each future is awaited in
                # submission order, so a checkpoint never runs ahead
                # of an earlier cell
                self._checkpoint(outcome)
                outcomes[index] = outcome
        finally:
            executor.shutdown()
        return typing.cast(typing.List[CellOutcome], outcomes)

    def _write_header(self, host_cpus: int) -> None:
        """Journal one header record per supervisor run, recording the
        *effective* worker count (after any serial fallback).

        The header carries no ``"key"`` field, so
        :meth:`CheckpointJournal.load` skips it: resume and
        byte-identity of the cell records are unaffected.
        """
        if self.journal is None or self._header_written:
            return
        self._header_written = True
        self.journal.append({
            "kind": "header",
            "experiment": self.experiment,
            "seed": self.seed,
            "workers": self.effective_workers,
            "host_cpus": host_cpus,
        })

    def _checkpoint(self, outcome: CellOutcome) -> None:
        if self.journal is None:
            return
        record = {
            "experiment": self.experiment,
            "seed": self.seed,
            "key": outcome.key,
            "params": outcome.params,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "error": outcome.error,
            "payload": outcome.payload,
        }
        self.journal.append(record)
        self._journaled[outcome.key] = record

    def summary(self) -> str:
        parts = [f"{self.cells_run} cell(s) run"]
        if self.cells_resumed:
            parts.append(f"{self.cells_resumed} resumed from "
                         f"{self.journal.path}")
        if self.cells_degraded:
            parts.append(f"{self.cells_degraded} degraded")
        return f"supervisor[{self.experiment}]: " + ", ".join(parts)
