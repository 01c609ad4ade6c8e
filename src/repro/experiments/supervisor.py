"""Crash-isolated campaign supervision: checkpoint, retry, resume.

All eight sweeps (``faults``, ``tear``, ``dpm``, ``link``,
``fabric``, ``chaos``, ``robustness``, ``sweep``) run their cells
through :meth:`CampaignSupervisor.run_cells`, which makes each cell an
independently retried, independently journaled unit:

* every finished cell is appended to a **JSONL checkpoint journal**,
  keyed by the canonical JSON of ``(experiment, seed, cell params)``
  — append-and-flush, so a killed process loses at most the in-flight
  cell; the loader skips a truncated final line and lets the last
  record of a key win;
* ``resume=True`` replays journaled cells instead of re-running them.
  Payloads round-trip through JSON exactly (``repr`` floats), so a
  resumed campaign is byte-identical to an uninterrupted one;
* a cell that keeps raising after ``max_attempts`` tries is recorded
  as **degraded** instead of aborting the sweep, and
  :meth:`CellOutcome.cell` turns it into the campaign's placeholder.

``workers > 1`` shards the cells over a process pool, yet outcomes
are collected — and journaled — in input order, so journal, resume
and reports are byte-identical to a serial run.  Both paths share one
replay lookup, one retry loop (:func:`_attempt`, inside the worker on
the pool path) and one journal/outcome step; a worker process that
dies outright degrades only its own cell.  :func:`check_choices` and
:func:`check_counts` are the runners' shared argument checks.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import json
import logging
import os
import typing

_LOG = logging.getLogger(__name__)


def check_choices(what: str, values: typing.Iterable[typing.Any],
                  choices: typing.Collection[typing.Any]) -> None:
    """Reject any of *values* not in *choices* with a ValueError."""
    for value in values:
        if value not in choices:
            raise ValueError(
                f"unknown {what} {value!r}; expected one of "
                f"{', '.join(str(choice) for choice in choices)}")


def check_counts(**counts: int) -> None:
    """Reject any count below one with a ValueError naming it."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


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


_Row = typing.TypeVar("_Row")


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

    def cell(self, cls: typing.Callable[..., _Row],
             **identity: typing.Any) -> _Row:
        """The payload as a *cls* row; for a degraded cell, a
        placeholder carrying only *identity* (every measured field at
        its zero default) plus the status and error text."""
        if self.ok:
            return cls(**self.payload)
        return cls(**identity, status="degraded", error=self.error)


#: One parallelisable unit of work: ``(params, fn, args)``.  ``fn``
#: must be a module-level callable (picklable) returning the cell's
#: JSON-serialisable payload dict when called as ``fn(*args)``.
CellSpec = typing.Tuple[typing.Mapping[str, typing.Any],
                        typing.Callable[..., typing.Dict[str, typing.Any]],
                        typing.Tuple[typing.Any, ...]]

#: ``(status, attempts, error, payload)`` of one cell's tries.
_Attempt = typing.Tuple[str, int, typing.Optional[str],
                        typing.Optional[typing.Dict[str, typing.Any]]]


def _degraded(attempts: int, error: BaseException) -> _Attempt:
    return ("degraded", attempts, f"{type(error).__name__}: {error}",
            None)


def _attempt(fn: typing.Callable[..., dict],
             args: typing.Tuple[typing.Any, ...],
             max_attempts: int) -> _Attempt:
    """The one retry loop: call ``fn(*args)`` up to *max_attempts*
    times.  Runs in-process or inside a pool worker; either way the
    result is plain data the parent turns into a :class:`CellOutcome`.
    ``KeyboardInterrupt``/``SystemExit`` still propagate — killing a
    campaign must work."""
    for attempt in range(1, max_attempts + 1):
        try:
            return ("ok", attempt, None, fn(*args))
        except Exception as error:
            last_error = error
    return _degraded(max_attempts, last_error)


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
    """

    def __init__(self, experiment: str, seed: typing.Union[int, str],
                 journal_path: typing.Union[str, os.PathLike,
                                            None] = None,
                 resume: bool = False, max_attempts: int = 2) -> None:
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
        self.cells_run = 0
        self.cells_resumed = 0
        self.cells_degraded = 0
        self._header_written = False
        self._journaled: typing.Dict[str, dict] = (
            self.journal.load() if (self.journal and resume) else {})

    def run_cell(self, params: typing.Mapping[str, typing.Any],
                 thunk: typing.Callable[[], typing.Dict[str, typing.Any]]
                 ) -> CellOutcome:
        """Run (or replay) one in-process cell: :meth:`run_cells` for
        a single ``(params, thunk, ())`` spec.  Never raises for cell
        failures."""
        return self.run_cells([(params, thunk, ())])[0]

    def run_cells(self, cells: typing.Sequence[CellSpec],
                  workers: int = 1) -> typing.List[CellOutcome]:
        """Run a batch of cells, optionally across worker processes.

        *cells* is a sequence of ``(params, fn, args)`` specs; with
        ``workers > 1`` each ``fn`` must be a module-level (picklable)
        callable.  Outcomes come back **in input order** regardless of
        completion order, and the journal is appended in that same
        order, so a parallel campaign's checkpoint file, resume
        behaviour and reports are byte-identical to a serial one.
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
        self._write_header(max(1, workers), host_cpus)
        keys = [cell_key(self.experiment, self.seed, params)
                for params, _, _ in specs]
        outcomes = [self._replay(params, key)
                    for (params, _, _), key in zip(specs, keys)]
        pending = [index for index, outcome in enumerate(outcomes)
                   if outcome is None]
        todo = [specs[index] for index in pending]
        results = (self._pool_results(todo, workers) if workers > 1
                   else (_attempt(fn, args, self.max_attempts)
                         for _, fn, args in todo))
        # journal in input order: each result is taken in submission
        # order, so a checkpoint never runs ahead of an earlier cell
        with contextlib.closing(results):
            for index, result in zip(pending, results):
                outcomes[index] = self._record(specs[index][0],
                                               keys[index], result)
        return typing.cast(typing.List[CellOutcome], outcomes)

    def _pool_results(self, specs: typing.List[CellSpec],
                      workers: int) -> typing.Iterator[_Attempt]:
        """Run *specs* on a process pool, yielding each cell's
        :func:`_attempt` result in input order.

        A worker process that dies outright (segfault, kill,
        unpicklable payload — not a Python exception) degrades only its
        own cell; the pool is rebuilt for the remaining cells, because
        a broken pool poisons every future submitted before the break.
        """
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers)

        def submit(batch):
            return [executor.submit(_attempt, fn, args, self.max_attempts)
                    for _, fn, args in batch]

        try:
            futures = submit(specs)
            for position in range(len(specs)):
                try:
                    result = futures[position].result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as crash:
                    result = _degraded(self.max_attempts, crash)
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers)
                    futures[position + 1:] = submit(specs[position + 1:])
                yield result
        finally:
            executor.shutdown()

    def _replay(self, params: typing.Mapping[str, typing.Any],
                key: str) -> typing.Optional[CellOutcome]:
        """The journaled outcome of an ``ok`` cell under resume, else
        None (degraded cells are always re-run)."""
        record = self._journaled.get(key) if self.resume else None
        if record is None or record.get("status") != "ok":
            return None
        self.cells_resumed += 1
        return CellOutcome(
            params=dict(params), key=key, status="ok",
            attempts=record.get("attempts", 1), error=None,
            payload=record.get("payload"), from_journal=True)

    def _record(self, params: typing.Mapping[str, typing.Any], key: str,
                result: _Attempt) -> CellOutcome:
        """Turn one freshly run cell into its outcome and journal it."""
        status, attempts, error, payload = result
        outcome = CellOutcome(params=dict(params), key=key, status=status,
                              attempts=attempts, error=error,
                              payload=payload)
        self.cells_run += 1
        if not outcome.ok:
            self.cells_degraded += 1
        if self.journal is not None:
            record = {
                "experiment": self.experiment,
                "seed": self.seed,
                "key": key,
                "params": outcome.params,
                "status": status,
                "attempts": attempts,
                "error": error,
                "payload": payload,
            }
            self.journal.append(record)
            self._journaled[key] = record
        return outcome

    def _write_header(self, workers: int, host_cpus: int) -> None:
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
            "workers": workers,
            "host_cpus": host_cpus,
        })
