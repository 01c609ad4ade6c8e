"""Layer-1 energy model: the transaction-level to RTL adapter (§3.3).

"The power estimation unit is implemented as a dedicated module.  It
defines for each bus interface signal a member variable for the new and
old value.  The new values for all signals are set by the different bus
phases.  The bus process calls the energy calculation method after the
write phase ... Based on these new values and the old signal values bit
transitions can be recognized and energy consumption estimated."

The reconstruction rules below define, for every cycle, the value of
every EC interface wire implied by the bus phases.  The gate-level
model in :mod:`repro.rtl.bus_rtl` drives its real signals by the same
rules, which is what makes the characterisation coefficients
transferable and is verified by the layer-1-vs-RTL equivalence tests.

Reconstruction contract (per cycle):

* Address channel — during an address tenure ``EB_A``/``EB_Instr``/
  ``EB_Write``/``EB_Burst``/``EB_BE`` carry the transaction's values and
  ``EB_AValid`` is high; ``EB_BFirst`` marks the tenure's first cycle,
  ``EB_BLast`` its last; ``EB_ARdy`` is low during slave address wait
  states, high otherwise.  Idle: ``EB_AValid``/framing low, buses hold.
* Read channel — ``EB_RdVal`` pulses with each completing beat while
  ``EB_RData`` carries that beat; ``EB_RBErr`` pulses on error; buses
  hold when idle.
* Write channel — ``EB_WData`` is driven for every active write-beat
  cycle (wait states included); ``EB_WDRdy`` pulses per accepted beat;
  ``EB_WBErr`` pulses on error.

The bus makes one call per cycle, :meth:`Layer1PowerModel.commit_cycle`,
after its write phase, passing what each phase did.  The reconstructed
wires live packed in one 128-bit python int per cycle (one lane per
signal, see :mod:`repro.power.engine`): setting them is pure mask
arithmetic, and the per-cycle accounting is delegated to the
:class:`~repro.power.engine.PackedEngine`.  With no
per-cycle sinks attached the model defers whole batches of cycle words
and flushes them on the first energy read — byte-identical results
(the engine replays the naive scan's float operations in its order),
a fraction of the per-cycle cost.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import operator
import typing

from repro.ec import (BusState, EC_SIGNALS, SignalGroup, SlaveResponse,
                      Transaction, TransactionKind)

from .engine import (GROUP_INDEX, GROUP_ORDER, LANES, RESET_WORD,
                     PackedEngine, unpack_word)
from .interfaces import CycleAccuratePowerInterface, EnergyAccumulator
from .table import CharacterizationTable

#: deferred-mode flush threshold: cycle words buffered between engine
#: flushes when no per-cycle sink forces eager accounting
FLUSH_CAP = 4096


class SignalValuesView(collections.abc.Mapping):
    """Read-only live mapping over a power model's committed wire values.

    One view is built per model and handed to every per-cycle sink, so
    streaming a cycle costs no dict copy.  The view always shows the
    *current* cycle, decoded lazily from the packed cycle word — sinks
    that keep history must snapshot (see :meth:`snapshot`, used by
    :class:`SignalStateRecorder`).
    """

    __slots__ = ("_model",)

    #: signal name -> (shift, value mask), resolved once
    _FIELDS = {name: (shift, mask >> shift)
               for name, shift, _width, mask in LANES}
    _NAMES = tuple(spec.name for spec in EC_SIGNALS)

    def __init__(self, model: "Layer1PowerModel") -> None:
        self._model = model

    def __getitem__(self, name: str) -> int:
        shift, mask = self._FIELDS[name]
        return (self._model._word >> shift) & mask

    def __iter__(self) -> typing.Iterator[str]:
        return iter(self._NAMES)

    def __len__(self) -> int:
        return len(self._NAMES)

    def snapshot(self) -> typing.Tuple[int, ...]:
        """The current values as an immutable tuple (EC_SIGNALS order)."""
        return unpack_word(self._model._word)


class SignalStateRecorder:
    """Optional per-cycle sink receiving the reconstructed signal values.

    Used by the layer-1-vs-RTL equivalence tests, the characterisation
    flow and the SPA/DPA power-trace tooling.  History is stored as
    value tuples sharing one name table; the dict-per-cycle shape older
    consumers index (``recorder.values[cycle]["EB_A"]``) is materialised
    lazily on first access to :attr:`values`.
    """

    def __init__(self) -> None:
        self.cycles: typing.List[int] = []
        self.energies: typing.List[float] = []
        self._names: typing.Optional[typing.Tuple[str, ...]] = None
        self._snapshots: typing.List[typing.Tuple[int, ...]] = []
        self._values_cache: typing.List[typing.Dict[str, int]] = []

    def record(self, cycle: int, values: typing.Mapping[str, int],
               energy_pj: float) -> None:
        self.cycles.append(cycle)
        if self._names is None:
            self._names = tuple(values)
        snapshot = getattr(values, "snapshot", None)
        if snapshot is not None:
            self._snapshots.append(snapshot())
        else:
            self._snapshots.append(
                tuple(values[name] for name in self._names))
        self.energies.append(energy_pj)

    @property
    def names(self) -> typing.Tuple[str, ...]:
        """Signal names, in recorded order (empty before first cycle)."""
        return self._names or ()

    @property
    def snapshots(self) -> typing.List[typing.Tuple[int, ...]]:
        """Raw per-cycle value tuples, ordered like :attr:`names`."""
        return self._snapshots

    @property
    def values(self) -> typing.List[typing.Dict[str, int]]:
        """Per-cycle ``{signal: value}`` dicts (lazily materialised)."""
        cache = self._values_cache
        snapshots = self._snapshots
        if len(cache) > len(snapshots):
            del cache[:]
        if len(cache) < len(snapshots):
            names = self._names or ()
            cache.extend(dict(zip(names, snapshot))
                         for snapshot in snapshots[len(cache):])
        return cache

    def __len__(self) -> int:
        return len(self.cycles)


# packed-lane constants for commit_cycle, resolved once
_A_MASK = LANES[0][3]
_AVALID = LANES[1][3]
_INSTR = LANES[2][3]
_WRITE = LANES[3][3]
_BURST = LANES[4][3]
_BFIRST = LANES[5][3]
_BLAST = LANES[6][3]
_BE_SHIFT = LANES[7][1]
_BE_MASK = LANES[7][3]
_ARDY = LANES[8][3]
_RDATA_SHIFT = LANES[9][1]
_RDATA_MASK = LANES[9][3]
_RDVAL = LANES[10][3]
_RBERR = LANES[11][3]
_WDATA_SHIFT = LANES[12][1]
_WDATA_MASK = LANES[12][3]
_WDRDY = LANES[13][3]
_WBERR = LANES[14][3]

# clear masks: every cycle drops the per-cycle strobes; a driven
# channel also rewrites its buses, an idle one leaves them holding their
# value (the buses' "hold when idle" reconstruction)
_STROBES_CLEAR = ~(_AVALID | _BFIRST | _BLAST | _ARDY
                   | _RDVAL | _RBERR | _WDRDY | _WBERR)
_ADDR_BUS_CLEAR = ~(_A_MASK | _INSTR | _WRITE | _BURST | _BE_MASK)
_RDATA_CLEAR = ~_RDATA_MASK
_WDATA_CLEAR = ~_WDATA_MASK

_GI_CLOCK = GROUP_INDEX[SignalGroup.CLOCK]

_INSTRUCTION_READ = TransactionKind.INSTRUCTION_READ
_DATA_WRITE = TransactionKind.DATA_WRITE
_OK = BusState.OK
_ERROR = BusState.ERROR


class Layer1PowerModel(CycleAccuratePowerInterface):
    """Cycle-accurate transition-counting energy model for layer 1."""

    def __init__(self, table: CharacterizationTable,
                 recorder: typing.Optional[SignalStateRecorder] = None
                 ) -> None:
        self.table = table
        self.recorder = recorder
        self._engine = PackedEngine(table)
        self._sinks: typing.List[typing.Callable[
            [int, typing.Mapping[str, int], float], None]] = []
        self._acc = EnergyAccumulator()
        self._last_cycle_energy = 0.0
        self._names = [spec.name for spec in EC_SIGNALS]
        self._counts = [0] * len(EC_SIGNALS)
        #: per-group energy accumulators, GROUP_ORDER slots
        self._gvals = [0.0] * len(GROUP_ORDER)
        # packed signal state; reset: controls low, ARdy high
        self._word = RESET_WORD
        self._prev_word = RESET_WORD
        self._pending: typing.List[int] = []
        self._current_tenure_id: typing.Optional[int] = None
        self._view = SignalValuesView(self)
        #: set by the bus's span step (see :mod:`repro.power.interfaces`)
        self.span_start: typing.Optional[tuple] = None
        if recorder is not None:
            self._sinks.append(recorder.record)

    # ------------------------------------------------------------------
    # deferred accounting plumbing
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        """Account every deferred cycle word (byte-identical replay)."""
        pending = self._pending
        if pending:
            self._pending = []
            self._engine.flush(self, pending)

    @property
    def transition_counts(self) -> typing.Dict[str, int]:
        """Per-signal bit-transition counts (reporting view)."""
        self._flush()
        return dict(zip(self._names, self._counts))

    @property
    def group_energy_pj(self) -> typing.Dict[SignalGroup, float]:
        """Accumulated energy per signal group (reporting view)."""
        self._flush()
        return dict(zip(GROUP_ORDER, self._gvals))

    def add_signal_sink(self, sink: typing.Callable[
            [int, typing.Mapping[str, int], float], None]) -> None:
        """Stream each cycle's committed wire values (and energy) to
        *sink* — the hook online monitors attach through.  Attaching a
        sink switches the model to eager per-cycle accounting."""
        if sink not in self._sinks:
            self._flush()  # sinks must not observe a stale accumulator
            self._sinks.append(sink)

    # ------------------------------------------------------------------
    # the one per-cycle call from EcBusLayer1, after its write phase
    # ------------------------------------------------------------------

    def commit_cycle(self, cycle: int,
                     transaction: typing.Optional[Transaction],
                     completing: bool,
                     read: typing.Optional[SlaveResponse],
                     write_data: int,
                     write: typing.Optional[SlaveResponse]) -> None:
        """Set this cycle's wires from what the bus phases drove, then
        account the cycle.

        *transaction*/*completing*: the address tenure (``None`` when
        idle) and whether this is its last address cycle; *read* and
        *write*: the data beats' slave responses (``None`` when idle),
        *write_data* the driven word.  Eager mode (per-cycle sinks
        attached) accounts the cycle at once and streams it to every
        sink; deferred mode buffers the word for the engine's batch
        replay — the identical float operations in the identical order
        — on the next energy read or at :data:`FLUSH_CAP`.
        """
        # strobes low; buses and the address qualifiers hold unless a
        # channel drives them below
        word = self._word & _STROBES_CLEAR
        if transaction is None:
            word |= _ARDY
            self._current_tenure_id = None
        else:
            txn_id = transaction.txn_id
            word = ((word & _ADDR_BUS_CLEAR)
                    | transaction.address          # lane shift 0
                    | _AVALID
                    | (transaction._enables << _BE_SHIFT))
            kind = transaction.kind
            if kind is _INSTRUCTION_READ:
                word |= _INSTR
            elif kind is _DATA_WRITE:
                word |= _WRITE
            if transaction.burst_length > 1:
                word |= _BURST
            if self._current_tenure_id != txn_id:
                word |= _BFIRST
            if completing:
                word |= _BLAST | _ARDY
                self._current_tenure_id = None
            else:
                self._current_tenure_id = txn_id
        if read is not None:
            state = read.state
            if state is _OK:
                word = ((word & _RDATA_CLEAR)
                        | (read.data << _RDATA_SHIFT) | _RDVAL)
            elif state is _ERROR:
                word |= _RBERR
        if write is not None:
            word = (word & _WDATA_CLEAR) | (write_data << _WDATA_SHIFT)
            state = write.state
            if state is _OK:
                word |= _WDRDY
            elif state is _ERROR:
                word |= _WBERR
        self._word = word
        if self._sinks:
            self._engine.flush(self, (word,))
            energy = self._last_cycle_energy
            view = self._view
            for sink in self._sinks:
                sink(cycle, view, energy)
        else:
            pending = self._pending
            pending.append(word)
            if len(pending) >= FLUSH_CAP:
                self._flush()

    def steady_idle_ok(self) -> bool:
        """Whether all-idle bus cycles may be booked with :meth:`span`
        (no per-cycle sink must see them)."""
        return not self._sinks

    def steady_adds(self) -> typing.Tuple[float, ...]:
        """What one more all-idle cycle adds to the total: the clock
        baseline (see :meth:`span`)."""
        return (self.table.clock_energy_per_cycle_pj,)

    def span(self, cycles: int) -> typing.Tuple[float, ...]:
        """Book *cycles* more all-idle cycles after an all-idle cycle;
        returns what each added to the total (:meth:`steady_adds`).

        An all-idle commit leaves the packed word as it was, so no lane
        toggles: the engine would add the clock baseline to the clock
        group and to the total, nothing else.  This makes exactly those
        additions, once per cycle, after flushing any deferred words so
        the order of additions is the engine's.
        """
        if self._pending:
            self._flush()
        clock_e = self.table.clock_energy_per_cycle_pj
        gvals = self._gvals
        gvals[_GI_CLOCK] = functools.reduce(
            operator.add, itertools.repeat(clock_e, cycles),
            gvals[_GI_CLOCK])
        self._acc._total = functools.reduce(
            operator.add, itertools.repeat(clock_e, cycles),
            self._acc._total)
        self._last_cycle_energy = clock_e
        return (clock_e,)

    # ------------------------------------------------------------------
    # PowerInterface
    # ------------------------------------------------------------------

    @property
    def total_energy_pj(self) -> float:
        if self._pending:
            self._flush()
        return self._acc._total

    def energy_last_cycle_pj(self) -> float:
        self._flush()
        return self._last_cycle_energy

    def energy_since_last_call_pj(self) -> float:
        self._flush()
        return self._acc.since_last_call()

    def total_transitions(self) -> int:
        """All bit transitions counted so far, across all signals."""
        self._flush()
        return sum(self._counts)
