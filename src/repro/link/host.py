"""T=1 host driver: the reader side of the contact interface.

:class:`T1Host` is a kernel module clocked on the platform's posedge.
It frames command APDUs into I-blocks, paces the wire bytes at the
UART's BAUD interval through an optional :class:`NoisyChannel` into
``Uart.receive_byte`` — the same pad a real reader drives — and
watches ``Uart.transmitted`` for the card's wire bytes coming back.

Robustness lives here:

* **CWT / BWT** — character and block waiting times policed on the
  kernel clock; silence or a stalled frame is a failure, never a hang.
* **Bounded retransmission** — failures are repaired with R-blocks
  and I-frame retransmissions; per-exchange attempts and a
  per-session retry budget bound the spend.
* **Degradation ladder** — when retransmission stops working the host
  escalates: S(RESYNC) to realign sequence numbers, then IFS
  renegotiation halving the block size, then S(ABORT), shedding the
  remaining commands so the session *degrades* instead of failing.
* **WTX** — the card may ask for waiting-time extensions while it
  executes; grants multiply the BWT budget (the card backs off
  exponentially, see :class:`~repro.link.T1CardEndpoint`).

Every recovery episode brackets an energy window over the caller's
probe, so the session's :class:`~repro.link.LinkReport` partitions
total energy into clean and per-kind recovery buckets.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import typing

from repro.kernel import STEADY_FOREVER, Module

from .channel import NoisyChannel
from .frame import (Block, FrameDecoder, R_EDC, R_OK, R_OTHER, S_ABORT,
                    S_IFS, S_RESYNC, S_WTX, encode, i_block, r_block,
                    s_block)
from .report import LinkReport

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soc.smartcard import SmartCardPlatform


@dataclasses.dataclass(frozen=True)
class LinkParams:
    """Shared T=1 operating point (cycles are platform clock cycles)."""

    ifs: int = 32                 # information field size per I-block
    min_ifs: int = 8              # IFS floor of the degradation ladder
    cwt: int = 96                 # character waiting time
    bwt: int = 1600               # block waiting time
    retries_per_frame: int = 3    # attempts before escalating
    resync_budget: int = 2        # RESYNC rounds before IFS shrink
    session_retry_budget: int = 48
    card_retx_budget: int = 12    # card-side retransmissions
    wtx_threshold: int = 800      # card asks for WTX past this runtime
    wtx_cap: int = 8              # max WTX multiplier


class T1Host(Module):
    """Reader-side protocol engine driving one card session."""

    def __init__(self, platform: "SmartCardPlatform",
                 commands: typing.Sequence[str],
                 params: typing.Optional[LinkParams] = None,
                 seed: typing.Union[int, str] = 0,
                 channel: typing.Optional[NoisyChannel] = None,
                 energy_probe: typing.Optional[
                     typing.Callable[[], float]] = None,
                 think_range: typing.Tuple[int, int] = (60, 160),
                 name: str = "t1host") -> None:
        super().__init__(platform.simulator, name)
        self.platform = platform
        self.uart = platform.uart
        self.clock = platform.clock
        self.params = params or LinkParams()
        self.channel = channel
        self.energy_probe = energy_probe
        self.commands = list(commands)
        self.report = LinkReport(
            commands_total=len(self.commands),
            retry_budget=self.params.session_retry_budget,
            ifs_final=self.params.ifs)
        self._apdu_rng = random.Random(f"{seed}/host/apdu")
        self._gap_rng = random.Random(f"{seed}/host/gaps")
        self._think_range = think_range
        self.decoder = FrameDecoder()
        self.done = False

        # wire machinery
        self._baud = max(self.uart.registers[3], 1)
        self._to_card: typing.Deque[typing.Tuple[int, int]] = \
            collections.deque()
        self._rx_pending: typing.Deque[typing.Tuple[int, int]] = \
            collections.deque()
        self._tx_seen = 0             # consumed length of uart.transmitted
        self._next_tx_cycle = 0
        self._outbox: typing.Deque[typing.Tuple[typing.Tuple, list]] = \
            collections.deque()
        self._current_tx: typing.Optional[
            typing.Tuple[typing.Tuple, typing.Deque[int]]] = None

        # protocol state
        self._cmd_index = 0
        self._current_apdu: typing.List[int] = []
        self._chunks: typing.List[typing.List[int]] = []
        self._chunk_idx = 0
        self._seq_tx = 0              # our N(S)
        self._expected_card_seq = 0   # card N(S) we accept next
        self._resp_final_acked = False
        self._last_i_frame: typing.Optional[typing.List[int]] = None
        self._last_i_seq = 0
        self._state = "think"         # think | await | done
        self._await_kind: typing.Optional[str] = None
        self._think_left = 0
        self._bwt_deadline: typing.Optional[int] = None
        self._bwt_budget = self.params.bwt
        self._ifs = self.params.ifs
        self._frame_attempts = 0
        self._resyncs_done = 0
        self._abort_attempts = 0
        self._pending_ifs = self.params.ifs
        self._escalation: typing.Optional[str] = None

        # energy windows
        self._probe_start = self._probe()
        self._segment_start = self._probe_start
        self._window_kind: typing.Optional[str] = None
        self._window_start = 0.0

        self._process = self.method(
            self._on_clock, name="on_clock",
            sensitive=[self.clock.posedge_event], dont_initialize=True,
            steady=self._steady_clock)

    # -- energy attribution ------------------------------------------------

    def _probe(self) -> float:
        return self.energy_probe() if self.energy_probe else 0.0

    def _open_window(self, kind: str) -> None:
        if self._window_kind is not None:
            return
        now = self._probe()
        self.report.clean_energy_pj += now - self._segment_start
        self._window_kind = kind
        self._window_start = now

    def _close_window(self) -> None:
        if self._window_kind is None:
            return
        now = self._probe()
        self.report.add_recovery(self._window_kind,
                                 now - self._window_start)
        self._window_kind = None
        self._segment_start = now

    def _switch_window(self, kind: str) -> None:
        """Escalation: close the current bucket, open the deeper one."""
        self._close_window()
        self._open_window(kind)

    # -- wire plumbing -----------------------------------------------------

    def _queue_block(self, block: Block, tag: typing.Tuple) -> None:
        frame = encode(block)
        self._outbox.append((tag, frame))
        self.report.frames_sent += 1
        if block.is_r:
            self.report.r_blocks_sent += 1

    def _retransmit_last_i(self) -> None:
        assert self._last_i_frame is not None
        self._outbox.append((("i", self._last_i_seq, True),
                             list(self._last_i_frame)))
        self.report.frames_sent += 1
        self.report.host_retransmissions += 1
        self.report.retransmitted_bytes += len(self._last_i_frame)

    def _pump_wire(self, cycle: int) -> None:
        # card -> host: new UART transmissions through the channel
        transmitted = self.uart.transmitted
        while self._tx_seen < len(transmitted):
            byte = transmitted[self._tx_seen]
            self._tx_seen += 1
            for delay, wire_byte in self._transmit(byte, "card_to_host"):
                self._rx_pending.append((cycle + delay, wire_byte))
        # host -> card: pace the current frame at BAUD
        if self._current_tx is None and self._outbox:
            tag, frame = self._outbox.popleft()
            self._current_tx = (tag, collections.deque(frame))
        if self._current_tx is not None and cycle >= self._next_tx_cycle:
            tag, pending = self._current_tx
            byte = pending.popleft()
            for delay, wire_byte in self._transmit(byte, "host_to_card"):
                self._to_card.append((cycle + delay, wire_byte))
            self._next_tx_cycle = cycle + self._baud
            if not pending:
                self._current_tx = None
                self._frame_sent(tag, cycle)
        # deliveries due this cycle
        while self._to_card and self._to_card[0][0] <= cycle:
            self.uart.receive_byte(self._to_card.popleft()[1])
        while self._rx_pending and self._rx_pending[0][0] <= cycle:
            _, byte = self._rx_pending.popleft()
            result = self.decoder.feed(byte, cycle)
            if result is not None:
                self._handle_decode(result, cycle)
                if self.done:
                    return

    def _transmit(self, byte: int, direction: str
                  ) -> typing.List[typing.Tuple[int, int]]:
        if self.channel is None:
            return [(0, byte)]
        return self.channel.transmit(byte, direction)

    def _frame_sent(self, tag: typing.Tuple, cycle: int) -> None:
        """The last byte of an outbound frame left for the wire."""
        if self._await_kind is None:
            return
        if tag[0] == "i":
            self._bwt_budget = self.params.bwt   # WTX grants expire
        self._bwt_deadline = cycle + self._bwt_budget

    # -- timers ------------------------------------------------------------

    def _check_timers(self, cycle: int) -> None:
        if self._await_kind is None or self.done:
            return
        if self.decoder.in_frame:
            if (not self._rx_pending
                    and cycle - self.decoder.last_byte_cycle
                    > self.params.cwt):
                self.decoder.reset()
                self.report.cwt_timeouts += 1
                self._recover("cwt", cycle)
            return
        if (self._bwt_deadline is not None and cycle > self._bwt_deadline
                and self._current_tx is None and not self._outbox):
            self.report.bwt_timeouts += 1
            self._recover("bwt", cycle)

    # -- the session loop --------------------------------------------------

    def _on_clock(self) -> None:
        process = self._process
        if self.done:
            process.steady_until = STEADY_FOREVER
            return
        cycle = self.clock.cycles
        if process.steady_armed:
            # the hint counts this activation too: read it first
            process.steady_until = (process.run_count
                                    + self._steady_clocks(cycle) - 1)
        self._pump_wire(cycle)
        if self.done:
            return
        self._check_timers(cycle)
        if self.done:
            return
        if self._state == "think":
            if self._think_left > 0:
                self._think_left -= 1
                return
            self._start_next_command(cycle)

    def _steady_clocks(self, cycle: int) -> int:
        """Activations from *cycle* on, this one included, in which no
        byte moves and no deadline fires: they only count think time
        down (see :meth:`_steady_clock`)."""
        if self._tx_seen < len(self.uart.transmitted):
            return 0
        steady = STEADY_FOREVER
        if self._current_tx is not None:
            # BAUD pacing: the next byte leaves at _next_tx_cycle
            steady = self._next_tx_cycle - cycle
        elif self._outbox:
            return 0
        if self._to_card:
            steady = min(steady, self._to_card[0][0] - cycle)
        if self._rx_pending:
            steady = min(steady, self._rx_pending[0][0] - cycle)
        if self._await_kind is not None:
            if self.decoder.in_frame:
                if not self._rx_pending:
                    # CWT fires once cycle - last_byte_cycle > cwt
                    steady = min(steady, self.decoder.last_byte_cycle
                                 + self.params.cwt + 1 - cycle)
            elif (self._bwt_deadline is not None
                    and self._current_tx is None):
                # BWT fires once cycle > _bwt_deadline
                steady = min(steady, self._bwt_deadline + 1 - cycle)
        if self._state == "think":
            steady = min(steady, self._think_left)
        return max(steady, 0)

    def _steady_clock(self, cycles: int) -> None:
        if self._state == "think":
            self._think_left -= cycles

    def _start_next_command(self, cycle: int) -> None:
        if self._cmd_index >= len(self.commands):
            self._finish("complete")
            return
        from repro.workloads.apdu import command_apdu  # late: no cycle
        if self.decoder.in_frame:
            self.decoder.reset()
        command = self.commands[self._cmd_index]
        self._current_apdu = command_apdu(command, self._apdu_rng)
        self._begin_transfer(cycle)

    def _begin_transfer(self, cycle: int) -> None:
        """(Re)chunk the current APDU at the current IFS and send."""
        apdu = self._current_apdu
        self._chunks = [apdu[i:i + self._ifs]
                        for i in range(0, len(apdu), self._ifs)] or [[]]
        self._chunk_idx = 0
        self._resp_final_acked = False
        self._state = "await"
        self._send_chunk()

    def _send_chunk(self) -> None:
        chunk = self._chunks[self._chunk_idx]
        more = self._chunk_idx + 1 < len(self._chunks)
        block = i_block(self._seq_tx, chunk, more=more)
        frame = encode(block)
        self._last_i_frame = frame
        self._last_i_seq = self._seq_tx
        self._outbox.append((("i", self._seq_tx, False), list(frame)))
        self.report.frames_sent += 1
        self._await_kind = "chain_ack" if more else "response"
        self._bwt_deadline = None   # armed when the frame leaves

    # -- inbound frames ----------------------------------------------------

    def _handle_decode(self, result, cycle: int) -> None:
        if not result.ok:
            self.report.bad_frames += 1
            if self._await_kind is not None:
                self._recover("edc" if result.error == "lrc" else "other",
                              cycle)
            return
        block = result.block
        self.report.frames_received += 1
        if block.is_i:
            self._handle_i(block, cycle)
        elif block.is_r:
            self.report.r_blocks_received += 1
            self._handle_r(block, cycle)
        else:
            self._handle_s(block, cycle)

    def _handle_i(self, block: Block, cycle: int) -> None:
        if self._await_kind not in ("response", "chain_ack"):
            return   # stray response (e.g. post-abort): drop
        if block.seq != self._expected_card_seq:
            # duplicate: the card resent a block we already took
            self._queue_block(r_block(self._expected_card_seq),
                              ("r", R_OK))
            return
        if not self._resp_final_acked:
            # the first response block implicitly acks our final chunk
            self._seq_tx ^= 1
            self._resp_final_acked = True
        self._expected_card_seq ^= 1
        self._exchange_ok()
        if block.more:
            self._queue_block(r_block(self._expected_card_seq),
                              ("r", R_OK))
            self._await_kind = "response"
            self._bwt_deadline = None
            return
        self._command_done(cycle)

    def _handle_r(self, block: Block, cycle: int) -> None:
        if self._await_kind == "chain_ack":
            if block.r_seq != self._last_i_seq:
                # ack: card expects the other sequence number next
                self._seq_tx ^= 1
                self._exchange_ok()
                self._chunk_idx += 1
                self._send_chunk()
            else:
                self._recover("nack", cycle)
            return
        if self._await_kind == "response" and block.r_seq == self._last_i_seq:
            # the card never took our final chunk: retransmit it
            self._recover("nack", cycle)
            return
        # R while we await an S response (or a stray R): treat as noise
        if self._await_kind in ("resync", "ifs", "abort"):
            self._recover("other", cycle)

    def _handle_s(self, block: Block, cycle: int) -> None:
        if not block.s_response:
            if block.s_code == S_WTX and block.inf:
                # card asks for more time: grant and stretch the BWT
                multiplier = max(block.inf[0], 1)
                self._queue_block(
                    s_block(S_WTX, response=True, inf=block.inf),
                    ("s", S_WTX))
                self._bwt_budget = self.params.bwt * multiplier
                self._bwt_deadline = cycle + self._bwt_budget
                self.report.wtx_grants += 1
            return
        if self._await_kind == "resync" and block.s_code == S_RESYNC:
            self._resync_done(cycle)
        elif self._await_kind == "ifs" and block.s_code == S_IFS:
            self._ifs_done(cycle)
        elif self._await_kind == "abort" and block.s_code == S_ABORT:
            self._finish("degraded")

    # -- success paths -----------------------------------------------------

    def _exchange_ok(self) -> None:
        self._frame_attempts = 0
        self._close_window()

    def _command_done(self, cycle: int) -> None:
        self.report.commands_completed += 1
        self._cmd_index += 1
        self._await_kind = None
        self._bwt_deadline = None
        self._last_i_frame = None
        self._state = "think"
        self._think_left = self._gap_rng.randint(*self._think_range)

    # -- failure handling: the degradation ladder --------------------------

    def _recover(self, cause: str, cycle: int) -> None:
        params = self.params
        if self._await_kind == "abort":
            # terminal rung: bounded resends (not counted against the
            # session budget — the session is already being torn down),
            # then give up cleanly
            self._abort_attempts += 1
            if self._abort_attempts > params.retries_per_frame:
                self._finish("degraded")
            else:
                self._queue_block(s_block(S_ABORT), ("s", S_ABORT))
            return
        self.report.session_retries += 1
        self._frame_attempts += 1
        if self.report.session_retries >= params.session_retry_budget:
            self._start_abort()
            return
        if self._frame_attempts > params.retries_per_frame:
            self._escalate()
            return
        self._open_window("retransmit")
        if self._await_kind in ("resync", "ifs"):
            # retry the supervisory request itself
            code = S_RESYNC if self._await_kind == "resync" else S_IFS
            inf = (self._ifs,) if code == S_IFS else ()
            self._queue_block(s_block(code, inf=inf), ("s", code))
            return
        if cause in ("bwt", "nack") and self._last_i_frame is not None:
            # silence or explicit reject: our frame (or the card's
            # response to it) is gone — send it again
            self._retransmit_last_i()
        else:
            # broken inbound frame: ask the card to resend
            error = R_EDC if cause == "edc" else R_OTHER
            self._queue_block(r_block(self._expected_card_seq, error),
                              ("r", error))
            self._bwt_deadline = None   # re-armed when the R leaves

    def _escalate(self) -> None:
        params = self.params
        self._frame_attempts = 0
        if self._resyncs_done < params.resync_budget:
            self._start_resync()
        elif self._ifs > params.min_ifs:
            self._start_ifs(max(self._ifs // 2, params.min_ifs))
        else:
            self._start_abort()

    def _start_resync(self) -> None:
        self._switch_window("resync")
        self._resyncs_done += 1
        self._escalation = "resync"
        self._await_kind = "resync"
        self._bwt_deadline = None
        self._queue_block(s_block(S_RESYNC), ("s", S_RESYNC))

    def _resync_done(self, cycle: int) -> None:
        self.report.resyncs += 1
        self._seq_tx = 0
        self._expected_card_seq = 0
        self._frame_attempts = 0
        self._exchange_ok()
        self._await_kind = None
        self._begin_transfer(cycle)   # replay the current command

    def _start_ifs(self, new_ifs: int) -> None:
        self._switch_window("ifs")
        self._pending_ifs = new_ifs
        self._escalation = "ifs"
        self._await_kind = "ifs"
        self._bwt_deadline = None
        self._queue_block(s_block(S_IFS, inf=(new_ifs,)), ("s", S_IFS))

    def _ifs_done(self, cycle: int) -> None:
        self._ifs = self._pending_ifs
        self.report.ifs_renegotiations += 1
        self.report.ifs_final = self._ifs
        self._frame_attempts = 0
        self._exchange_ok()
        self._await_kind = None
        self._begin_transfer(cycle)

    def _start_abort(self) -> None:
        self._switch_window("abort")
        self._escalation = "abort"
        self._await_kind = "abort"
        self._abort_attempts = 0
        self._bwt_deadline = None
        self.report.aborts += 1
        self._queue_block(s_block(S_ABORT), ("s", S_ABORT))

    # -- session end -------------------------------------------------------

    def _finish(self, outcome: str) -> None:
        self._close_window()
        self.report.outcome = outcome
        self.report.commands_shed = (len(self.commands)
                                     - self.report.commands_completed)
        self._await_kind = None
        self._state = "done"
        self.done = True

    def finalize(self, endpoint=None) -> LinkReport:
        """Close the books (call once, after the run loop stops)."""
        if not self.done:
            self._close_window()
            self.report.outcome = "hung"
            self.report.commands_shed = (len(self.commands)
                                         - self.report.commands_completed)
            self.done = True
        now = self._probe()
        self.report.clean_energy_pj += now - self._segment_start
        self._segment_start = now
        self.report.total_energy_pj = now - self._probe_start
        self.report.cycles = self.clock.cycles
        self.report.uart_energy_pj = self.uart.energy_pj
        self.report.uart_rx_overruns = self.uart.rx_overruns
        self.report.uart_rx_dropped_gated = self.uart.rx_dropped_gated
        if self.channel is not None:
            self.report.channel_events = self.channel.stats()
        if endpoint is not None:
            self.report.card_retransmissions = endpoint.retransmissions
            self.report.retransmitted_bytes += endpoint.retransmitted_bytes
            self.report.frames_sent += endpoint.frames_sent
            self.report.r_blocks_sent += endpoint.r_blocks_sent
            self.report.cwt_timeouts += endpoint.cwt_timeouts
        return self.report
