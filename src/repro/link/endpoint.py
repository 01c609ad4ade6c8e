"""T=1 card endpoint: link firmware running over the modelled bus.

:class:`T1CardEndpoint` plays the card's link-layer interrupt handler
and dispatcher.  Unlike the host (a bench-side module poking the
UART's pads), the endpoint touches the UART only the way firmware
can: every byte is moved by a real bus transaction — ``DATA`` reads
to drain the RX FIFO, ``DATA`` writes to queue response bytes, a
``CTRL`` write to enable the port at boot — so link traffic is
priced by the active bus model and lands in the peripheral ledgers
like any other SFR access.  (It peeks FIFO levels instead of polling
STATUS, standing in for the RX IRQ / TX-ready lines; the interrupt
callback still fires into the interrupt controller on every received
byte.)

A completed command APDU is decoded by INS and expanded through the
existing :mod:`repro.workloads.apdu` handlers into a bus script —
the same EEPROM/RAM/TRNG traffic those commands always generated —
then answered with a seeded response APDU chained into I-blocks of
at most the negotiated IFS.  Long-running scripts request S(WTX)
waiting-time extensions with an exponentially growing multiplier.

Card-side robustness: its own CWT discards stalled partial frames
and NAKs, duplicate I-blocks are answered by retransmitting the last
response (link-level idempotence — the APDU is not re-executed), and
all retransmissions are bounded by ``card_retx_budget`` so a dead
wire leaves the card quiet, never babbling.
"""

from __future__ import annotations

import collections
import random
import typing

from repro.ec import data_read, data_write
from repro.kernel import STEADY_FOREVER, Module

from .frame import (Block, FrameDecoder, R_EDC, R_OK, R_OTHER, S_ABORT,
                    S_IFS, S_RESYNC, S_WTX, encode, i_block, r_block,
                    s_block)
from .host import LinkParams

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soc.smartcard import SmartCardPlatform

#: UART FIFO depth mirrored here to avoid an import cycle at runtime
_FIFO_DEPTH = 8


class T1CardEndpoint(Module):
    """Card-side protocol engine + APDU dispatcher."""

    def __init__(self, platform: "SmartCardPlatform",
                 params: typing.Optional[LinkParams] = None,
                 seed: typing.Union[int, str] = 0,
                 name: str = "t1card") -> None:
        super().__init__(platform.simulator, name)
        self.platform = platform
        self.uart = platform.uart
        self.bus = platform.bus
        self.clock = platform.clock
        self.params = params or LinkParams()
        self._script_rng = random.Random(f"{seed}/card/scripts")
        self._resp_rng = random.Random(f"{seed}/card/responses")
        self.decoder = FrameDecoder()

        # derived from the platform's UART, not the global constant:
        # a routed topology may place the UART behind a bridge, and
        # the endpoint must follow wherever the fabric mapped it
        self._uart_base = platform.uart.base_address
        self._data_addr = self._uart_base
        self._ctrl_addr = self._uart_base + 8

        # link state
        self.ifs = self.params.ifs
        self._expected_seq = 0        # host N(S) we accept next
        self._card_seq = 0            # our N(S) for the next I-block
        self._apdu: typing.List[int] = []
        self._last_i_frame: typing.Optional[typing.List[int]] = None
        self._last_i_seq = 0
        self._chunks: typing.List[typing.List[int]] = []
        self._chunk_idx = 0

        # execution state
        self._exec_queue: typing.Deque[
            typing.Tuple[int, typing.Any]] = collections.deque()
        self._gap_left = 0
        self._exec_command: typing.Optional[str] = None
        self._exec_started = 0
        self._wtx_multiplier = 1
        self._next_wtx_check = 0

        # bus + wire machinery
        self._txn = None
        self._txn_role: typing.Optional[str] = None
        self._tx_queue: typing.Deque[int] = collections.deque()
        self._booted = False

        # statistics merged into the session LinkReport
        self.frames_sent = 0
        self.r_blocks_sent = 0
        self.retransmissions = 0
        self.retransmitted_bytes = 0
        self.cwt_timeouts = 0
        self.frames_bad = 0
        self.wtx_requests = 0
        self.resyncs_answered = 0
        self.aborts_answered = 0
        self.commands_executed: typing.List[str] = []
        self.bus_transactions = 0

        self._process = self.method(
            self._on_clock, name="on_clock",
            sensitive=[self.clock.posedge_event], dont_initialize=True,
            steady=self._steady_clock)

    # -- send-side helpers -------------------------------------------------

    def _queue_frame(self, block: Block) -> None:
        frame = encode(block)
        self._tx_queue.extend(frame)
        self.frames_sent += 1
        if block.is_r:
            self.r_blocks_sent += 1
        if block.is_i:
            self._last_i_frame = frame
            self._last_i_seq = block.seq

    def _retransmit_last_i(self) -> bool:
        if (self._last_i_frame is None
                or self.retransmissions >= self.params.card_retx_budget):
            return False   # budget exhausted: go quiet, host escalates
        self._tx_queue.extend(self._last_i_frame)
        self.retransmissions += 1
        self.retransmitted_bytes += len(self._last_i_frame)
        self.frames_sent += 1
        return True

    # -- clock loop --------------------------------------------------------

    def _on_clock(self) -> None:
        cycle = self.clock.cycles
        self._step(cycle)
        process = self._process
        if process.steady_armed:
            # real work here changes only this endpoint's state and the
            # bus, whose process runs later in the cycle and hints for
            # itself: hint from the state this activation leaves
            process.steady_until = (process.run_count
                                    + self._steady_clocks(cycle + 1))

    def _step(self, cycle: int) -> None:
        if self._txn is not None:
            state = self.bus.issue(self._txn)
            if not state.finished:
                return
            txn, role = self._txn, self._txn_role
            self._txn = None
            self._txn_role = None
            self.bus_transactions += 1
            self._completed(txn, role, cycle)
            return
        self._check_cwt(cycle)
        self._maybe_request_wtx(cycle)
        self._start_transaction(cycle)

    def _steady_clocks(self, cycle: int) -> int:
        """Activations from *cycle* on, this one included, that issue
        nothing and fire no timer: they only count an execution gap
        down (see :meth:`_steady_clock`)."""
        if self._txn is not None or not self._booted:
            return 0
        steady = STEADY_FOREVER
        if self.decoder.in_frame and not self.uart.rx_fifo:
            # _check_cwt fires once cycle - last_byte_cycle > cwt
            steady = (self.decoder.last_byte_cycle + self.params.cwt
                      + 1 - cycle)
        if self._exec_command is not None and self._exec_queue:
            steady = min(steady, self._next_wtx_check - cycle)
        if self._tx_queue and len(self.uart.tx_fifo) < _FIFO_DEPTH:
            return 0
        if self._exec_queue:
            steady = min(steady, self._gap_left)
        elif self.uart.rx_fifo:
            return 0
        return max(steady, 0)

    def _steady_clock(self, cycles: int) -> None:
        if self._exec_queue:
            self._gap_left -= cycles

    def _start_transaction(self, cycle: int) -> None:
        if not self._booted:
            # firmware boot: enable the port + RX interrupt over the bus
            from repro.soc.uart import CTRL_ENABLE, CTRL_RX_IRQ
            self._booted = True
            self._issue(data_write(self._ctrl_addr,
                                   [CTRL_ENABLE | CTRL_RX_IRQ]), "ctrl")
            return
        if self._tx_queue and len(self.uart.tx_fifo) < _FIFO_DEPTH:
            # TX first: responses and acks must flow even under load
            self._issue(data_write(self._data_addr,
                                   [self._tx_queue.popleft()]), "tx")
            return
        if self._exec_queue:
            if self._gap_left > 0:
                self._gap_left -= 1
                return
            _, txn = self._exec_queue.popleft()
            if self._exec_queue:
                self._gap_left = self._exec_queue[0][0]
            self._issue(txn, "exec")
            return
        if self.uart.rx_fifo:
            self._issue(data_read(self._data_addr), "rx")

    def _issue(self, txn, role: str) -> None:
        self._txn = txn
        self._txn_role = role
        state = self.bus.issue(txn)
        if state.finished:
            self._txn = None
            self._txn_role = None
            self.bus_transactions += 1
            self._completed(txn, role, self.clock.cycles)

    def _completed(self, txn, role: str, cycle: int) -> None:
        if role == "rx" and not txn.error:
            self._on_rx_byte(txn.data[0] & 0xFF, cycle)
        elif (role == "exec" and not self._exec_queue
                and self._exec_command is not None):
            self._execution_done()

    # -- card-side timers --------------------------------------------------

    def _check_cwt(self, cycle: int) -> None:
        if (self.decoder.in_frame and not self.uart.rx_fifo
                and cycle - self.decoder.last_byte_cycle
                > self.params.cwt):
            self.decoder.reset()
            self.cwt_timeouts += 1
            self._queue_frame(r_block(self._expected_seq, R_OTHER))

    def _maybe_request_wtx(self, cycle: int) -> None:
        if self._exec_command is None or not self._exec_queue:
            return
        if cycle < self._next_wtx_check:
            return
        self.wtx_requests += 1
        self._queue_frame(s_block(S_WTX, inf=(self._wtx_multiplier,)))
        # exponential backoff: each extension doubles, capped
        granted = self._wtx_multiplier * self.params.bwt
        self._next_wtx_check = cycle + max(granted // 2, 1)
        self._wtx_multiplier = min(self._wtx_multiplier * 2,
                                   self.params.wtx_cap)

    # -- inbound bytes and blocks ------------------------------------------

    def _on_rx_byte(self, byte: int, cycle: int) -> None:
        result = self.decoder.feed(byte, cycle)
        if result is None:
            return
        if not result.ok:
            self.frames_bad += 1
            error = R_EDC if result.error == "lrc" else R_OTHER
            self._queue_frame(r_block(self._expected_seq, error))
            return
        self._handle_block(result.block, cycle)

    def _handle_block(self, block: Block, cycle: int) -> None:
        if block.is_i:
            self._handle_i(block, cycle)
        elif block.is_r:
            self._handle_r(block)
        else:
            self._handle_s(block)

    def _handle_i(self, block: Block, cycle: int) -> None:
        if block.seq != self._expected_seq:
            # duplicate of a block we already accepted: our ack or
            # response got lost — resend it, never re-execute
            if not self._retransmit_last_i():
                self._queue_frame(r_block(self._expected_seq, R_OK))
            return
        self._apdu.extend(block.inf)
        self._expected_seq ^= 1
        # a fresh I-block implicitly acks whatever we sent last; the
        # old response must never be retransmitted past this point
        self._chunks = []
        self._chunk_idx = 0
        self._last_i_frame = None
        if block.more:
            self._queue_frame(r_block(self._expected_seq, R_OK))
            return
        self._dispatch_apdu(cycle)

    def _handle_r(self, block: Block) -> None:
        if self._chunks and block.r_seq != self._last_i_seq:
            # chain ack: the host expects our next sequence number
            self._chunk_idx += 1
            if self._chunk_idx < len(self._chunks):
                self._send_chunk()
            return
        if not self._retransmit_last_i():
            # nothing to resend (e.g. the host's command frame was
            # lost): tell the host which I-block we are waiting for —
            # one R answers one R, so this cannot ping-pong
            self._queue_frame(r_block(self._expected_seq, R_OK))

    def _handle_s(self, block: Block) -> None:
        if block.s_response:
            return   # WTX grant: nothing to do, the host stretched BWT
        if block.s_code == S_RESYNC:
            self._reset_link()
            self.resyncs_answered += 1
            self._queue_frame(s_block(S_RESYNC, response=True))
        elif block.s_code == S_IFS and block.inf:
            self.ifs = max(block.inf[0], 1)
            self._queue_frame(s_block(S_IFS, response=True,
                                      inf=block.inf))
        elif block.s_code == S_ABORT:
            self._reset_link()
            self.aborts_answered += 1
            self._queue_frame(s_block(S_ABORT, response=True))

    def _reset_link(self) -> None:
        self._expected_seq = 0
        self._card_seq = 0
        self._apdu = []
        self._chunks = []
        self._chunk_idx = 0
        self._last_i_frame = None
        self._exec_queue.clear()
        self._exec_command = None
        self.decoder.reset()

    # -- APDU dispatch ------------------------------------------------------

    def _dispatch_apdu(self, cycle: int) -> None:
        from repro.workloads.apdu import COMMAND_BY_INS, command_script
        from repro.tlm.master import normalise_script
        apdu, self._apdu = self._apdu, []
        command = COMMAND_BY_INS.get(apdu[1] if len(apdu) > 1 else -1)
        if command is None:
            # unknown INS (a flipped bit the LRC happened to miss):
            # answer 0x6D00 without touching the bus
            self._respond([0x6D, 0x00])
            return
        self.commands_executed.append(command)
        script = [(gap, self._stage_uart_access(txn)) for gap, txn
                  in normalise_script(command_script(command,
                                                     self._script_rng))]
        self._exec_queue = collections.deque(script)
        self._gap_left = self._exec_queue[0][0] if self._exec_queue else 0
        self._exec_command = command
        self._exec_started = cycle
        self._wtx_multiplier = 1
        self._next_wtx_check = cycle + self.params.wtx_threshold
        if not self._exec_queue:   # degenerate empty script
            self._execution_done()

    def _stage_uart_access(self, txn):
        """Redirect a handler's raw UART accesses to a RAM staging
        buffer.

        The legacy expanders predate the link layer and model their
        response bytes as direct ``DATA`` writes; under T=1 the link
        layer owns the port, so the firmware stages those bytes in RAM
        instead (same transaction kind, size and cost class — only the
        decoded slave changes) and the real response travels in
        I-blocks.
        """
        from repro.soc.smartcard import RAM_BASE
        if not self._uart_base <= txn.address < self._uart_base + 16:
            return txn
        staged = txn.clone()
        staged.address = (RAM_BASE + 0x380
                          + (txn.address - self._uart_base))
        return staged

    def _execution_done(self) -> None:
        from repro.workloads.apdu import response_apdu
        command, self._exec_command = self._exec_command, None
        if command is None:
            return
        self._respond(response_apdu(command, self._resp_rng))

    def _respond(self, payload: typing.List[int]) -> None:
        self._chunks = [payload[i:i + self.ifs]
                        for i in range(0, len(payload), self.ifs)] or [[]]
        self._chunk_idx = 0
        self._send_chunk()

    def _send_chunk(self) -> None:
        chunk = self._chunks[self._chunk_idx]
        more = self._chunk_idx + 1 < len(self._chunks)
        self._queue_frame(i_block(self._card_seq, chunk, more=more))
        self._card_seq ^= 1
