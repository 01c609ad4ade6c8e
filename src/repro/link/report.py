"""Per-session link accounting: outcome, retries, attributed energy.

The tentpole quantity is *energy cost of channel noise*: every
recovery episode (retransmission, resync, IFS renegotiation, abort)
opens an energy window bracketed by probe samples of the platform's
composite power model, so the session total partitions into a clean
bucket and per-kind recovery buckets.  The partition must telescope
back to the probe's total delta — :attr:`unaccounted_pj` is the
residual, and the campaign verdict requires it to be ~0 (float
round-off only).
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class LinkReport:
    """Everything one T=1 session did, counted and priced."""

    outcome: str = "incomplete"   # complete | degraded | hung
    commands_total: int = 0
    commands_completed: int = 0
    commands_shed: int = 0
    cycles: int = 0

    # frame traffic
    frames_sent: int = 0          # host -> card frames
    frames_received: int = 0      # card -> host frames decoded ok
    bad_frames: int = 0           # LRC/length/NAD rejects seen by host
    host_retransmissions: int = 0
    card_retransmissions: int = 0
    retransmitted_bytes: int = 0
    r_blocks_sent: int = 0
    r_blocks_received: int = 0

    # timeouts and the degradation ladder
    cwt_timeouts: int = 0
    bwt_timeouts: int = 0
    resyncs: int = 0
    ifs_renegotiations: int = 0
    ifs_final: int = 0
    wtx_grants: int = 0
    aborts: int = 0
    session_retries: int = 0
    retry_budget: int = 0

    # energy attribution (probe deltas, pJ)
    total_energy_pj: float = 0.0
    clean_energy_pj: float = 0.0
    recovery_energy_pj: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    uart_energy_pj: float = 0.0
    uart_rx_overruns: int = 0
    uart_rx_dropped_gated: int = 0

    # channel statistics
    channel_events: typing.Dict[str, int] = dataclasses.field(
        default_factory=dict)

    @property
    def recovery_total_pj(self) -> float:
        return sum(self.recovery_energy_pj.values())

    @property
    def unaccounted_pj(self) -> float:
        """Residual of the clean/recovery partition vs the probe total."""
        return self.total_energy_pj - (self.clean_energy_pj
                                       + self.recovery_total_pj)

    @property
    def accounted(self) -> bool:
        """Partition closes up to float round-off."""
        tolerance = 1e-6 * max(1.0, abs(self.total_energy_pj))
        return abs(self.unaccounted_pj) <= tolerance

    @property
    def retries_within_budget(self) -> bool:
        return self.session_retries <= self.retry_budget

    @property
    def clean_close(self) -> bool:
        """Session ended in a defined state with closed books."""
        return (self.outcome in ("complete", "degraded")
                and self.accounted and self.retries_within_budget)

    def add_recovery(self, kind: str, energy_pj: float) -> None:
        self.recovery_energy_pj[kind] = \
            self.recovery_energy_pj.get(kind, 0.0) + energy_pj
