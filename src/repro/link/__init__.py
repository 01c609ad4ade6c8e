"""ISO 7816-3 T=1 link layer over the modelled UART.

Framed APDU transport between a reader-side :class:`T1Host` and a
card-side :class:`T1CardEndpoint`, with a seeded :class:`NoisyChannel`
fault injector, CWT/BWT timeouts on the kernel clock, bounded
R-block retransmission, a RESYNC → IFS → ABORT degradation ladder,
and per-session energy attribution in :class:`LinkReport`.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "channel": ("NoisyChannel",),
    "endpoint": ("T1CardEndpoint",),
    "frame": ("Block", "DecodeResult", "FrameDecoder", "MAX_INF", "R_EDC",
              "R_OK", "R_OTHER", "S_ABORT", "S_IFS", "S_RESYNC", "S_WTX",
              "encode", "i_block", "lrc", "r_block", "s_block"),
    "host": ("LinkParams", "T1Host"),
    "report": ("LinkReport",),
    "session": ("run_link_session",),
})
