"""Simulation time representation.

The kernel keeps time as an integer number of picoseconds.  Integer time
avoids the floating-point drift that plagues long clocked simulations and
matches the resolution model of SystemC 2.0 (``sc_time`` with a fixed
global resolution), which the paper's models were written against.
"""

from __future__ import annotations

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ps(value: float) -> int:
    """Return *value* picoseconds as kernel time units."""
    return int(round(value))


def ns(value: float) -> int:
    """Return *value* nanoseconds as kernel time units."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Return *value* microseconds as kernel time units."""
    return int(round(value * PS_PER_US))


def ms(value: float) -> int:
    """Return *value* milliseconds as kernel time units."""
    return int(round(value * PS_PER_MS))


def seconds(value: float) -> int:
    """Return *value* seconds as kernel time units."""
    return int(round(value * PS_PER_S))


def period_from_frequency_hz(frequency_hz: float) -> int:
    """Return the clock period, in kernel time units, of *frequency_hz*.

    Smart card cores of the paper's generation run in the single-digit
    MHz (contact-less) to tens of MHz (contact) range, so periods are
    comfortably representable.

    >>> period_from_frequency_hz(10e6)  # 10 MHz -> 100 ns
    100000
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return int(round(PS_PER_S / frequency_hz))


def format_time(time_ps: int) -> str:
    """Render kernel time in the most natural SI unit.

    >>> format_time(1500)
    '1.500 ns'
    """
    if time_ps == 0:
        return "0 s"
    magnitude = abs(time_ps)
    if magnitude < PS_PER_NS:
        return f"{time_ps} ps"
    if magnitude < PS_PER_US:
        return f"{time_ps / PS_PER_NS:.3f} ns"
    if magnitude < PS_PER_MS:
        return f"{time_ps / PS_PER_US:.3f} us"
    if magnitude < PS_PER_S:
        return f"{time_ps / PS_PER_MS:.3f} ms"
    return f"{time_ps / PS_PER_S:.3f} s"
