"""Energy/power unit helpers.

All energies in this package are picojoules (pJ), all capacitances
femtofarads (fF), all voltages volts.  A full-swing transition of a net
with capacitance C dissipates E = 1/2 * C * V^2 in the driver — the
standard CMOS dynamic-energy model Diesel-style estimators are built
on.  With C in fF and V in volts this conveniently yields pJ * 1e-3,
so :func:`transition_energy_pj` does the bookkeeping once.
"""

from __future__ import annotations

#: Core supply voltage of the modelled smart card process (V).  The
#: paper's platform is a 0.18 um-class secure MCU; 1.8 V core supply.
DEFAULT_VDD = 1.8


def transition_energy_pj(capacitance_ff: float,
                         vdd: float = DEFAULT_VDD) -> float:
    """Energy (pJ) of one full-swing transition of a *capacitance_ff* net.

    >>> round(transition_energy_pj(1000.0), 3)  # 1 pF at 1.8 V
    1.62
    """
    if capacitance_ff < 0:
        raise ValueError(f"negative capacitance: {capacitance_ff}")
    joules = 0.5 * capacitance_ff * 1e-15 * vdd * vdd
    return joules * 1e12


def average_power_mw(energy_pj: float, duration_ps: int) -> float:
    """Average power in milliwatts over *duration_ps*.

    Useful for checking the smart card supply-current budget the paper
    cites (GSM: 10 mA at 5 V).
    """
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    watts = (energy_pj * 1e-12) / (duration_ps * 1e-12)
    return watts * 1e3


def supply_current_ma(energy_pj: float, duration_ps: int,
                      vdd: float = DEFAULT_VDD) -> float:
    """Average supply current (mA) implied by an energy over a duration."""
    milliwatts = average_power_mw(energy_pj, duration_ps)
    return milliwatts / vdd
