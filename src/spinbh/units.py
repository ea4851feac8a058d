"""Unit convention and physical constants.

All energies in this package are stored as ordinary frequencies
nu = E / (2*pi*hbar) in MHz, and times in microseconds.  With that pair of
units the quantum phase accumulated by an energy eigenstate is
exp(-i * 2*pi * nu * t), with no leftover powers of ten: MHz * us = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 exact values.
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK = 6.62607015e-34  # J*s, equals 2*pi*hbar

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitConvention:
    """Fixed unit choices: energies as nu = E/(2*pi*hbar) in MHz, time in us."""

    energy_unit: str = "MHz"
    time_unit: str = "us"

    def energy_to_joule(self, nu_mhz: float) -> float:
        return nu_mhz * 1e6 * PLANCK

    def joule_to_energy(self, e_joule: float) -> float:
        return e_joule / PLANCK / 1e6


UNITS = UnitConvention()


def capacitance_to_mhz(c_femtofarad: float) -> float:
    """Charging-energy frequency e^2/(2C) / (2*pi*hbar) in MHz, C in fF."""
    if c_femtofarad <= 0.0:
        raise ZeroDivisionError("capacitance must be positive")
    e_joule = ELEMENTARY_CHARGE**2 / (2.0 * c_femtofarad * 1e-15)
    return UNITS.joule_to_energy(e_joule)
