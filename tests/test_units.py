import numpy as np
import pytest

from spinbh.units import UNITS, capacitance_to_mhz


@pytest.mark.parametrize("nu", [200.0, 12500.0, 15625.0, 1562.5, 18.4, 40.0, 5000.0])
def test_energy_round_trip_exact(nu):
    assert UNITS.joule_to_energy(UNITS.energy_to_joule(nu)) == nu


def test_capacitance_conversion_scale():
    # a ~97 fF island charges at ~200 MHz
    c = capacitance_to_mhz(1.0) / 200.0
    assert 90.0 < c < 110.0
    assert np.isclose(capacitance_to_mhz(c), 200.0, rtol=1e-12)


def test_capacitance_rejects_nonpositive():
    with pytest.raises(ZeroDivisionError):
        capacitance_to_mhz(0.0)
