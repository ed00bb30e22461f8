import math

import pytest

from reductionlab import phenomenology as ph
from reductionlab.phenomenology import (
    AIR_STP,
    DimensionError,
    INTERSTELLAR,
    MOON_SURFACE,
    accretion_reduction_for_area,
    decoherence_rate,
    decoherence_rate_general,
    mass_accretion_rate,
    preset_from_pressure,
    qty,
    scenario_table,
    shot_noise_energy,
    t_reduce,
    t_reduce_accretion,
    thermal_fluctuation,
)


def test_unit_roundtrips():
    for value, unit in [(3.2, "MeV"), (1.7, "J"), (0.4, "m2"), (250.0, "K"),
                        (2.0, "min"), (5.0, "J/K")]:
        q = qty(value, unit)
        assert abs(q.to(unit) - value) <= 1e-12 * abs(value)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        qty(1, "MeV") + qty(1, "s")
    with pytest.raises(DimensionError):
        t_reduce(qty(1, "s"))
    with pytest.raises(DimensionError):
        qty(1, "MeV").to("s")
    with pytest.raises(DimensionError):
        thermal_fluctuation(qty(300, "K"), qty(1, "MeV"))


def test_quantity_algebra():
    e = qty(2, "MeV")
    t = qty(4, "s")
    rate = e / t
    assert rate.dim == (1, -1, 0, 0)
    assert abs((rate * t).to("MeV") - 2.0) < 1e-15
    with pytest.raises(DimensionError):
        t ** 0.5  # fractional exponent leaves non-integer dimension
    sq = t * t
    assert abs(sq.sqrt().to("s") - 4.0) < 1e-12


def test_t_reduce_quadratic_scaling():
    t1 = t_reduce(qty(1.0, "MeV")).to("s")
    t2 = t_reduce(qty(2.0, "MeV")).to("s")
    assert abs(t1 / t2 - 4.0) < 1e-12
    with pytest.raises(ValueError):
        t_reduce(qty(0.0, "MeV"))


def test_accretion_exponent_two_thirds():
    area = qty(1.0, "cm2")
    m1 = mass_accretion_rate(AIR_STP)
    ta = t_reduce_accretion(area, m1).t_r.to("s")
    tb = t_reduce_accretion(area, 8.0 * m1).t_r.to("s")
    assert abs(ta / tb - 4.0) < 1e-9


def test_accretion_consistent_with_direct_law():
    # substituting ΔE = A·M·t_R into the direct law reproduces the
    # accretion-limited form identically
    for area_cm2, preset in [(1.0, AIR_STP), (7.3, MOON_SURFACE), (0.02, INTERSTELLAR)]:
        area = qty(area_cm2, "cm2")
        est = accretion_reduction_for_area(preset, area)
        de = area * mass_accretion_rate(preset) * est.t_r
        assert abs(t_reduce(de).to("s") / est.t_r.to("s") - 1.0) <= 1e-12


def test_air_stp_reference_numbers():
    est = accretion_reduction_for_area(AIR_STP, qty(1.0, "cm2"))
    assert est.valid


def test_validity_flag_when_no_molecule_lands():
    est = accretion_reduction_for_area(MOON_SURFACE, qty(1.0, "cm2"))
    assert est.molecules < 1.0
    assert not est.valid


def test_thermal_scalings():
    t = qty(298.0, "K")
    cv = qty(4.18, "J/K")
    base = thermal_fluctuation(t, cv)
    quad = thermal_fluctuation(t, 4.0 * cv)
    assert abs(quad.to("GeV") / base.to("GeV") - 2.0) < 1e-12


def test_decoherence_rates():
    assert decoherence_rate(qty(1e10, "1/s")).to("1/s") == 5e9
    assert decoherence_rate_general(qty(1e10, "1/s"), 1.0).to("1/s") == 0.0
    assert abs(decoherence_rate_general(qty(2e10, "1/s"), 0.5 + 0.1j).to("1/s")
               - 1e10) < 1e-3
    with pytest.raises(ValueError):
        decoherence_rate_general(qty(1e10, "1/s"), 1.5)
    with pytest.raises(DimensionError):
        decoherence_rate(qty(1e10, "s"))


def test_shot_noise():
    est = shot_noise_energy(6e7, 1e4)
    assert abs(est.delta_n - math.sqrt(6e11)) < 1e-3
    est1 = shot_noise_energy(1e6, 1.0)
    assert abs(est1.delta_n - 1000.0) < 1e-9
    est4 = shot_noise_energy(4e6, 1.0)
    assert abs(est4.delta_n / est1.delta_n - 2.0) < 1e-12


def test_preset_pressure_scaling_linear():
    a = preset_from_pressure(1e-10)
    b = preset_from_pressure(1e-12)
    ratio = b.accretion_time_cm2.value / a.accretion_time_cm2.value
    assert abs(ratio - 100.0) < 1e-9
    assert abs(AIR_STP.accretion_time_cm2.value - 3e-24) < 1e-30
    assert abs(MOON_SURFACE.accretion_time_cm2.value - 3e-8) < 1e-14


def test_scenario_table_shape():
    rows = scenario_table()
    names = {r.preset for r in rows}
    assert names == {"air-stp", "moon", "interstellar", "intergalactic"}
    air = next(r for r in rows if r.preset == "air-stp")
    assert air.t_r_at_1cm2.to("s") < 1e-18


def test_quantity_comparison_and_format():
    assert qty(1, "MeV") < qty(2, "MeV")
    with pytest.raises(DimensionError):
        qty(1, "MeV") < qty(1, "s")
    assert f"{qty(1.5, 'MeV'):.1e}" == "1.5e+06"


def test_unknown_unit():
    with pytest.raises(DimensionError):
        qty(1.0, "furlong")


def test_paper_values_table():
    rows = ph.PAPER_VALUES
    assert len({r.name for r in rows}) == len(rows)
    # criteria 01–05 own every row, each row once, and each criterion some row
    assert sorted({r.criterion for r in rows}) == [1, 2, 3, 4, 5]
    bounds = {r.name: (r.lo, r.hi) for r in rows}
    assert bounds.pop("eq23-water-14GeV") == (11.2, 16.8)
    assert bounds.pop("eq21-2.8MeV") == (1 - 1e-12, 1 + 1e-12)
    assert all(bounds[r.name] == (r.source / 2, 2 * r.source) for r in rows if r.name in bounds)
    for r in rows:
        value, ok = r.evaluate()
        assert ok and r.lo <= value <= r.hi and r.lo <= r.source <= r.hi, (r.name, value)
