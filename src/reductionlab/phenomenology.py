"""Unit-aware evaluation of the closed-form reduction-time estimates.

The simulation modules are dimensionless; this module is the one bridge to
SI-style numbers.  Quantities carry exponents over the base dimensions
(energy, time, area, temperature) in fixed base units (eV, s, cm², K), and
arithmetic refuses mismatched dimensions.  The central scale is the
reduction-time law t_R ~ (2.8 MeV / ΔE)² seconds, whose 2.8 MeV constant
absorbs the Planck-scale stochasticity strength; everything else — the
accretion-limited form, thermal and shot-noise energy spreads, and the
decoherence-rate comparison — is built around it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .linalg import write_csv

__all__ = [
    "Dim",
    "DimensionError",
    "Quantity",
    "qty",
    "DIMENSIONLESS",
    "ENERGY",
    "TIME",
    "AREA",
    "INVERSE_TIME",
    "TEMPERATURE",
    "HEAT_CAPACITY",
    "MASS_RATE_PER_AREA",
    "K_BOLTZMANN",
    "PROTON_MASS",
    "ELECTRON_MASS",
    "NITROGEN_MASS",
    "REDUCTION_CONSTANT",
    "t_reduce",
    "AccretionEstimate",
    "t_reduce_accretion",
    "thermal_fluctuation",
    "decoherence_rate",
    "decoherence_rate_general",
    "ShotNoiseEstimate",
    "shot_noise_energy",
    "ScenarioPreset",
    "AIR_STP",
    "MOON_SURFACE",
    "INTERSTELLAR",
    "INTERGALACTIC",
    "PRESETS",
    "preset_from_pressure",
    "mass_accretion_rate",
    "AreaEstimate",
    "area_for_reduction_time",
    "accretion_reduction_for_area",
    "crossover_area",
    "ScenarioRow",
    "scenario_table",
    "scenario_table_csv",
    "PaperValue",
    "PAPER_VALUES",
]

# dimension exponents: (energy, time, area, temperature)
Dim = tuple

DIMENSIONLESS: Dim = (0, 0, 0, 0)
ENERGY: Dim = (1, 0, 0, 0)
TIME: Dim = (0, 1, 0, 0)
AREA: Dim = (0, 0, 1, 0)
INVERSE_TIME: Dim = (0, -1, 0, 0)
TEMPERATURE: Dim = (0, 0, 0, 1)
HEAT_CAPACITY: Dim = (1, 0, 0, -1)
MASS_RATE_PER_AREA: Dim = (1, -1, -1, 0)

_DIM_NAMES = {
    DIMENSIONLESS: "dimensionless",
    ENERGY: "energy",
    TIME: "time",
    AREA: "area",
    INVERSE_TIME: "inverse-time",
    TEMPERATURE: "temperature",
    HEAT_CAPACITY: "heat-capacity",
    MASS_RATE_PER_AREA: "mass-rate-per-area",
}


class DimensionError(ValueError):
    """Raised on arithmetic between incompatible dimensions."""


def _dim_name(dim: Dim) -> str:
    return _DIM_NAMES.get(dim, f"dim{dim}")


@dataclass(frozen=True)
class Quantity:
    """A number with physical dimension, stored in base units (eV, s, cm², K)."""

    value: float
    dim: Dim = DIMENSIONLESS

    def _require(self, dim: Dim, what: str) -> None:
        if self.dim != dim:
            raise DimensionError(
                f"{what} must be {_dim_name(dim)}, got {_dim_name(self.dim)}")

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity) or other.dim != self.dim:
            raise DimensionError("can only add quantities of identical dimension")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity) or other.dim != self.dim:
            raise DimensionError("can only subtract quantities of identical dimension")
        return Quantity(self.value - other.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            dim = tuple(a + b for a, b in zip(self.dim, other.dim))
            return Quantity(self.value * other.value, dim)
        return Quantity(self.value * float(other), self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            dim = tuple(a - b for a, b in zip(self.dim, other.dim))
            return Quantity(self.value / other.value, dim)
        return Quantity(self.value / float(other), self.dim)

    def __rtruediv__(self, other):
        if isinstance(other, Quantity):
            return other.__truediv__(self)
        dim = tuple(-a for a in self.dim)
        return Quantity(float(other) / self.value, dim)

    def __pow__(self, exponent) -> "Quantity":
        dim = tuple(a * exponent for a in self.dim)
        rounded = tuple(round(x) for x in dim)
        if any(abs(a - b) > 1e-9 for a, b in zip(dim, rounded)):
            raise DimensionError(
                f"power {exponent} gives non-integer dimension exponents {dim}")
        return Quantity(self.value ** exponent, rounded)

    def sqrt(self) -> "Quantity":
        return self ** 0.5

    def to(self, unit: str) -> float:
        factor, dim = _UNITS[unit]
        if dim != self.dim:
            raise DimensionError(
                f"cannot express {_dim_name(self.dim)} in {unit} ({_dim_name(dim)})")
        return self.value / factor

    def __lt__(self, other: "Quantity") -> bool:
        if not isinstance(other, Quantity) or other.dim != self.dim:
            raise DimensionError("can only compare identical dimensions")
        return self.value < other.value

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)


# Conversion factors into base units; one pinned table, round-trips exact.
_EV_PER_JOULE = 1.0 / 1.602176634e-19
_UNITS: dict[str, tuple[float, Dim]] = {
    "eV": (1.0, ENERGY),
    "keV": (1e3, ENERGY),
    "MeV": (1e6, ENERGY),
    "GeV": (1e9, ENERGY),
    "J": (_EV_PER_JOULE, ENERGY),
    "s": (1.0, TIME),
    "min": (60.0, TIME),
    "hour": (3600.0, TIME),
    "year": (3.1557e7, TIME),
    "cm2": (1.0, AREA),
    "m2": (1e4, AREA),
    "K": (1.0, TEMPERATURE),
    "1/s": (1.0, INVERSE_TIME),
    "J/K": (_EV_PER_JOULE, HEAT_CAPACITY),
    "eV/K": (1.0, HEAT_CAPACITY),
    "MeV/s/cm2": (1e6, MASS_RATE_PER_AREA),
    "s*cm2": (1.0, (0, 1, 1, 0)),
    "": (1.0, DIMENSIONLESS),
}


def qty(value: float, unit: str = "") -> Quantity:
    """Build a Quantity from a value and a named unit."""
    if unit not in _UNITS:
        raise DimensionError(f"unknown unit {unit!r}; known: {sorted(_UNITS)}")
    factor, dim = _UNITS[unit]
    return Quantity(float(value) * factor, dim)


# Pinned physical constants (the estimates tolerate the rounding used in
# one-significant-figure source values).
K_BOLTZMANN = qty(8.617e-5, "eV/K")
PROTON_MASS = qty(938.272, "MeV")
ELECTRON_MASS = qty(0.5110, "MeV")
NITROGEN_MASS = qty(28 * 931.494, "MeV")       # N₂ in atomic mass units
REDUCTION_CONSTANT = qty(2.8, "MeV")           # Planck-scale σ folded in
_SECOND = qty(1.0, "s")
_LIGHT_SPEED_CM_S = 2.99792458e10


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def t_reduce(de: Quantity) -> Quantity:
    """Reduction time (2.8 MeV / ΔE)² seconds for energy spread ΔE.  Raises
    ValueError unless ΔE, and the t_R it gives, are finite and positive."""
    de._require(ENERGY, "energy spread")
    if not _finite_positive(de.value):
        raise ValueError(f"energy spread must be finite and positive, got {de.value} eV")
    ratio = REDUCTION_CONSTANT / de
    t_r = ratio * ratio * _SECOND
    if not _finite_positive(t_r.value):
        raise ValueError(f"energy spread {de.value} eV gives t_R = {t_r.value} s, "
                         f"outside the float range")
    return t_r


@dataclass(frozen=True)
class AccretionEstimate:
    """Accretion-limited reduction time and the molecules gathered in it."""

    t_r: Quantity
    molecules: float
    valid: bool          # at least one molecule lands within t_r


def t_reduce_accretion(area: Quantity, mass_rate: Quantity,
                       species_mass: Quantity = NITROGEN_MASS) -> AccretionEstimate:
    """t_R = (2.8 MeV/(A·M))^{2/3} s^{1/3} with M the mass accretion rate
    per unit area; self-consistent with the direct law under ΔE = A·M·t_R.
    Raises ValueError unless the area, and the t_R and molecule count it
    gives, are finite and positive."""
    area._require(AREA, "area")
    if not _finite_positive(area.value):
        raise ValueError(f"area must be finite and positive, got {area.value} cm2")
    mass_rate._require(MASS_RATE_PER_AREA, "mass accretion rate")
    species_mass._require(ENERGY, "species mass")
    x = REDUCTION_CONSTANT / (area * mass_rate)      # dimension: time
    t_r = (x * x * _SECOND) ** (1.0 / 3.0)
    accreted_energy = area * mass_rate * t_r
    molecules = (accreted_energy / species_mass).value
    if not (_finite_positive(t_r.value) and _finite_positive(molecules)):
        raise ValueError(f"area {area.value} cm2 gives t_R = {t_r.value} s and "
                         f"{molecules} molecules, outside the float range")
    return AccretionEstimate(t_r=t_r, molecules=molecules, valid=molecules >= 1.0)


def thermal_fluctuation(temperature: Quantity, heat_capacity: Quantity) -> Quantity:
    """The canonical-ensemble energy spread ΔE_rms, with ⟨ΔE²⟩ = k_B T² C_V."""
    temperature._require(TEMPERATURE, "temperature")
    heat_capacity._require(HEAT_CAPACITY, "heat capacity")
    if temperature.value <= 0 or heat_capacity.value <= 0:
        raise ValueError("temperature and heat capacity must be positive")
    return (K_BOLTZMANN * temperature * temperature * heat_capacity).sqrt()


def decoherence_rate(scattering_rate: Quantity) -> Quantity:
    """Weak-scattering (optical-theorem) limit: half the scattering rate."""
    scattering_rate._require(INVERSE_TIME, "scattering rate")
    if scattering_rate.value < 0:
        raise ValueError("scattering rate must be nonnegative")
    return 0.5 * scattering_rate


def decoherence_rate_general(n_scatt: Quantity, s_overlap: complex) -> Quantity:
    """General off-diagonal decay rate N_scatt · Re[1 − ⟨S⟩]."""
    n_scatt._require(INVERSE_TIME, "scattering rate")
    if abs(s_overlap) > 1.0 + 1e-12:
        raise ValueError("|⟨S⟩| cannot exceed 1")
    return n_scatt * (1.0 - s_overlap).real


@dataclass(frozen=True)
class ShotNoiseEstimate:
    delta_n: float
    delta_e: Quantity
    t_r: Quantity


def shot_noise_energy(n_charges: float, gain: float,
                      carrier_mass: Quantity = ELECTRON_MASS) -> ShotNoiseEstimate:
    """Amplified charge-count fluctuation ΔN = √(N·G) with its energy spread
    and reduction time."""
    carrier_mass._require(ENERGY, "carrier mass")
    if n_charges < 0 or gain < 1:
        raise ValueError("need n_charges ≥ 0 and gain ≥ 1")
    delta_n = math.sqrt(n_charges * gain)
    delta_e = delta_n * carrier_mass
    return ShotNoiseEstimate(delta_n=delta_n, delta_e=delta_e, t_r=t_reduce(delta_e))


# --- environment scenarios ---------------------------------------------------

# Anchors from the molecular-flux table: seconds for one molecule to land on
# one cm² at the given pressure (sticking probability of order one).
_ANCHOR_HIGH = (760.0, 3e-24)
_ANCHOR_LOW = (1e-13, 3e-8)


@dataclass(frozen=True)
class ScenarioPreset:
    """Environment characterized by the single-molecule accretion time per
    cm² and the mass of the accreting species."""

    name: str
    accretion_time_cm2: Quantity     # dimension time·area
    species_mass: Quantity


def preset_from_pressure(torr: float, name: str = "custom") -> ScenarioPreset:
    """Nitrogen at the given pressure: the single-molecule accretion time
    scaled linearly in pressure from the nearest tabulated anchor."""
    if torr <= 0:
        raise ValueError("pressure must be positive")
    anchor = min((_ANCHOR_HIGH, _ANCHOR_LOW),
                 key=lambda a: abs(math.log10(torr / a[0])))
    tau = anchor[1] * anchor[0] / torr
    return ScenarioPreset(name=name, accretion_time_cm2=qty(tau, "s*cm2"),
                          species_mass=NITROGEN_MASS)


def _intergalactic_preset() -> ScenarioPreset:
    """Ionized hydrogen at 0.23 m⁻³ and 10⁴ K; flux n·v_rms with the
    velocity factor otherwise neglected (stated to overestimate by at most
    a factor of 2–3)."""
    density_cm3 = 0.23e-6
    kt = (K_BOLTZMANN * qty(1e4, "K")).value          # eV
    v_rms = _LIGHT_SPEED_CM_S * math.sqrt(3.0 * kt / PROTON_MASS.value)
    tau = 1.0 / (density_cm3 * v_rms)
    return ScenarioPreset(name="intergalactic", accretion_time_cm2=qty(tau, "s*cm2"),
                          species_mass=PROTON_MASS)


AIR_STP = preset_from_pressure(760.0, "air-stp")
MOON_SURFACE = preset_from_pressure(1e-13, "moon")
INTERSTELLAR = preset_from_pressure(1e-18, "interstellar")
INTERGALACTIC = _intergalactic_preset()

PRESETS = {p.name: p for p in (AIR_STP, MOON_SURFACE, INTERSTELLAR, INTERGALACTIC)}


def mass_accretion_rate(preset: ScenarioPreset) -> Quantity:
    """Mass landed per unit time per unit area in the given environment."""
    return preset.species_mass / preset.accretion_time_cm2


@dataclass(frozen=True)
class AreaEstimate:
    area: Quantity
    molecules: float      # count needed for the target energy spread (≥ 1)


def area_for_reduction_time(preset: ScenarioPreset, t_r: Quantity) -> AreaEstimate:
    """Minimum apparatus area for which accretion drives reduction in t_r.

    The target energy spread is 2.8 MeV/√(t_r/s); the required molecule
    count is that spread over the species mass (at least one), and the
    area is what gathers that count within t_r.
    """
    t_r._require(TIME, "reduction time")
    if t_r.value <= 0:
        raise ValueError("reduction time must be positive")
    de_needed = REDUCTION_CONSTANT * (_SECOND / t_r) ** 0.5
    molecules = max(1.0, (de_needed / preset.species_mass).value)
    area = molecules * preset.accretion_time_cm2 / t_r
    return AreaEstimate(area=area, molecules=molecules)


def accretion_reduction_for_area(preset: ScenarioPreset, area: Quantity) -> AccretionEstimate:
    """Accretion-limited reduction time of an apparatus of the given area."""
    return t_reduce_accretion(area, mass_accretion_rate(preset),
                              species_mass=preset.species_mass)


def crossover_area() -> Quantity:
    """Area at which the reduction rate meets the decoherence rate in air.

    The decoherence rate of the accreted molecules is half the ambient
    collision rate, 10¹⁰/s, per molecule times their number; the ratio of
    reduction to decoherence rate scales as area^{1/3}, so the crossover
    follows from scaling the 1 cm² ratio down to one.
    """
    reference_area = qty(1.0, "cm2")
    est = accretion_reduction_for_area(AIR_STP, reference_area)
    d_rate = decoherence_rate(qty(1e10, "1/s")) * est.molecules
    reduction_rate = 1.0 / est.t_r
    ratio = (reduction_rate / d_rate).value
    return reference_area * ratio ** (-3.0)


@dataclass(frozen=True)
class ScenarioRow:
    preset: str
    area_fast: Quantity          # area for t_R = 1e-8 s
    molecules_fast: float
    area_relaxed: Quantity       # area for t_R = 3e-4 s
    molecules_relaxed: float
    t_r_at_1cm2: Quantity
    molecules_at_1cm2: float


def scenario_table() -> list[ScenarioRow]:
    """Reduction-time table across the PRESETS environments."""
    rows = []
    for p in PRESETS.values():
        fast = area_for_reduction_time(p, qty(1e-8, "s"))
        relaxed = area_for_reduction_time(p, qty(3e-4, "s"))
        ref = accretion_reduction_for_area(p, qty(1.0, "cm2"))
        rows.append(ScenarioRow(
            preset=p.name,
            area_fast=fast.area, molecules_fast=fast.molecules,
            area_relaxed=relaxed.area, molecules_relaxed=relaxed.molecules,
            t_r_at_1cm2=ref.t_r, molecules_at_1cm2=ref.molecules,
        ))
    return rows


def scenario_table_csv(path, rows=None) -> None:
    rows = scenario_table() if rows is None else rows
    write_csv(path, "preset,area_fast_cm2,molecules_fast,area_relaxed_cm2,"
              "molecules_relaxed,t_r_1cm2_s,molecules_1cm2",
              ((r.preset, r.area_fast.to("cm2"), r.molecules_fast,
                r.area_relaxed.to("cm2"), r.molecules_relaxed,
                r.t_r_at_1cm2.to("s"), r.molecules_at_1cm2) for r in rows))


# --- the paper's values ------------------------------------------------------


@dataclass(frozen=True)
class PaperValue:
    """One of the paper's values: the acceptance criterion (1–5) that checks
    it, its name and computation, its rounded source value, and the closed
    interval [lo, hi] that the criterion accepts, all in the unit the
    computation returns."""

    criterion: int
    name: str
    compute: Callable[[], float]
    source: float
    lo: float
    hi: float

    def evaluate(self) -> tuple[float, bool]:
        """The computed value, and whether it lies in [lo, hi]."""
        value = float(self.compute())
        return value, self.lo <= value <= self.hi


def _within_two(criterion: int, name: str, compute, source: float) -> PaperValue:
    """A value its criterion accepts within a factor of 2 of the source."""
    return PaperValue(criterion, name, compute, source, source / 2, 2 * source)


def _air() -> AccretionEstimate:
    return accretion_reduction_for_area(AIR_STP, qty(1, "cm2"))


def _area(preset: ScenarioPreset, t_r_s: float) -> AreaEstimate:
    return area_for_reduction_time(preset, qty(t_r_s, "s"))


PAPER_VALUES = (
    PaperValue(1, "eq21-2.8MeV", lambda: t_reduce(qty(2.8, "MeV")).to("s"), 1.0,
               1 - 1e-12, 1 + 1e-12),
    _within_two(1, "eq21-proton", lambda: t_reduce(PROTON_MASS).to("s"), 1e-5),
    _within_two(1, "eq21-nitrogen", lambda: t_reduce(NITROGEN_MASS).to("s"), 1e-8),
    _within_two(1, "eq21-squid", lambda: t_reduce(qty(8.6e-6, "eV")).to("s"), 1e23),
    _within_two(1, "eq21-fullerene", lambda: t_reduce(qty(0.23, "eV")).to("s"), 1.5e14),
    _within_two(1, "eq21-hf178", lambda: t_reduce(qty(2.4, "MeV")).to("s"), 1.0),
    _within_two(1, "eq21-ta180", lambda: t_reduce(qty(75, "keV")).to("min"), 23.0),
    _within_two(2, "eq27-air-tr", lambda: _air().t_r.to("s"), 5e-19),
    _within_two(2, "eq27-air-molecules", lambda: _air().molecules, 1.5e5),
    _within_two(2, "eq27-moon-area", lambda: _area(MOON_SURFACE, 1e-8).area.to("cm2"), 3.0),
    _within_two(2, "eq27-interstellar-area",
                lambda: _area(INTERSTELLAR, 1e-8).area.to("m2"), 30.0),
    _within_two(2, "eq27-intergalactic-area",
                lambda: _area(INTERGALACTIC, 1e-8).area.to("m2"), 8e5),
    _within_two(2, "eq27-intergalactic-protons",
                lambda: _area(INTERGALACTIC, 1e-8).molecules, 28.0),
    _within_two(2, "eq27-interstellar-relaxed",
                lambda: _area(INTERSTELLAR, 3e-4).area.to("cm2"), 10.0),
    _within_two(2, "eq27-intergalactic-relaxed",
                lambda: _area(INTERGALACTIC, 3e-4).area.to("m2"), 1.0),
    PaperValue(3, "eq23-water-14GeV",
               lambda: thermal_fluctuation(qty(298, "K"), qty(4.18, "J/K")).to("GeV"),
               14.0, 11.2, 16.8),
    _within_two(4, "eq32-air-decoherence",
                lambda: (decoherence_rate(qty(1e10, "1/s")) * _air().molecules).to("1/s"),
                0.7e15),
    _within_two(4, "eq32-air-reduction-rate", lambda: (1.0 / _air().t_r).to("1/s"), 2e18),
    _within_two(4, "eq32-crossover-area", lambda: crossover_area().to("cm2"), 4e-11),
    _within_two(5, "shot-delta-n", lambda: shot_noise_energy(6e7, 1e4).delta_n, 8e5),
    _within_two(5, "shot-delta-e", lambda: shot_noise_energy(6e7, 1e4).delta_e.to("GeV"), 4e2),
    _within_two(5, "shot-t-r", lambda: shot_noise_energy(6e7, 1e4).t_r.to("s"), 5e-11),
)
