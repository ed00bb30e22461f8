"""The phenomenology in numbers: when is coherence kept, when is it lost?

With Planck-scale stochasticity the reduction time is t_R ~ (2.8 MeV/ΔE)²
seconds: tiny energy spreads keep superpositions alive for cosmological
times, while environmental energy fluctuations (accreted molecules,
amplified shot noise) drive laboratory-scale apparatus to definite
outcomes long before anyone reads the dial.
"""

from reductionlab.phenomenology import (
    AIR_STP,
    ELECTRON_MASS,
    INTERGALACTIC,
    NITROGEN_MASS,
    PROTON_MASS,
    accretion_reduction_for_area,
    crossover_area,
    qty,
    scenario_table,
    shot_noise_energy,
    t_reduce,
    thermal_fluctuation,
)

print("== coherence maintained: small energy spreads ==")
for name, de in [("SQUID supercurrent superposition", qty(8.6e-6, "eV")),
                 ("fullerene beam wave packet", qty(0.23, "eV")),
                 ("nuclear isomer, 75 keV gap", qty(75, "keV"))]:
    t = t_reduce(de)
    print(f"  {name:<36} t_R = {t.to('s'):9.3g} s  (~{t.to('year'):.2g} yr)")

print("\n== reduction driven by environmental fluctuations ==")
print(f"  one proton mass of spread:  t_R = {t_reduce(PROTON_MASS).to('s'):.2g} s")
print(f"  one N2 molecule of spread:  t_R = {t_reduce(NITROGEN_MASS).to('s'):.2g} s")

de_rms = thermal_fluctuation(qty(298, "K"), qty(4.18, "J/K"))
print(f"  1 g of water at 298 K:      dE_rms = {de_rms.to('GeV'):.1f} GeV "
      "(but exchanged too slowly to matter)")

shot = shot_noise_energy(6e7, 1e4, ELECTRON_MASS)
print(f"  amplified 1 mA / 10 ns pulse: dN = {shot.delta_n:.2g} electrons, "
      f"dE = {shot.delta_e.to('GeV'):.0f} GeV, t_R = {shot.t_r.to('s'):.2g} s")

air = accretion_reduction_for_area(AIR_STP, qty(1, "cm2"))
print(f"  1 cm2 in air at STP: t_R = {air.t_r.to('s'):.2g} s "
      f"({air.molecules:.2g} molecules accreted)")

print("\n== apparatus area needed for fast reduction, by environment ==")
print(f"{'environment':<16}{'A (t_R=1e-8 s)':>18}{'A (t_R=3e-4 s)':>18}")
for row in scenario_table():
    print(f"{row.preset:<16}{row.area_fast.to('cm2'):>14.3g} cm2"
          f"{row.area_relaxed.to('cm2'):>14.3g} cm2")
ig = accretion_reduction_for_area(INTERGALACTIC, qty(1e4, "cm2"))
print(f"\na 1 m2 capsule in intergalactic space still reduces in "
      f"{ig.t_r.to('s'):.2g} s")
print(f"decoherence only overtakes reduction below A = "
      f"{crossover_area().to('cm2'):.1g} cm2")
