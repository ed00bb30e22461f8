"""Surface accretion: incoherent counting statistics and the coherent case.

Incoherent side: molecules stick to and evaporate from N single-occupancy
sites; the stationary occupancy is Binomial(N, s/(s+e)), Poisson in the
dilute limit, and its √X fluctuation sets the energy spread that drives
reduction.  Coherent side: a single multiply-occupied site driven by a
c-number environment amplitude is a displaced oscillator, whose eigenstate
n spreads over occupations n−k with probabilities that oscillate like
[J_|k|(2√n|z|)]² under the smooth envelope (1/π)(4n|z|² − k²)^{−1/2}.
"""

import math

import numpy as np
from scipy.stats import poisson

from reductionlab.accretion import (
    AccretionModel,
    default_truncation,
    energy_fluctuation_accretion,
    envelope_band,
    occupancy_simulate,
    pnk_bessel,
    pnk_envelope,
    pnk_exact,
)

model = AccretionModel(n_sites=1000, sticking_rate=0.005, evaporation_rate=0.995)
res = occupancy_simulate(model, horizon=10_000.0, seed=6)
print(f"mean occupancy X = {model.mean_occupancy:.2f}; "
      f"sampled mean {res.mean:.2f}, rms {res.std:.2f} "
      f"(sqrt(X) = {math.sqrt(model.mean_occupancy):.2f})")
print(f"energy spread m*sqrt(X) = {energy_fluctuation_accretion(model, 1.0):.3f}\n")

print(f"{'n':>3}{'sampled':>10}{'binomial':>10}{'poisson':>10}")
counts = np.arange(11)
pb = model.stationary_law().pmf(counts)
pp = poisson.pmf(counts, model.mean_occupancy)
freq = res.histogram[counts - res.first_occupancy] / res.samples.size   # the range starts at 0
for n, f, b, p in zip(counts, freq, pb, pp):
    print(f"{n:>3}{f:>10.4f}{b:>10.4f}{p:>10.4f}")

print("\ncoherent case: occupation spectrum of eigenstate n = 400, z = 0.05")
n, z = 400, 0.05
n_max = default_truncation(n, z)
print(f"{'k':>4}{'exact':>12}{'bessel':>12}")
for k, pe in enumerate(pnk_exact(n, range(7), z, n_max=n_max)):
    print(f"{k:>4}{pe:>12.5f}{pnk_bessel(n, k, z):>12.5f}")
print(f"band edge at |k| = 2 sqrt(n) |z| = {envelope_band(n, z):.1f}; beyond it "
      "the exact probabilities decay exponentially")

print("\nwide band (n = 2500, z = 0.2): local averages track the envelope")
n, z = 2500, 0.2
print(f"{'k':>4}{'avg of 5 bessel':>18}{'envelope':>12}")
for center in (0, 4, 8, 12):
    avg = np.mean([pnk_bessel(n, k, z) for k in range(center - 2, center + 3)])
    print(f"{center:>4}{avg:>18.5f}{pnk_envelope(n, center, z).value:>12.5f}")
