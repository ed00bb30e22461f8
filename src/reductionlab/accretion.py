"""Surface-accretion statistics and the coherent (forced-oscillator) case.

The incoherent side models molecules binding to and evaporating from N
single-occupancy surface sites as a continuous-time birth-death chain of
independent sites, read on a regular time grid through its exact transition
law (two binomial draws a sample); the stationary total count is
Binomial(N, s/(s+e)), which approaches Poisson in the dilute limit.  The
coherent side treats one multiply-occupiable site driven by a c-number
environment amplitude λ: the Hamiltonian is a harmonic oscillator displaced
by z = −λ/m, m the molecule mass, and the occupation statistics of its
eigenstates are computed exactly on a truncated Fock space (one matrix
exponential for a whole spectrum of k), via a Laguerre closed form, and in
the large-quantum-number Bessel approximation with its smooth envelope.

scipy is imported inside the functions that use it (the stationary law,
the matrix exponential, the Laguerre polynomial and the Bessel
approximation), so importing this module costs numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM

MAX_SAMPLES = 1_000_000   # the occupancy chain's sample budget

__all__ = [
    "AccretionModel",
    "fock_ladder",
    "OccupancyResult",
    "occupancy_simulate",
    "energy_fluctuation_accretion",
    "TruncationError",
    "displacement_matrix",
    "checked_truncation",
    "default_truncation",
    "pnk_exact",
    "pnk_laguerre",
    "pnk_bessel",
    "EnvelopeValue",
    "pnk_envelope",
    "envelope_band",
]


class TruncationError(ValueError):
    """Fock-space truncation too small for the requested amplitudes."""


@dataclass(frozen=True)
class AccretionModel:
    """Surface with n_sites accretion sites, filling at sticking_rate and
    emptying at evaporation_rate (per site)."""

    n_sites: int
    sticking_rate: float
    evaporation_rate: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        rates = (self.sticking_rate, self.evaporation_rate)
        if not all(np.isfinite(r) and r >= 0 for r in rates):
            raise ValueError(f"rates must be finite and nonnegative, got sticking rate "
                             f"{rates[0]} and evaporation rate {rates[1]}")
        if self.sticking_rate + self.evaporation_rate == 0:
            raise ValueError("at least one rate must be positive")

    @property
    def fill_probability(self) -> float:
        return self.sticking_rate / (self.sticking_rate + self.evaporation_rate)

    @property
    def mean_occupancy(self) -> float:
        return self.n_sites * self.fill_probability

    def stationary_law(self):
        """The exact stationary law of the total count, Binomial(n_sites,
        fill_probability), as a frozen scipy.stats distribution."""
        from scipy.stats import binom

        return binom(self.n_sites, self.fill_probability)


def fock_ladder(n_max: int):
    """Annihilation and creation matrices on the (n_max+1)-level subspace."""
    ns = np.arange(1, n_max + 1)
    a = np.zeros((n_max + 1, n_max + 1))
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.T.copy()


@dataclass
class OccupancyResult:
    """Stationary statistics of the occupancy chain."""

    samples: np.ndarray        # occupancy sampled on a regular grid
    histogram: np.ndarray      # counts of samples per occupancy, from first_occupancy up
    first_occupancy: int       # the occupancy that histogram[0] counts
    mean: float
    std: float


def _site_transition(model: AccretionModel, relaxations: float) -> tuple[float, float]:
    """Probabilities that a filled and an empty site are filled after
    `relaxations` relaxation times 1/(s+e): π + (1 − π)q and π(1 − q), with
    π = s/(s+e) and q = e^{−relaxations}."""
    pi, q = model.fill_probability, math.exp(-relaxations)
    return pi + (1.0 - pi) * q, -pi * math.expm1(-relaxations)


def occupancy_simulate(model: AccretionModel, horizon: float, seed: int) -> OccupancyResult:
    """Sample the per-site fill/evaporate chain through its exact transition.

    The sites are independent two-state chains, so over a time Δ the
    occupancy N moves to Binomial(N, π + (1 − π)q) + Binomial(M − N, π(1 − q)),
    M the site count and q = e^{−(s+e)Δ}.  The chain starts empty; its first
    sample is one such step of ten relaxation times 1/(s+e), and each later
    one a step of five, so successive samples decorrelate.  Warns when the
    horizon is too short for the sampled halves to agree on the mean.  The
    histogram covers one range of occupancies that holds every sample and
    all but at most 1e-12 of the stationary binomial mass on either side.
    Raises ValueError, before the chain starts, unless the horizon is finite
    and positive and its horizon·(s + e)/5 samples are at most MAX_SAMPLES.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    s, ev, n_sites = model.sticking_rate, model.evaporation_rate, model.n_sites
    n_samples = horizon * (s + ev) / 5.0   # one every five relaxation times
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"horizon {horizon} takes {n_samples:.3g} samples, one every "
                         f"5/(s + e), above the budget of {MAX_SAMPLES}")
    relax = 1.0 / (s + ev)
    stay, fill = _site_transition(model, 5.0)
    rng = np.random.default_rng(seed)
    t, n, samples = 10.0 * relax, rng.binomial(n_sites, _site_transition(model, 10.0)[1]), []
    while t <= horizon:
        samples.append(n)
        n = rng.binomial(n, stay) + rng.binomial(n_sites - n, fill)
        t += 5.0 * relax
    samples = np.asarray(samples, int)
    half = len(samples) // 2
    if len(samples) < 100 or (abs(samples[:half].mean() - samples[half:].mean())
                              > 6.0 * (samples.std(ddof=1) / math.sqrt(half))):
        warnings.warn("horizon may be too short for stationary statistics",
                      RuntimeWarning, stacklevel=2)
    law = model.stationary_law()
    lo, hi = int(law.ppf(1e-12)), int(law.isf(1e-12))
    if len(samples):
        lo, hi = min(lo, int(samples.min())), max(hi, int(samples.max()))
    return OccupancyResult(
        samples=samples,
        histogram=np.bincount(samples - lo, minlength=hi - lo + 1),
        first_occupancy=lo,
        mean=float(samples.mean()) if len(samples) else 0.0,
        std=float(samples.std(ddof=1)) if len(samples) > 1 else 0.0,
    )


def energy_fluctuation_accretion(model: AccretionModel, molecule_mass: float) -> float:
    """RMS energy fluctuation m·√X from the fluctuating accreted count of
    molecules of mass m."""
    return molecule_mass * math.sqrt(model.mean_occupancy)


# --- coherent case -----------------------------------------------------------


def displacement_matrix(z: complex, n_max: int) -> np.ndarray:
    """exp(z a† − z* a) on the truncated Fock space."""
    from scipy.linalg import expm

    a, adag = fock_ladder(n_max)
    return expm(z * adag - np.conj(z) * a)


def default_truncation(n: int, z: complex, k: int = 0) -> int:
    """Truncation covering eigenstate n and occupation n−k with headroom
    for both the √n·|z| band and the coherent |z|² tail."""
    top = max(n, n - k)
    margin = 10.0 * max(1.0, abs(z) * math.sqrt(max(top, 1)), abs(z) ** 2) + 10.0
    return int(math.ceil(top + margin))


def checked_truncation(n: int, k_lo: int, k_hi: int, z: complex,
                       n_max: int | None = None) -> int:
    """pnk_exact's truncation for every k from k_lo to k_hi (n_max, by default
    default_truncation(n, z, k_lo)), checked as pnk_exact documents; it
    allocates nothing, so a caller can check a range of k before building it."""
    if n < 0 or n - k_hi < 0:
        raise ValueError("need n ≥ 0 and n−k ≥ 0")
    if not np.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if n_max is None and abs(z) > MAX_DIM:   # |z|² alone passes the cap, and may overflow
        raise TruncationError(f"|z| = {abs(z):.6g} needs more Fock levels than the cap of "
                              f"{MAX_DIM}")
    n_max = default_truncation(n, z, k_lo) if n_max is None else n_max
    if n_max < max(n, n - k_lo):
        raise TruncationError(f"n_max={n_max} below requested occupation index")
    if n_max + 1 > MAX_DIM:
        raise TruncationError(f"n = {n}, k = {k_lo} and |z| = {abs(z):.6g} need {n_max + 1} "
                              f"Fock levels, above the cap of {MAX_DIM}")
    return n_max


def pnk_exact(n: int, k, z: complex, n_max: int | None = None):
    """Probability of finding n−k quanta in the a-number basis for the
    n-th displaced-oscillator eigenstate, by brute-force matrix exponential.

    k is an int, giving a float, or an integer array, giving an array: every
    k reads column n of one displacement matrix, by default truncated to
    cover the smallest k.  Raises ValueError unless n ≥ 0, every n−k ≥ 0 and
    z is finite; errors out, before the matrix is built, if the truncation
    misses occupation n − min(k) or holds more than linalg.MAX_DIM levels,
    and afterwards if the truncated eigenstate leaks more than 1e-10 of its
    norm past the boundary.
    """
    ks = np.asarray(k)
    n_max = checked_truncation(n, int(ks.min()), int(ks.max()), z, n_max)
    col = displacement_matrix(complex(z), n_max)[:, n]
    p = np.hypot(col.real, col.imag) ** 2   # rounds as abs() of one entry; np.abs may not
    # The truncated generator is still anti-Hermitian, so the column norm is
    # exactly 1 regardless of truncation; faithfulness shows up as vanishing
    # weight near the boundary instead.
    tail = float(p[max(n_max - 4, 0):].sum())
    if tail > 1e-10:
        raise TruncationError(
            f"probability {tail:.2e} piled against the truncation boundary "
            f"(> 1e-10); increase n_max")
    p = p[n - ks]   # no n − k is negative, so no index wraps around
    return float(p) if ks.ndim == 0 else p


def pnk_laguerre(n: int, k: int, z: complex) -> float:
    """Closed form for the same probability: the generalized Laguerre
    polynomial L_{n_lo}^{(|k|)}(|z|²), n_lo = min(n, n − k), with the
    factorial ratio taken in log space (safe for large n)."""
    from scipy.special import eval_genlaguerre, gammaln

    if n < 0 or n - k < 0:
        raise ValueError("need n ≥ 0 and n−k ≥ 0")
    x = abs(z) ** 2
    ak = abs(k)
    n_lo = min(n, n - k)
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    lg = gammaln(n_lo + 1) - gammaln(n_lo + ak + 1) + ak * math.log(x) - x
    lag = float(eval_genlaguerre(n_lo, ak, x))
    return math.exp(lg) * lag * lag


def pnk_bessel(n: int, k: int, z: complex) -> float:
    """Large-n, small-|z| approximation [J_|k|(2√n·|z|)]².

    Valid for |z| ≪ 1 with n large at fixed 2√n|z|; agreement with
    pnk_exact improves like 1/n along that family.
    """
    from scipy.special import jv

    w = 2.0 * math.sqrt(n) * abs(z)
    return float(jv(abs(k), w) ** 2)


def envelope_band(n: int, z: complex) -> float:
    """Half-width 2√n|z| of the occupation band."""
    return 2.0 * math.sqrt(n) * abs(z)


@dataclass(frozen=True)
class EnvelopeValue:
    """Smoothed envelope of the oscillatory occupation probabilities.

    region is "band" inside |k| < 2√n|z|, "edge" at the divergent band
    boundary, "tail" outside (where the true probabilities decay
    exponentially and the envelope is reported as 0).
    """

    value: float
    region: str


def pnk_envelope(n: int, k: int, z: complex) -> EnvelopeValue:
    """(1/π)(4n|z|² − k²)^{−1/2} inside the band; "edge" where |4n|z|² − k²|
    is within 1e-9 of max(4n|z|², 1)."""
    band2 = 4.0 * n * abs(z) ** 2
    gap = band2 - float(k) ** 2
    if abs(gap) <= 1e-9 * max(band2, 1.0):
        return EnvelopeValue(value=math.inf, region="edge")
    if gap < 0:
        return EnvelopeValue(value=0.0, region="tail")
    return EnvelopeValue(value=1.0 / (math.pi * math.sqrt(gap)), region="band")
