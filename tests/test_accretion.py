import math

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.special import jv

from reductionlab import accretion
from reductionlab.accretion import (
    AccretionModel,
    TruncationError,
    default_truncation,
    displacement_matrix,
    energy_fluctuation_accretion,
    envelope_band,
    fock_ladder,
    occupancy_simulate,
    pnk_bessel,
    pnk_envelope,
    pnk_exact,
    pnk_laguerre,
)


def test_fock_commutator_below_truncation():
    a, adag = fock_ladder(4)
    assert np.allclose(adag, a.T)
    assert np.allclose(np.diag(adag @ a), [0, 1, 2, 3, 4])


def test_model_validation():
    with pytest.raises(ValueError):
        AccretionModel(0, 0.1, 0.9)
    with pytest.raises(ValueError):
        AccretionModel(5, -0.1, 0.9)
    m = AccretionModel(10, 0.25, 0.75)
    assert abs(m.fill_probability - 0.25) < 1e-15
    assert abs(m.mean_occupancy - 2.5) < 1e-15
    assert m.stationary_law().args == (10, m.fill_probability)


def test_single_site_stationary_probability():
    # two-state Markov chain closed form: P(occupied) = s/(s+e)
    m = AccretionModel(1, 0.3, 0.7)
    res = occupancy_simulate(m, horizon=30_000.0, seed=12)
    p_occ = res.samples.mean()
    n = res.samples.size
    assert abs(p_occ - 0.3) <= 4.0 * math.sqrt(0.3 * 0.7 / n) * 1.5


def test_fast_evaporation_empties_surface():
    m = AccretionModel(5, 1.0, 1e6)
    # samples come every five relaxation times, 5e-6 here: 10⁵ of them by t = 0.5
    res = occupancy_simulate(m, horizon=0.5, seed=3)
    assert res.mean <= 1e-3


def test_occupancy_over_the_sample_budget_raises_before_the_chain(monkeypatch):
    # horizon·(s + e)/5 = 10⁷ samples, ten times accretion.MAX_SAMPLES
    def no_chain(seed):
        raise AssertionError("the chain started")

    monkeypatch.setattr(accretion.np.random, "default_rng", no_chain)
    with pytest.raises(ValueError, match=r"horizon 50.0 takes 1e\+07 samples, .* above the "
                                         r"budget of 1000000"):
        occupancy_simulate(AccretionModel(5, 1.0, 1e6), horizon=50.0, seed=3)


def test_occupancy_rms_matches_sqrt_mean_dilute():
    m = AccretionModel(400, 0.01, 0.99)   # X = 4, dilute
    res = occupancy_simulate(m, horizon=30_000.0, seed=8)
    assert abs(res.std - math.sqrt(m.mean_occupancy)) / math.sqrt(m.mean_occupancy) < 0.1


def _binomial_pvalue(m, res):
    """χ² p-value of the histogram against the stationary binomial law, over
    the bins that expect more than 5 counts."""
    n = res.first_occupancy + np.arange(len(res.histogram))
    expected = m.stationary_law().pmf(n) * res.samples.size
    keep = expected > 5
    chi2 = float(((res.histogram[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    return float(sstats.chi2.sf(chi2, keep.sum() - 1))


def test_stationary_histogram_binomial_chisquare():
    m = AccretionModel(50, 0.08, 0.92)
    res = occupancy_simulate(m, horizon=40_000.0, seed=21)
    assert _binomial_pvalue(m, res) > 1e-3


def test_occupancy_pvalues_over_seeds_look_uniform():
    # criterion 14's model: at most 10 of 100 seeds below p = 0.05 (5 expected)
    m = AccretionModel(1000, 0.005, 0.995)
    pvals = [_binomial_pvalue(m, occupancy_simulate(m, horizon=20_000.0, seed=seed))
             for seed in range(100)]
    assert sum(p < 0.05 for p in pvals) <= 10


@pytest.mark.parametrize("n_sites", [1, 3])
@pytest.mark.parametrize("stick, evap", [(0.3, 0.7), (0.005, 0.995), (2.0, 0.5)])
def test_occupancy_transition_is_the_birth_death_propagator(n_sites, stick, evap):
    # Binomial(N, stay) + Binomial(M − N, fill) is exp(QΔ) at Δ = 5/(s + e)
    from scipy.linalg import expm

    m = AccretionModel(n_sites, stick, evap)
    stay, fill = accretion._site_transition(m, 5.0)
    ns = np.arange(n_sites + 1)
    conv = np.array([np.convolve(sstats.binom.pmf(ns[:n + 1], n, stay),
                                 sstats.binom.pmf(ns[:n_sites - n + 1], n_sites - n, fill))
                     for n in ns])
    gen = np.diag(stick * (n_sites - ns[:-1]), 1) + np.diag(evap * ns[1:], -1)
    gen -= np.diag(gen.sum(axis=1))
    np.testing.assert_allclose(conv, expm(gen * 5.0 / (stick + evap)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_sites, stick, evap", [(1000, 0.005, 0.995), (50, 0.08, 0.92),
                                                  (10**8, 0.005, 0.995), (10, 0.0, 1.0)])
def test_occupancy_histogram_covers_the_occupied_range(n_sites, stick, evap):
    m = AccretionModel(n_sites, stick, evap)
    res = occupancy_simulate(m, horizon=2000.0, seed=4)
    lo, hi = res.first_occupancy, res.first_occupancy + len(res.histogram) - 1
    assert res.histogram.sum() == res.samples.size
    assert lo <= res.samples.min() and res.samples.max() <= hi
    law = sstats.binom(n_sites, m.fill_probability)
    assert law.cdf(lo - 1) <= 1e-12 and law.sf(hi) <= 1e-12
    assert len(res.histogram) < 20 * law.std() + 40   # never n_sites + 1 bins for large n_sites


def test_occupancy_with_no_sticking_samples_the_full_grid():
    # π = 0: a constant chain on every grid point, where the event loop stopped at once
    res = occupancy_simulate(AccretionModel(10, 0.0, 1.0), horizon=2000.0, seed=4)
    assert res.samples.size == 399 and not res.samples.any()


def test_energy_fluctuation():
    assert energy_fluctuation_accretion(AccretionModel(10, 0.0, 1.0), 1.0) == 0.0
    m = AccretionModel(100, 1.0, 3.0)   # X = 25
    assert abs(energy_fluctuation_accretion(m, 1.0) - 5.0) < 1e-12
    assert abs(energy_fluctuation_accretion(m, 2.0) - 10.0) < 1e-12


def test_displacement_ground_state_is_coherent():
    z = 0.4
    n_max = 30
    d = displacement_matrix(z, n_max)
    ground = d[:, 0]
    a, _ = fock_ladder(n_max)
    # a|0_c⟩ = z|0_c⟩ within truncation error
    assert np.linalg.norm(a @ ground - z * ground) < 1e-10


def test_pnk_zero_displacement():
    assert pnk_exact(5, 0, 0.0) == 1.0
    assert pnk_exact(5, 2, 0.0) == 0.0
    assert pnk_laguerre(5, 0, 0.0) == 1.0
    assert pnk_bessel(7, 0, 0.0) == 1.0
    assert pnk_bessel(7, 3, 0.0) == 0.0


def test_pnk_coherent_ground_state_poisson():
    # coherent-state expansion oracle: P(0|−k) = e^{−|z|²}|z|^{2k}/k!
    z = 0.6
    for k in range(6):
        expected = math.exp(-abs(z) ** 2) * abs(z) ** (2 * k) / math.factorial(k)
        assert abs(pnk_exact(0, -k, z) - expected) < 1e-12
        assert abs(pnk_laguerre(0, -k, z) - expected) < 1e-12


def test_pnk_exact_array_matches_scalar():
    n, z = 50, 0.3
    ks = np.arange(-30, n + 1)
    n_max = default_truncation(n, z, ks.min())
    scalar = [pnk_exact(n, k, z, n_max=n_max) for k in ks.tolist()]
    assert all(type(p) is float for p in scalar)
    col = displacement_matrix(complex(z), n_max)[:, n]
    # abs() of one complex entry, squared, as the per-k form always rounded it
    assert scalar == [float(abs(col[n - k]) ** 2) for k in ks.tolist()]
    assert np.array_equal(pnk_exact(n, ks, z, n_max=n_max), scalar)
    assert np.array_equal(pnk_exact(n, ks, z), scalar)   # the default covers min(k)
    with pytest.raises(ValueError, match="n−k ≥ 0"):
        pnk_exact(n, [0, n + 1], z)   # a negative index would wrap around


def test_pnk_exact_vs_laguerre(rng):
    z = 0.05
    n = 50
    for k in range(-8, 9):
        assert abs(pnk_exact(n, k, z) - pnk_laguerre(n, k, z)) < 1e-12


def test_pnk_sums_to_one():
    n, z = 50, 0.05
    n_max = default_truncation(n, z)
    total = sum(pnk_exact(n, n - np.arange(n_max + 1), z, n_max=n_max).tolist())
    assert abs(total - 1.0) <= 1e-10


def test_truncation_error_raised():
    with pytest.raises(TruncationError):
        pnk_exact(40, 0, 2.0, n_max=42)
    with pytest.raises(TruncationError):
        pnk_exact(40, 0, 0.05, n_max=10)


def test_truncation_cap_raises_before_allocating(monkeypatch):
    def unreachable(z, n_max):
        raise AssertionError(f"displacement_matrix called with n_max={n_max}")

    monkeypatch.setattr(accretion, "displacement_matrix", unreachable)
    with pytest.raises(TruncationError, match="100570 Fock levels, above the cap of 4096"):
        pnk_exact(400, -100000, 0.05)   # a (100570, 100570) array is 75 GiB
    with pytest.raises(TruncationError, match="k = -100000 .* 100570 Fock levels"):
        pnk_exact(400, np.arange(-100000, 401), 0.05)
    with pytest.raises(TruncationError, match="4097 Fock levels"):
        pnk_exact(0, 0, 0.0, n_max=4096)


@pytest.mark.parametrize("z", [math.inf, math.nan, complex(0.1, math.inf)])
def test_nonfinite_z_raises_before_truncation(z):
    with pytest.raises(ValueError, match="z must be finite"):
        pnk_exact(4, 0, z)
    with pytest.raises(ValueError, match="z must be finite"):
        pnk_exact(4, [-1, 0, 1], z, n_max=30)


def test_bessel_addition_formula():
    for w in (0.5, 2.0, 7.3):
        total = jv(0, w) ** 2 + 2.0 * sum(jv(nn, w) ** 2 for nn in range(1, int(w) + 60))
        assert abs(total - 1.0) <= 1e-10


def test_bessel_converges_to_exact():
    # fixed argument w = 2√n|z|: the l1 distance over k shrinks as n grows
    w = 2.0
    dists = []
    for n in (50, 200):
        z = w / (2.0 * math.sqrt(n))
        n_max = default_truncation(n, z) + 25
        ks = range(-20, 21)
        d = sum(abs(pe - pnk_bessel(n, k, z))
                for k, pe in zip(ks, pnk_exact(n, ks, z, n_max=n_max)))
        dists.append(d)
    assert dists[1] < 0.5 * dists[0]


def test_envelope_values_and_regions():
    n, z = 2500, 0.2
    kb = envelope_band(n, z)
    assert abs(kb - 20.0) < 1e-12
    at0 = pnk_envelope(n, 0, z)
    assert at0.region == "band"
    assert abs(at0.value - 1.0 / (2 * math.pi * math.sqrt(n) * abs(z))) < 1e-14
    assert pnk_envelope(n, 30, z).region == "tail"
    assert pnk_envelope(n, 30, z).value == 0.0
    edge = pnk_envelope(n, 20, z)
    assert edge.region == "edge" and math.isinf(edge.value)


def test_envelope_tracks_windowed_average():
    n, z = 2500, 0.2
    for center in (0, 4, 8, 12):
        ks = range(center - 2, center + 3)
        avg = np.mean([pnk_bessel(n, k, z) for k in ks])
        env = pnk_envelope(n, center, z).value
        assert abs(avg - env) / env < 0.25


def test_occupancy_seed_invariance_distribution():
    # same chain, two seeds: histograms agree distributionally
    m = AccretionModel(30, 0.1, 0.9)
    for seed in (1, 2):
        assert _binomial_pvalue(m, occupancy_simulate(m, horizon=20_000.0, seed=seed)) > 1e-3


def test_poisson_limit_of_binomial():
    m = AccretionModel(1000, 0.005, 0.995)
    n = np.arange(16)
    pb = m.stationary_law().pmf(n)
    pp = sstats.poisson.pmf(n, m.mean_occupancy)
    assert np.abs(pb - pp).max() < 2e-3


def test_occupancy_short_horizon_warns():
    m = AccretionModel(10, 0.1, 0.9)
    with pytest.warns(RuntimeWarning):
        occupancy_simulate(m, horizon=20.0, seed=0)
