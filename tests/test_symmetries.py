"""The equation's symmetries as exact relations between runs on shared noise.

The equation sees H only through the phase −iH and through H − ⟨H⟩, so a
constant added to every energy changes no observable, and an uncoupled system
in an energy eigenstate adds exactly such a constant.  And the map
(H, σ, dt) → (λH, σ/√λ, dt/λ) carries each path onto a path in time t/λ:
for λ a power of 4, every step is the same floating-point arithmetic scaled
by powers of two, on the ensemble kernels, on the dense path and on the
Hartree harness's full and mean-field pair.  Listing the levels in another
order permutes the outcomes, to rounding.  No relation pins a discretization.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from reductionlab import composite, dynamics, ensemble
from reductionlab.linalg import random_hermitian

# four levels with phases, at σ²ΔE²dt = 0.01
ENERGIES = np.array([0.0, 1.0, 2.0, 3.0])
AMPLITUDES = np.sqrt([0.1, 0.2, 0.3, 0.4]) * np.exp(1j * np.array([0.0, 0.3, 0.7, 1.1]))
DT = 1 / 900
SHIFT = 1000.0


@functools.lru_cache(maxsize=None)
def _run(kind, shift=0.0, environment=None, order=(0, 1, 2, 3), n_traj=64):
    """The four-level run on n_traj trajectories, its levels listed in `order`
    and every energy shifted by `shift`; with environment = H₂'s diagonal,
    tensored with an uncoupled system in its last level, its outcomes grouped
    by the first system's level."""
    e, c, groups = ENERGIES[list(order)] + shift, AMPLITUDES[list(order)], None
    if environment is not None:
        d2 = len(environment)
        e = (e[:, None] + np.asarray(environment)[None, :]).ravel()
        c = np.kron(c, np.eye(d2)[-1])
        groups = [tuple(range(d2 * i, d2 * (i + 1))) for i in range(len(ENERGIES))]
    state = c if kind == "state" else np.outer(c, c.conj())
    return ensemble.run_ensemble(e, state, 1.0, DT, 808, n_traj, groups=groups, workers=1)


def _assert_same_outcomes(run, ref):
    assert run.outcomes.tobytes() == ref.outcomes.tobytes()
    assert run.reduction_times.tobytes() == ref.reduction_times.tobytes()


# Both kernels take V as Σp(E − ⟨H⟩)², so the stopping rule sees no E² that
# a shift inflates, and the density kernel steps on energies centered on its
# occupied levels, so the Tr ρH it takes on a trace that drifts between
# renormalizations stays near 0 however far the spectrum sits from it.
@pytest.mark.parametrize("kind, shift", [
    (kind, k * SHIFT) for kind in ("state", "density") for k in (1, 10, 100, 1000)])
def test_zero_of_energy_changes_no_outcome(kind, shift):
    ref = _run(kind)
    assert ref.n_unreduced == 0 and len(set(ref.outcomes.tolist())) > 1
    _assert_same_outcomes(_run(kind, shift=shift), ref)


@pytest.mark.parametrize("kind", ["state", "density"])
def test_uncoupled_environment_in_an_eigenstate_changes_no_outcome(kind):
    _assert_same_outcomes(_run(kind, environment=(0.0, 100.0)), _run(kind))


# Listing the levels in another order changes only the order in which a step
# adds their terms, so an outcome or a time may move by rounding: the bound,
# fixed before the first run, lets 2 of 256 trajectories move.
@pytest.mark.parametrize("order", [(3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1), (1, 3, 0, 2)])
@pytest.mark.parametrize("kind", ["state", "density"])
def test_relabeling_the_levels_changes_no_outcome(kind, order):
    ref, run = _run(kind, n_traj=256), _run(kind, order=order, n_traj=256)
    assert ref.n_unreduced == run.n_unreduced == 0
    same = ((np.asarray(order)[run.outcomes] == ref.outcomes)
            & (run.reduction_times == ref.reduction_times))
    assert same.sum() >= 254


def test_zero_of_energy_changes_no_dense_population():
    # the dense path steps on H − E_mid and reads ⟨H⟩ and V from H's eigenbasis
    h = np.diag(ENERGIES).astype(complex)
    cfg = dynamics.SdeConfig(sigma=1.0, dt=DT, n_steps=1000, record_stride=1000)
    for init in (AMPLITUDES, np.outer(AMPLITUDES, AMPLITUDES.conj())):
        def run(shift):
            traj = dynamics.evolve_trajectory(init, h + shift * np.eye(4), cfg, seed=808)
            s = traj.states[-1]
            return (np.abs(s) ** 2 if s.ndim == 1 else np.diag(s).real), traj.variance

        pops, v = run(0.0)
        assert v[-1] > 1e-3
        for shift in (SHIFT, 1e6, 1e8):
            moved, v_moved = run(shift)
            assert moved.tobytes() == pops.tobytes()
            assert np.abs(v_moved - v).max() <= 1e-15


def _scaling_case(d, seed, kind):
    """Energies with gaps in [0.5, 1), a σ, a dt at σ²ΔE²dt = 0.02, and an
    initial state of the given kind."""
    rng = np.random.default_rng(seed)
    e = np.cumsum(rng.uniform(0.5, 1.0, d)) + rng.uniform(-2.0, 2.0)
    sigma = rng.uniform(0.5, 2.0)
    dt = 0.02 / (sigma * (e[-1] - e[0])) ** 2
    c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    c /= np.linalg.norm(c)
    if kind == "state":
        return e, c, sigma, dt
    if kind == "diagonal":
        return e, np.diag(np.abs(c) ** 2), sigma, dt
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return e, rho / np.trace(rho).real, sigma, dt


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([0.25, 4.0, 16.0]),
       kind=st.sampled_from(["state", "diagonal", "coherent"]))
def test_ensemble_scaling_maps_paths_onto_paths(d, seed, lam, kind):
    e, state, sigma, dt = _scaling_case(d, seed, kind)

    def run(e, sigma, dt):
        return ensemble.run_ensemble(e, state, sigma, dt, seed, 32, horizon_steps=64,
                                     record_stride=16, max_steps=4096, workers=1)

    ref, scaled = run(e, sigma, dt), run(lam * e, sigma / math.sqrt(lam), dt / lam)
    assert scaled.outcomes.tobytes() == ref.outcomes.tobytes()
    assert scaled.final_states.tobytes() == ref.final_states.tobytes()
    assert_array_equal(scaled.reduction_times * lam, ref.reduction_times)
    assert_array_equal(scaled.mean_v, lam * lam * ref.mean_v)
    if kind != "state":
        assert scaled.mean_rho.tobytes() == ref.mean_rho.tobytes()



@functools.lru_cache(maxsize=None)
def _dense(kind, lam):
    """evolve_trajectory on a random 4×4 H at (λH, σ/√λ, dt/λ), σ²ΔE²dt = 0.005,
    600 steps recorded every 100."""
    h = random_hermitian(4, np.random.default_rng(1213))
    _, state, sigma, _ = _scaling_case(4, 1213, kind)
    dt = 0.005 / (sigma * dynamics.spectral_range(h)) ** 2
    cfg = dynamics.SdeConfig(sigma=sigma / math.sqrt(lam), dt=dt / lam, n_steps=600,
                             record_stride=100)
    return dynamics.evolve_trajectory(state, lam * h, cfg, seed=1213)


@pytest.mark.parametrize("lam", [0.25, 4.0, 16.0])
@pytest.mark.parametrize("kind", ["state", "coherent"])
def test_dense_scaling_maps_paths_onto_paths(kind, lam):
    ref, scaled = _dense(kind, 1.0), _dense(kind, lam)
    assert ref.variance[-1] != ref.variance[0]   # the path did move
    assert np.array(scaled.states).tobytes() == np.array(ref.states).tobytes()
    assert_array_equal(scaled.times * lam, ref.times)
    assert_array_equal(scaled.energy_mean, lam * ref.energy_mean)
    assert_array_equal(scaled.variance, lam * lam * ref.variance)


@functools.lru_cache(maxsize=None)
def _hartree(lam):
    """The Hartree harness on 8 trajectories at (λH, σ/√λ, dt/λ, horizon/λ)."""
    system, rho1, rho2 = composite.hartree_instance(np.random.default_rng(1213))
    scaled = composite.CompositeSystem(lam * system.h1, lam * system.h2, lam * system.delta_h)
    return composite.hartree_vs_full(scaled, rho1, rho2, 1.0 / math.sqrt(lam), 1e-4 / lam,
                                     0.05 / lam, [0.0, 0.2, 0.4], 8, base_seed=1213, workers=1)


@pytest.mark.parametrize("lam", [0.25, 4.0, 16.0])
def test_hartree_scaling_maps_paths_onto_paths(lam):
    ref, scaled = _hartree(1.0), _hartree(lam)
    assert ref.mean_discrepancy[1] > 1e-6   # the coupled rows did move apart
    assert scaled.dt * lam == ref.dt
    assert scaled.mean_discrepancy.tobytes() == ref.mean_discrepancy.tobytes()
    assert scaled.sem.tobytes() == ref.sem.tobytes()
