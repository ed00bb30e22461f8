"""The equation's symmetries as exact relations between runs on shared noise.

The equation sees H only through the phase −iH and through H − ⟨H⟩, so a
constant added to every energy changes no observable, and an uncoupled system
in an energy eigenstate adds exactly such a constant.  And the map
(H, σ, dt) → (λH, σ/√λ, dt/λ) carries each path onto a path in time t/λ:
for λ a power of 4, every step is the same floating-point arithmetic scaled
by powers of two, on the ensemble kernels as on the Hartree harness's full
and mean-field pair.  Neither relation pins a discretization.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from reductionlab import composite, dynamics, ensemble

# four levels with phases, at σ²ΔE²dt = 0.01
ENERGIES = np.array([0.0, 1.0, 2.0, 3.0])
AMPLITUDES = np.sqrt([0.1, 0.2, 0.3, 0.4]) * np.exp(1j * np.array([0.0, 0.3, 0.7, 1.1]))
DT = 1 / 900
SHIFT = 1000.0


@functools.lru_cache(maxsize=None)
def _run(kind, shift=0.0, environment=None):
    """The four-level run on 64 trajectories, every energy shifted by `shift`;
    with environment = H₂'s diagonal, tensored with an uncoupled system in its
    last level, its outcomes grouped by the first system's level."""
    e, c, groups = ENERGIES + shift, AMPLITUDES, None
    if environment is not None:
        d2 = len(environment)
        e = (e[:, None] + np.asarray(environment)[None, :]).ravel()
        c = np.kron(c, np.eye(d2)[-1])
        groups = [tuple(range(d2 * i, d2 * (i + 1))) for i in range(len(ENERGIES))]
    state = c if kind == "state" else np.outer(c, c.conj())
    return ensemble.run_ensemble(e, state, 1.0, DT, 808, 64, groups=groups, workers=1)


def _assert_same_outcomes(run, ref):
    assert run.outcomes.tobytes() == ref.outcomes.tobytes()
    assert run.reduction_times.tobytes() == ref.reduction_times.tobytes()


# The state kernel takes V as Σp(E − ⟨H⟩)², so the stopping rule sees no
# E² that a shift inflates.  The density kernel takes Tr ρH on a trace that
# drifts from 1 between renormalizations, and each step multiplies that drift
# by about 1 − σ⟨H⟩√dt·z.  At SHIFT these 64 trajectories keep their times,
# but 2 of the first 256 do not; at 10·SHIFT a rounding error grows to a
# negative population within 8 steps.
@pytest.mark.parametrize("kind, shift", [
    ("state", SHIFT), ("density", SHIFT), ("state", 10 * SHIFT), ("state", 100 * SHIFT),
    ("state", 1000 * SHIFT),
    pytest.param("density", 10 * SHIFT, marks=pytest.mark.xfail(
        strict=True, raises=ValueError, reason="the density kernel's trace drift"))])
def test_zero_of_energy_changes_no_outcome(kind, shift):
    ref = _run(kind)
    assert ref.n_unreduced == 0 and len(set(ref.outcomes.tolist())) > 1
    _assert_same_outcomes(_run(kind, shift=shift), ref)


@pytest.mark.parametrize("kind", ["state", "density"])
def test_uncoupled_environment_in_an_eigenstate_changes_no_outcome(kind):
    _assert_same_outcomes(_run(kind, environment=(0.0, 100.0)), _run(kind))


def test_zero_of_energy_changes_no_dense_population():
    h = np.diag(ENERGIES).astype(complex)
    cfg = dynamics.SdeConfig(sigma=1.0, dt=DT, n_steps=1000, record_stride=1000)
    finals = [dynamics.evolve_trajectory(AMPLITUDES, h + shift * np.eye(4), cfg, seed=808).states[-1]
              for shift in (0.0, SHIFT)]
    pops = [np.abs(f) ** 2 for f in finals]
    assert np.abs(pops[1] - pops[0]).max() <= 1e-12


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
