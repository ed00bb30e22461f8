import dataclasses
import math

import numpy as np
import pytest

from reductionlab import ensemble


def _complex_step(c, e, sigma, dt, dw):
    """Reference: one Euler step of the eigenbasis amplitudes c, shape (b, d),
    then renormalization; the population kernel must reproduce |c|²."""
    pop = c.real**2 + c.imag**2
    eh = pop @ e
    k = e[None, :] - eh[:, None]
    drift = 1.0 + dt * (-1j * e[None, :] - 0.125 * sigma * sigma * k * k)
    c *= drift + (0.5 * sigma) * k * dw[:, None]
    c /= np.sqrt((c.real**2 + c.imag**2).sum(1))[:, None]


def test_population_kernel_matches_complex_step():
    e = np.array([0.0, 1.0, 1.0, 2.5])
    c0 = np.array([0.4, 0.5 * np.exp(0.3j), 0.5 * np.exp(1.1j), 0.3 * np.exp(-2.0j)])
    c0 /= np.linalg.norm(c0)
    sigma, dt, b, n_steps = 1.0, 1e-3, 64, 2000
    dws = np.random.default_rng(3).standard_normal((n_steps, b)) * math.sqrt(dt)
    kern = ensemble._StateKernel(e, c0, sigma, dt)
    p = kern.start(b)
    c = np.tile(c0, (b, 1))
    worst = 0.0
    for dw in dws:
        _complex_step(c, e, sigma, dt, dw)
        kern.advance(p, dw)
        worst = max(worst, float(np.abs(p.T - (c.real**2 + c.imag**2)).max()))
    assert worst <= 1e-12
    final = kern.final(p, n_steps * dt)
    assert np.abs(np.abs(final) - np.abs(c)).max() <= 1e-12
    # the degenerate pair keeps its initial relative phase
    rel0 = np.angle(c0[2] / c0[1])
    assert np.abs(np.angle(final[:, 2] / final[:, 1]) - rel0).max() <= 1e-12
    assert np.abs(np.angle(c[:, 2] / c[:, 1]) - rel0).max() <= 1e-9


@pytest.mark.parametrize("b", [1, 2, 24])
@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stacked"])
def test_colsum_adds_strided_rows_in_index_order(stack, d, b):
    # the populations of a complex kernel are the strided view x[:d].real
    rng = np.random.default_rng(d * b)
    shape = (d,) + stack + (b,)
    z = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
         + 1j * rng.standard_normal(shape))
    pop = z.real
    assert not pop.flags.c_contiguous
    ref = pop[0].copy()
    for row in pop[1:]:
        ref = ref + row
    got = ensemble._colsum(pop)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _dense_density_step(r, e, sigma, dt, dw):
    """Reference: the elementwise eigenbasis update of full density matrices,
    shape (b, d, d); the support kernel must reproduce every entry."""
    ei, ej = e[:, None], e[None, :]
    drift = 1.0 + dt * (-1j * (ei - ej) - 0.125 * sigma * sigma * (ei - ej) ** 2)
    tr_h = np.einsum("bii,i->b", r.real, e)
    r *= drift[None] + 0.5 * sigma * dw[:, None, None] * ((ei + ej)[None] - 2.0 * tr_h[:, None, None])


def _hermitize_renorm(r):
    herm = 0.5 * (r + np.conj(np.transpose(r, (0, 2, 1))))
    r[:] = herm / np.einsum("bii->b", herm).real[:, None, None]


def _coherent_rho0():
    rho0 = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
    rho0[1, 2] = 0.1 * np.exp(0.4j)   # inside the degenerate pair
    rho0[0, 3] = 0.05                 # across levels
    return rho0 + np.triu(rho0, 1).conj().T


@pytest.mark.parametrize("rho0, dtype", [(_coherent_rho0(), np.complex128),
                                         (np.diag([0.3, 0.25, 0.25, 0.2]), np.float64)])
def test_support_kernel_matches_dense_density_step(rho0, dtype):
    rho0 = np.asarray(rho0, complex)
    e = np.array([0.0, 1.0, 1.0, 2.5])
    sigma, dt, b, n_steps = 1.0, 1e-3, 64, 2000
    dws = np.random.default_rng(4).standard_normal((n_steps, b)) * math.sqrt(dt)
    kern = ensemble._DensityKernel(e, rho0, sigma, dt)
    x = kern.start(b)
    assert x.dtype == dtype
    r = np.tile(rho0, (b, 1, 1))
    worst = 0.0
    for step, dw in enumerate(dws, 1):
        _dense_density_step(r, e, sigma, dt, dw)
        kern.advance(x, dw)
        if step % ensemble.CHECK_STRIDE == 0:
            _hermitize_renorm(r)
            kern.renorm(x)
        worst = max(worst, float(np.abs(kern.dense(x.T) - r).max()))
    assert worst <= 1e-12
    final = kern.final(x, n_steps * dt)
    off = rho0 == 0
    assert np.all(final[:, off] == 0) and np.all(r[:, off] == 0)
    assert np.abs(final - r).max() <= 1e-12


def _state_run(workers):
    e = np.array([0.0, 1.0, 1.0, 2.0])
    c0 = np.sqrt(np.array([0.3, 0.2, 0.2, 0.3], complex))
    return ensemble.run_state_ensemble(
        e, c0, sigma=2.0, dt=2e-3, base_seed=31, n_traj=1100,
        groups=((0,), (1, 2), (3,)), horizon_steps=120, record_stride=40,
        max_steps=20_000, workers=workers)


def _density_run(workers):
    e = np.array([0.0, 1.0, 2.0])
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 0.1
    return ensemble.run_density_ensemble(
        e, rho0, sigma=2.0, dt=2e-3, base_seed=32, n_traj=1100,
        horizon_steps=120, record_stride=40, max_steps=20_000, workers=workers)


def _gibbs_run(workers):
    # diagonal ρ0 with a degenerate pair: the float64 support kernel
    e = np.array([0.0, 1.0, 1.0, 2.0])
    rho0 = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    return ensemble.run_density_ensemble(
        e, rho0, sigma=2.0, dt=2e-3, base_seed=33, n_traj=1100,
        groups=((0,), (1, 2), (3,)), horizon_steps=120, record_stride=40,
        max_steps=20_000, workers=workers)


@pytest.mark.parametrize("run", [_state_run, _density_run, _gibbs_run])
def test_results_identical_for_any_worker_count(run, monkeypatch):
    # 1100 trajectories: one full block and one partial block
    runs = [run(w) for w in (1, 2, 3)]
    monkeypatch.setattr(ensemble, "_fork_context", lambda: None)
    runs.append(run(2))  # serial fallback without fork
    assert runs[0].times is not None and runs[0].n_unreduced < 1100
    for other in runs[1:]:
        for field in dataclasses.fields(ensemble.EnsembleRun):
            a, b = getattr(runs[0], field.name), getattr(other, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


BAD_STATES = [
    ([0.0, 1.0], [math.nan, 1.0], 1e-3),          # non-finite
    ([0.0, 1.0], [1.0, 0.0, 0.0], 1e-3),          # wrong dimension
    ([0.0, 1.0], [1.0, 1.0], 1e-3),               # not normalized
    ([0.0, math.inf], [1.0, 0.0], 1e-3),          # non-finite energy
    ([0.0, 1.0], [1.0, 0.0], 0.0),                # dt ≤ 0
]


@pytest.mark.parametrize("energies, amps, dt", BAD_STATES)
def test_bad_input_rejected_up_front(energies, amps, dt):
    c0 = np.asarray(amps, complex)
    with pytest.raises(ValueError):
        ensemble.run_state_ensemble(energies, c0, 1.0, dt, 0, 8)
    with pytest.raises(ValueError):
        ensemble.run_density_ensemble(energies, np.diag(c0), 1.0, dt, 0, 8)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_bad_sigma_rejected_up_front(sigma):
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError, match="sigma"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, sigma, 1e-3, 0, 8)
    with pytest.raises(ValueError, match="sigma"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]), sigma, 1e-3, 0, 8)


@pytest.mark.parametrize("rho0", [[[0.5, 0.3], [0.1, 0.5]],    # not Hermitian
                                  [[0.5, 0.9], [0.9, 0.5]]])   # eigenvalue −0.4
def test_bad_density_rejected_up_front(rho0):
    with pytest.raises(ValueError, match="Hermitian and positive"):
        ensemble.run_density_ensemble([0.0, 1.0], rho0, 1.0, 1e-3, 0, 8)


@pytest.mark.parametrize("workers", [1, 2])
def test_negative_populations_raise(workers):
    # σ²ΔE²dt = 0.45: the Euler factor turns negative within the first checks
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative population"):
        ensemble.run_density_ensemble([0.0, 3.0], rho0, 1.0, 0.05, 0, 2048, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_populations_raise(workers):
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1e200, 1e-3, 0, 2048, workers=workers)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]).astype(complex),
                                      1e200, 1e-3, 0, 16)
