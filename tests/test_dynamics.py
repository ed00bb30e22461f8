import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from reductionlab import dynamics
from reductionlab.composite import CompositeSystem, hartree_vs_full
from reductionlab.dynamics import (
    ANTICOMMUTATOR,
    DOUBLE_COMMUTATOR,
    EULER_MARUYAMA,
    PositivityError,
    SdeConfig,
    StabilityError,
    evolve_expectation,
    evolve_trajectory,
    noise_coefficient,
    step_density,
    step_state_vector,
)
from reductionlab.ensemble import _DensityKernel
from reductionlab.linalg import random_density_matrix, random_hermitian, random_pure_state
from reductionlab.reduction import born_statistics


def test_noise_forms_agree_on_pure_states(rng):
    for _ in range(50):
        d = rng.integers(2, 6)
        h = random_hermitian(d, rng)
        v = random_pure_state(d, rng)
        rho = np.outer(v, v.conj())
        n_a = noise_coefficient(rho, h, ANTICOMMUTATOR)
        n_b = noise_coefficient(rho, h, DOUBLE_COMMUTATOR)
        assert np.linalg.norm(n_a - n_b) <= 1e-12 * max(np.linalg.norm(h), 1)
        # both traceless and Hermitian
        assert abs(np.trace(n_a)) < 1e-12
        assert np.abs(n_a - n_a.conj().T).max() < 1e-12


def test_double_commutator_vanishes_when_commuting():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    assert np.abs(noise_coefficient(rho, h, DOUBLE_COMMUTATOR)).max() == 0.0


def test_anticommutator_on_gibbs_diagonal_oracle():
    beta = 0.7
    e = np.array([0.0, 1.0, 2.5])
    w = np.exp(-beta * e)
    w /= w.sum()
    rho = np.diag(w).astype(complex)
    h = np.diag(e).astype(complex)
    n = noise_coefficient(rho, h, ANTICOMMUTATOR)
    # element-wise diagonal evaluation: 2 w_i (E_i − Tr ρH)
    oracle = np.diag(2.0 * w * (e - w @ e))
    assert np.allclose(n, oracle, atol=1e-14)
    assert np.abs(n).max() > 0


def test_sigma_zero_matches_schroedinger(rng):
    h = random_hermitian(3, rng)
    v = random_pure_state(3, rng)
    dt, n = 1e-4, 2000
    s = v.copy()
    for _ in range(n):
        s = step_state_vector(s, h, 0.0, dt, 0.0)
    exact = expm(-1j * h * n * dt) @ v
    # global phase free; Euler error is O(dt) over the horizon
    overlap = abs(np.vdot(exact, s))
    assert overlap > 1.0 - 5.0 * dt


def test_euler_maruyama_is_the_renormalized_step_before_its_division(rng):
    h = random_hermitian(3, rng)
    v = random_pure_state(3, rng)
    for dw in (-0.04, 0.02):
        raw = step_state_vector(v, h, 0.8, 1e-3, dw, scheme=EULER_MARUYAMA)
        renormalized = step_state_vector(v, h, 0.8, 1e-3, dw)
        assert (raw / np.linalg.norm(raw)).tobytes() == renormalized.tobytes()
        assert abs(np.vdot(raw, raw).real - 1.0) > 1e-9
    cfg = SdeConfig(sigma=0.8, dt=1e-3, n_steps=2000, scheme=EULER_MARUYAMA, record_stride=100)
    traj = evolve_trajectory(v, h, cfg, seed=4)
    traj.validate()
    assert traj.purity_residual[-1] > 0.0   # the norm² drifts: nothing renormalizes


def test_eigenstate_is_fixed_point(rng):
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    chi = np.array([0.0, 1.0, 0.0], complex)
    for dw in rng.standard_normal(5) * 0.03:
        out = step_state_vector(chi, h, 1.0, 1e-3, dw)
        assert abs(np.vdot(out, h @ out).real - 1.0) < 1e-12
        # noise coefficient annihilates the eigenstate
        assert np.linalg.norm((h - 1.0 * np.eye(3)) @ chi) == 0.0


def test_energy_expectation_is_martingale():
    # E[<H>] stays at its initial value 0.7 at a bounded stopping time: each
    # final is taken at its first hit of the stopping rule, else at step 1000
    from reductionlab.ensemble import run_ensemble

    run = run_ensemble(
        np.array([0.0, 1.0]), np.sqrt([0.3, 0.7]).astype(complex),
        sigma=1.0, dt=1e-3, base_seed=77, n_traj=2000,
        horizon_steps=1000, record_stride=100, max_steps=1000)
    eh = np.abs(run.final_states) ** 2 @ np.array([0.0, 1.0])
    assert abs(eh.mean() - 0.7) <= 4.0 * eh.std() / np.sqrt(eh.size)


def test_density_step_matches_outer_product_in_mean(rng):
    # Mean over noise of (|χ'⟩⟨χ'| − ρ') shrinks like dt² per step; the
    # pathwise gap is the O(dt) Itô-table fluctuation (σ²/4)KρK(dW²−dt).
    h = random_hermitian(2, rng)
    v = random_pure_state(2, rng)
    rho = np.outer(v, v.conj())
    sigma = 1.0
    z = np.random.default_rng(5).standard_normal(400_000)

    def mean_gap(dt):
        dw = z * np.sqrt(dt)
        # one state-vector step, vectorized over the draws
        hv = h @ v
        e = np.vdot(v, hv).real
        kv = hv - e * v
        a0 = v + dt * (-1j * hv - 0.125 * sigma**2 * (h @ kv - e * kv))
        chi = a0[None, :] + dw[:, None] * (0.5 * sigma * kv)[None, :]
        outer = np.einsum("bi,bj->bij", chi, chi.conj())
        outer /= np.einsum("bii->b", outer).real[:, None, None]
        # one density step, vectorized over the same draws
        comm = h @ rho - rho @ h
        r0 = rho + dt * (-1j * comm - 0.125 * sigma**2 * (h @ comm - comm @ h))
        s0 = 0.5 * sigma * noise_coefficient(rho, h, ANTICOMMUTATOR)
        rho1 = r0[None] + dw[:, None, None] * s0[None]
        rho1 /= np.einsum("bii->b", rho1).real[:, None, None]
        return np.linalg.norm((outer - rho1).mean(axis=0))

    g1, g2 = mean_gap(0.02), mean_gap(0.01)
    assert g1 / g2 > 2.5  # superlinear in dt: consistent with O(dt²)


def test_density_step_commuting_double_commutator_frozen():
    rho = np.diag([0.4, 0.6]).astype(complex)
    h = np.diag([0.0, 2.0]).astype(complex)
    out = step_density(rho, h, 1.0, 1e-3, 0.02, noise_form=DOUBLE_COMMUTATOR)
    assert np.allclose(out, rho, atol=1e-15)


def test_density_step_maximally_mixed_pure_noise(rng):
    d = 3
    h = random_hermitian(d, rng)
    rho = np.eye(d, dtype=complex) / d
    dt, dw = 1e-3, 0.02
    out = step_density(rho, h, 1.0, dt, dw)
    # [H, I] = 0 kills both drift terms; only the noise moves ρ
    expected = rho + 0.5 * dw * noise_coefficient(rho, h, ANTICOMMUTATOR)
    expected /= np.trace(expected).real
    assert np.allclose(out, 0.5 * (expected + expected.conj().T), atol=1e-14)


# The martingale step is the density step at dt = 0: for [ρ, H] = 0 both
# drift terms vanish and only the anticommutator noise moves ρ.

def test_martingale_step_projector_fixed_point(rng):
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    dws = rng.standard_normal(4) * 0.05
    out = _batched_step(np.repeat(rho[None], 4, axis=0), h, 1.0, 0.0, dws, ANTICOMMUTATOR)
    assert np.allclose(out, rho, atol=1e-15)


def test_martingale_step_two_level_hand_expansion(rng):
    e1, e2, p, sigma, dt = 0.3, 1.7, 0.42, 0.8, 1e-3
    rho = np.diag([p, 1 - p]).astype(complex)
    h = np.diag([e1, e2]).astype(complex)
    dws = rng.standard_normal(5) * np.sqrt(dt)
    out = _batched_step(np.repeat(rho[None], 5, axis=0), h, sigma, 0.0, dws, ANTICOMMUTATOR)
    dp = sigma * p * (1 - p) * (e1 - e2) * dws  # hand expansion for d=2
    assert np.abs(out[:, 0, 0].real - (p + dp)).max() < 1e-12


def test_martingale_step_preserves_gibbs_expectation():
    # ensemble mean of the pure-noise evolution stays at the initial
    # equilibrium state at every time; the paths step as one stack through the
    # batched density step at dt = 0
    from reductionlab.reduction import gibbs_state

    h = np.diag([0.0, 1.0]).astype(complex)
    g = gibbs_state(h, 1.1)
    n_paths, n_steps, dt = 400, 200, 1e-3
    dws = np.random.default_rng(31).standard_normal((n_paths, n_steps)) * np.sqrt(dt)
    rm = dynamics._embed(h)
    rho = np.repeat(g[None], n_paths, axis=0)
    for dw in dws.T:
        rho = dynamics._euler_step(rho, dynamics._times(rho, rm), 0.0, 1.0, 0.0, 0.5 * dw)
    mean = rho.mean(axis=0)
    sem = 1.0 / np.sqrt(n_paths)  # population spread is O(1)
    assert np.abs(mean - g).max() < 4.0 * 0.25 * sem


def test_trajectory_variance_collapses_for_positive_sigma():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    chi0 = np.sqrt(np.array([0.2, 0.5, 0.3], complex))
    cfg = SdeConfig(sigma=1.0, dt=1e-3, n_steps=40_000, record_stride=2000)
    traj = evolve_trajectory(chi0, h, cfg, seed=41)
    assert traj.variance[0] > 0.1
    assert traj.variance[-1] < 0.01 * traj.variance[0]


def test_evolve_expectation_fixed_point(rng):
    h = random_hermitian(3, rng)
    from reductionlab.reduction import gibbs_state

    g = gibbs_state(h, 0.9)
    out = evolve_expectation(g, h, sigma=1.2, t=2.0)
    assert np.linalg.norm(out - g) < 1e-9


def test_evolve_expectation_unitary_limit(rng):
    h = random_hermitian(3, rng)
    rho = random_density_matrix(3, rng)
    t = 0.7
    out = evolve_expectation(rho, h, sigma=0.0, t=t)
    u = expm(-1j * h * t)
    assert np.linalg.norm(out - u @ rho @ u.conj().T) < 1e-12


def test_evolve_expectation_offdiagonal_decay(rng):
    e = np.array([0.0, 1.3])
    h = np.diag(e).astype(complex)
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    sigma, t = 1.1, 1.5
    out = evolve_expectation(rho, h, sigma, t)
    de = e[0] - e[1]
    factor = np.exp(-1j * de * t - 0.125 * sigma**2 * de**2 * t)
    assert abs(out[0, 1] - rho[0, 1] * factor) < 1e-8
    assert abs(out[0, 0] - rho[0, 0]) < 1e-10


def test_trajectory_sigma_zero_eigenstate_constant():
    h = np.diag([0.0, 1.0]).astype(complex)
    cfg = SdeConfig(sigma=0.0, dt=1e-3, n_steps=200, record_stride=20)
    traj = evolve_trajectory(np.array([0, 1], complex), h, cfg, seed=3)
    assert np.allclose(traj.energy_mean, 1.0, atol=1e-12)
    assert np.allclose(traj.variance, 0.0, atol=1e-12)


def test_trajectory_purity_residual_convergence():
    # Common-refinement noise: coarse increments are sums of fine ones, so
    # all three resolutions ride the same Brownian path.  The pathwise
    # maximum of ‖ρ²−ρ‖ converges at order ~1/2 (the per-step Itô-table
    # fluctuation S²(dW²−dt) accumulates diffusively); the ensemble-mean
    # defect ‖E[ρ²−ρ]‖ converges at order ~1.  The paths are stepped by the
    # ensemble runner's density kernel, fed u = (σ/2)·dW.
    e = np.array([0.0, 1.0])
    sigma, horizon, fine_dt = 1.0, 1.0, 2.5e-4
    n_paths = 4000
    gen = np.random.default_rng(99)
    fine = gen.standard_normal((n_paths, int(horizon / fine_dt))) * np.sqrt(fine_dt)

    def defect_norm(x):
        # ρ = [[a, c], [c*, b]]: ρ² − ρ = [[a² + |c|² − a, c(a + b − 1)], [·, b² + |c|² − b]]
        a, b, c2 = x[0].real, x[1].real, np.abs(x[2]) ** 2
        return np.sqrt((a * a + c2 - a) ** 2 + (b * b + c2 - b) ** 2 + 2 * c2 * (a + b - 1) ** 2)

    def run(level):
        dt = fine_dt * 2**level
        us = 0.5 * sigma * fine.reshape(n_paths, -1, 2**level).sum(axis=2).T
        kern = _DensityKernel(e, np.full((2, 2), 0.5, complex), sigma, dt)
        x = kern.start(n_paths)
        worst = np.zeros(n_paths)
        for u in us:
            kern.advance(x, u)
            np.maximum(worst, defect_norm(x), out=worst)
        rho = kern.final(x, horizon)
        return worst.mean(), np.linalg.norm((rho @ rho - rho).mean(axis=0))

    (w4, m4), (w2, m2), (w1, m1) = run(2), run(1), run(0)
    assert w4 > w2 > w1           # pathwise residual shrinks with dt
    assert 1.2 < w4 / w2 < 2.2    # per halving: order ~1/2
    assert m4 / m1 > 2.5          # mean defect: order ~1 over dt → dt/4


def test_trajectory_records_and_csv(tmp_path, rng):
    h = random_hermitian(3, rng)
    cfg = SdeConfig(sigma=0.6, dt=2e-4, n_steps=300, record_stride=50)
    traj = evolve_trajectory(random_pure_state(3, rng), h, cfg, seed=12)
    assert len(traj.times) == len(traj.states) == 7
    traj.to_csv(tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "t,reH_exp,V,purity_residual"
    assert len(lines) == 8


def test_density_trajectory_keeps_trace_and_hermiticity(rng):
    # the dense density path: each step builds M + M† and divides by its trace
    h = random_hermitian(3, rng)
    chi = random_pure_state(3, rng)
    cfg = SdeConfig(sigma=0.6, dt=2e-4, n_steps=300, record_stride=50)
    traj = evolve_trajectory(np.outer(chi, chi.conj()), h, cfg, seed=12)
    assert traj.states[0].ndim == 2 and len(traj.times) == len(traj.states) == 7
    for s in traj.states:
        assert abs(np.trace(s) - 1.0) <= 1e-12
        assert np.abs(s - s.conj().T).max() <= 1e-15
    assert all((s == s.conj().T).all() for s in traj.states[1:])   # every stepped state exactly


@pytest.mark.parametrize("defect, reported", [
    (lambda s: 1.1 * s, "trace drift 1.00e-01"),
    (lambda s: s + np.array([[0, 0.1, 0], [0, 0, 0], [0, 0, 0]]), "hermiticity 1.00e-01"),
    (lambda s: np.diag([1.1, 0.0, -0.1]).astype(complex), "eigmin -1.00e-01")],
    ids=["trace", "hermiticity", "eigmin"])
def test_density_trajectory_validate_names_the_bad_state(defect, reported, rng):
    # each defect is beyond the tolerance max(100·dt, 1e-10) = 0.02
    chi = random_pure_state(3, rng)
    cfg = SdeConfig(sigma=0.6, dt=2e-4, n_steps=100, record_stride=50)
    traj = evolve_trajectory(np.outer(chi, chi.conj()), random_hermitian(3, rng), cfg, seed=5)
    traj.states[1] = defect(traj.states[1])
    with pytest.raises(ValueError, match=f"state 1: .*{reported}"):
        traj.validate()


def test_stability_bound_errors():
    h = np.diag([0.0, 10.0]).astype(complex)
    with pytest.raises(StabilityError):
        step_state_vector(np.array([1, 0], complex), h, sigma=10.0, dt=0.1, dW=0.0)
    with pytest.warns(RuntimeWarning):
        dynamics.check_stability(1.0, 0.02, 2.0)  # product 0.08: warn, no error


def test_comfort_bound_warning_points_at_the_caller():
    # each warning names the line that called into the package, so the default
    # filter prints it once per call site, not once per line inside the package
    h = np.diag([0.0, 3.0]).astype(complex)
    chi = np.sqrt([0.5, 0.5]).astype(complex)
    rho = np.outer(chi, chi.conj())
    system = CompositeSystem(h, h, np.eye(4, dtype=complex))
    for run in (lambda: born_statistics(h, chi, 1.0, 16, 0, dt=0.0012),    # σ²ΔE²dt 0.0108
                lambda: hartree_vs_full(system, rho, rho, 1.0, 0.0012, 0.0024, [0.0], 2),
                lambda: evolve_trajectory(chi, h, SdeConfig(1.0, 0.0012, 3), seed=0)):
        with pytest.warns(RuntimeWarning, match="comfort bound") as record:
            run()
        assert {w.filename for w in record} == {__file__}


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_stability_check_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        dynamics.check_stability(sigma, 1e-3, 1.0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_stability_check_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        dynamics.check_stability(0.0, dt, 1.0)


@pytest.mark.parametrize("sigma, dt, message", [
    (float("nan"), float("inf"), "sigma must be finite and nonnegative"),
    (1.0, float("inf"), "dt must be finite and positive"),
    (1.0, float("nan"), "dt must be finite and positive")])
def test_sde_config_rejects_non_finite_sigma_and_dt(sigma, dt, message):
    with pytest.raises(ValueError, match=message):
        SdeConfig(sigma=sigma, dt=dt, n_steps=5)


def test_recorded_moments_match_the_trace_oracle(rng):
    # at t = 0, ⟨H⟩ and V from H's eigenbasis against Tr ρH and Tr ρH² − (Tr ρH)²
    h = random_hermitian(4, rng)
    cfg = SdeConfig(sigma=1.0, dt=1e-5, n_steps=1)
    for state in (random_pure_state(4, rng), random_density_matrix(4, rng)):
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        e1 = np.trace(rho @ h).real
        traj = evolve_trajectory(state, h, cfg, seed=0)
        assert abs(traj.energy_mean[0] - e1) < 1e-12
        assert abs(traj.variance[0] - (np.trace(rho @ h @ h).real - e1 * e1)) < 1e-12


def test_default_dt_rule(rng):
    rng_h = dynamics.spectral_range(random_hermitian(4, rng))
    dt = dynamics.default_dt(0.7, rng_h)
    assert abs(0.7**2 * rng_h**2 * dt - 1e-3) < 1e-12


@pytest.mark.parametrize("kind", ["state_vector", "density"])
def test_trajectory_rejects_non_finite_initial_state(kind):
    h = np.diag([0.0, 1.0]).astype(complex)
    init = np.array([np.nan, 1.0], complex)
    if kind == "density":
        init = np.outer(init, init.conj())
    cfg = SdeConfig(sigma=1.0, dt=1e-3, n_steps=5)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        evolve_trajectory(init, h, cfg, seed=0)


# -- reference: the complex Euler formula step_density used before it became a
# batch of one through the shared M + M† step --------------------------------

def _ref_step_density(r, h, sigma, dt, dw, form):
    comm = h @ r - r @ h
    dcomm = h @ comm - comm @ h
    out = (r + dt * (-1j * comm - 0.125 * sigma * sigma * dcomm)
           + (0.5 * sigma * dw) * noise_coefficient(r, h, form))
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def _batched_step(rhos, h, sigma, dt, dws, form):
    rm = dynamics._embed(h)
    rh = dynamics._times(rhos, rm)
    noise = rhos @ rh - rh @ rhos if form == DOUBLE_COMMUTATOR else None
    return dynamics._euler_step(rhos, rh, dynamics._times(dynamics._dag(rh) - rh, rm),
                                sigma, dt, 0.5 * sigma * dws, noise)


def _check_step(out, row, ref):
    assert out.tobytes() == row.tobytes()   # a row of the batched step
    assert (out == out.conj().T).all()      # exactly Hermitian (±0 compare equal)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.abs(out - ref).max() <= 1e-13


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from([ANTICOMMUTATOR, DOUBLE_COMMUTATOR]),
       dw=st.floats(-0.1, 0.1), dt=st.floats(1e-4, 1e-2))
def test_step_density_is_a_row_of_the_batched_step(d, seed, form, dw, dt):
    rng = np.random.default_rng(seed)
    h = random_hermitian(d, rng)
    rhos = np.stack([random_density_matrix(d, rng) for _ in range(3)])
    dws = np.array([-0.07, dw, 0.03])
    row = _batched_step(rhos, h, 1.0, dt, dws, form)[1]
    try:
        out = step_density(rhos[1], h, 1.0, dt, dw, noise_form=form)
    except PositivityError:
        # a mixed state near the PSD boundary may leave it at these dW and dt;
        # step_density raises only where the row's lowest eigenvalue is below −100·dt
        assert np.linalg.eigvalsh(row)[0] < -100.0 * dt
        reject()
    _check_step(out, row, _ref_step_density(rhos[1], h, 1.0, dt, dw, form))


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
       dw=st.floats(-0.1, 0.1))
def test_martingale_step_is_the_driftless_density_step(d, seed, dw):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    h = (u * rng.standard_normal(d)) @ u.conj().T
    rhos = np.stack([(u * rng.dirichlet(np.ones(d))) @ u.conj().T for _ in range(3)])
    batch = _batched_step(rhos, h, 1.0, 0.0, np.array([-0.07, dw, 0.03]), ANTICOMMUTATOR)
    one = _batched_step(rhos[1:2], h, 1.0, 0.0, np.array([dw]), ANTICOMMUTATOR)[0]
    ref = rhos[1] + 0.5 * dw * noise_coefficient(rhos[1], h, ANTICOMMUTATOR)
    _check_step(one, batch[1], ref / np.trace(ref).real)
