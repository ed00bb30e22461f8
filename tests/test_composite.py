import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reductionlab import composite, ensemble
from reductionlab.composite import (
    CompositeSystem,
    clustering_drift_residual,
    clustering_noise_residual,
    hartree_vs_full,
    partial_expectation,
)
from reductionlab.dynamics import STABILITY_HARD, StabilityError, spectral_range, step_density
from reductionlab.linalg import (
    random_density_matrix,
    random_hermitian,
    random_pure_state,
)
from reductionlab.noise import trajectory_generator


def _pure(rng, d):
    v = random_pure_state(d, rng)
    return np.outer(v, v.conj())


def test_noise_residual_anticommutator_any_trace_one(rng):
    for _ in range(20):
        d1, d2 = rng.integers(2, 5), rng.integers(2, 5)
        r = clustering_noise_residual(
            random_density_matrix(d1, rng), random_density_matrix(d2, rng),
            random_hermitian(d1, rng), random_hermitian(d2, rng),
            "anticommutator")
        assert r <= 1e-12


def test_noise_residual_double_commutator_pure(rng):
    for _ in range(20):
        d1, d2 = rng.integers(2, 5), rng.integers(2, 5)
        r = clustering_noise_residual(
            _pure(rng, d1), _pure(rng, d2),
            random_hermitian(d1, rng), random_hermitian(d2, rng),
            "double_commutator")
        assert r <= 1e-12


def test_noise_residual_double_commutator_mixed_nonzero(rng):
    r = clustering_noise_residual(
        _pure(rng, 2), np.eye(2) / 2,
        random_hermitian(2, rng), random_hermitian(2, rng),
        "double_commutator")
    assert r > 1e-6


def test_drift_residual_endpoint_cases(rng):
    d1, d2 = 3, 3
    h1 = random_hermitian(d1, rng)
    r1 = _pure(rng, d1)
    # [rho2, H2] = 0: reduction endpoint, double-commutator form
    h2 = np.diag(rng.standard_normal(d2)).astype(complex)
    r2 = np.diag(rng.dirichlet(np.ones(d2))).astype(complex)
    assert clustering_drift_residual(r1, r2, h1, h2, "double_commutator") == 0.0
    # projector combination on a degenerate submanifold, anticommutator form
    h2d = np.diag([0.7, 0.7, 2.0]).astype(complex)
    mix = rng.random()
    r2d = np.diag([mix, 1 - mix, 0.0]).astype(complex)
    assert clustering_drift_residual(r1, r2d, h1, h2d, "anticommutator") <= 1e-12


def test_drift_residual_generic_nonzero(rng):
    r = clustering_drift_residual(_pure(rng, 2), _pure(rng, 2),
                                  random_hermitian(2, rng),
                                  random_hermitian(2, rng),
                                  "double_commutator")
    assert r > 1e-6


def test_partial_expectation_kron_oracle(rng):
    d1, d2 = 3, 2
    a = random_hermitian(d1, rng)
    b = random_hermitian(d2, rng)
    r2 = random_density_matrix(d2, rng)
    out = partial_expectation(np.kron(a, b), r2, (d1, d2), over=2)
    assert np.allclose(out, a * np.trace(r2 @ b), atol=1e-12)
    r1 = random_density_matrix(d1, rng)
    out1 = partial_expectation(np.kron(a, b), r1, (d1, d2), over=1)
    assert np.allclose(out1, b * np.trace(r1 @ a), atol=1e-12)


def test_total_hamiltonian_identity_case():
    # I₂ ⊗ I₃ + I₂ ⊗ 0 is the identity on the product space
    sys = CompositeSystem(np.eye(2), np.zeros((3, 3)), np.eye(6))
    assert np.array_equal(sys.total_hamiltonian(0.0), np.eye(6))


def test_total_hamiltonian_kron_order():
    # the first factor varies slowest: diag(1, 2) ⊗ I₃ + I₂ ⊗ diag(0, 10, 20)
    sys = CompositeSystem(np.diag([1.0, 2.0]), np.diag([0.0, 10.0, 20.0]), np.zeros((6, 6)))
    assert np.array_equal(sys.total_hamiltonian(1.0), np.diag([1.0, 11, 21, 2, 12, 22]))


def test_total_hamiltonian_spectrum_is_the_sums(rng):
    # at g = 0 the spectrum is every sum of a factor's eigenvalues
    h1, h2, dh = random_hermitian(2, rng), random_hermitian(3, rng), random_hermitian(6, rng)
    sums = np.add.outer(np.linalg.eigvalsh(h1), np.linalg.eigvalsh(h2)).ravel()
    sys = CompositeSystem(h1, h2, dh)
    total0 = sys.total_hamiltonian(0.0)
    assert np.allclose(np.linalg.eigvalsh(total0), np.sort(sums), atol=1e-12)
    assert np.allclose(sys.total_hamiltonian(0.3), total0 + 0.3 * dh, atol=1e-15)


def test_composite_system_validation(rng):
    h1 = random_hermitian(2, rng)
    h2 = random_hermitian(3, rng)
    dh = random_hermitian(6, rng)
    sys = CompositeSystem(h1, h2, dh)
    total = sys.total_hamiltonian(0.3)
    assert np.abs(total - total.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        CompositeSystem(h1, h2, random_hermitian(4, rng))
    with pytest.raises(ValueError):
        CompositeSystem(h1 + 1j * np.eye(2), h2, dh)


@pytest.mark.parametrize("field, bad", [("delta_h", lambda m: np.full_like(m, np.nan)),
                                        ("h1", lambda m: m + np.diag([np.inf, 0.0]))],
                         ids=["nan-delta_h", "inf-h1"])
def test_composite_system_rejects_non_finite_matrices(field, bad, rng):
    parts = {"h1": random_hermitian(2, rng), "h2": random_hermitian(2, rng),
             "delta_h": random_hermitian(4, rng)}
    parts[field] = bad(parts[field])
    with pytest.raises(ValueError, match=f"^{field} is not finite$"):
        CompositeSystem(**parts)


def test_hartree_g_zero_decouples(rng):
    d = 3
    h1 = random_hermitian(d, rng)
    h2 = random_hermitian(d, rng)
    dh = random_hermitian(d * d, rng)
    sys0 = CompositeSystem(h1, h2, dh)
    r1 = _pure(rng, d)
    r2 = random_density_matrix(d, rng)
    dt, dw = 1e-3, 0.02
    new = composite._mean_field_step(composite._stacked(r1, r2, (1, 1)),
                                     composite._real_maps(sys0, [0.0]), 1.0, dt,
                                     np.array([0.5 * dw]))
    n1, n2 = new[0, 0, 0], new[1, 0, 0]
    assert np.allclose(n1, step_density(r1, h1, 1.0, dt, dw), atol=1e-13)
    assert np.allclose(n2, step_density(r2, h2, 1.0, dt, dw), atol=1e-13)


def test_hartree_incoherent_environment_bare_hamiltonian(rng):
    # coupling with vanishing environmental expectation: ΔH = A ⊗ B,
    # Tr(ρ₂B) = 0, so subsystem 1 sees its bare Hamiltonian
    d = 2
    h1 = random_hermitian(d, rng)
    h2 = np.diag([0.0, 1.0]).astype(complex)
    a = random_hermitian(d, rng)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], complex)   # offdiagonal: ⟨B⟩ = 0
    r2 = np.diag([1.0, 0.0]).astype(complex)
    sys = CompositeSystem(h1, h2, np.kron(a, b))
    r1 = _pure(rng, d)
    dt, dw = 1e-3, -0.013
    new = composite._mean_field_step(composite._stacked(r1, r2, (1, 1)),
                                     composite._real_maps(sys, [0.7]), 1.0, dt,
                                     np.array([0.5 * dw]))
    n1 = new[0, 0, 0]
    assert np.allclose(n1, step_density(r1, h1, 1.0, dt, dw), atol=1e-13)


def test_hartree_step_preserves_traces(rng):
    d = 3
    sys = CompositeSystem(random_hermitian(d, rng), random_hermitian(d, rng),
                          random_hermitian(d * d, rng))
    a = composite._stacked(_pure(rng, d), random_density_matrix(d, rng), (1, 1))
    maps = composite._real_maps(sys, [0.4])
    for dw in np.random.default_rng(0).standard_normal(5) * 0.03:
        a = composite._mean_field_step(a, maps, 1.0, 1e-3, np.array([0.5 * dw]))
        r1, r2 = a[0, 0, 0], a[1, 0, 0]
        assert abs(np.trace(r1).real - 1.0) < 1e-12
        assert abs(np.trace(r2).real - 1.0) < 1e-12
        assert np.abs(r1 - r1.conj().T).max() < 1e-12


def test_hartree_nonequilibrium_negative_control(rng):
    # with [rho2, H2] = O(1) the mean-field premise fails: the error stops
    # scaling quadratically (a low-order floor from the drift coupling
    # dominates), unlike the equilibrium case
    d = 3
    h1 = random_hermitian(d, rng)
    h2 = random_hermitian(d, rng)
    dh = random_hermitian(d * d, rng)
    dh /= np.linalg.norm(dh, 2)
    sys = CompositeSystem(h1, h2, dh)
    r1 = _pure(rng, d)
    spec_h2 = np.linalg.eigh(h2)[1]
    r2_eq = np.outer(spec_h2[:, 0], spec_h2[:, 0].conj())   # commuting
    r2_neq = _pure(rng, d)                                  # generic
    kw = dict(sigma=1.0, dt=5e-4, horizon=0.5, g_values=[0.1, 0.4],
              n_traj=8, base_seed=3)
    eq = hartree_vs_full(sys, r1, r2_eq, **kw)
    neq = hartree_vs_full(sys, r1, r2_neq, **kw)
    assert eq.exponent > 1.7
    assert neq.exponent < 1.0
    assert neq.mean_discrepancy[0] > 5.0 * eq.mean_discrepancy[0]


def test_hartree_correction_second_order_at_endpoint(rng):
    # once subsystem 1 sits in an eigenprojector of H1, the environment
    # correction Tr1(ΔH[H1',rho1]) is O(g): the correction term in the
    # environment equation is then O(g²) overall
    d = 3
    h1 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    r1 = np.diag([0.0, 1.0, 0.0]).astype(complex)    # reduction endpoint
    r2 = random_density_matrix(d, rng)
    dh = random_hermitian(d * d, rng)
    dh4 = dh.reshape(d, d, d, d)
    norms = []
    for g in (0.1, 0.2):
        h1_eff = h1 + g * partial_expectation(dh, r2, (d, d), over=2)
        comm1 = h1_eff @ r1 - r1 @ h1_eff
        corr = g * np.einsum("ikml,mi->kl", dh4, comm1)
        norms.append(np.linalg.norm(corr))
    assert 3.5 < norms[1] / norms[0] < 4.5   # corr ~ g²


def test_hartree_vs_full_g_zero_floor(rng):
    d = 3
    h1 = random_hermitian(d, rng)
    h2 = np.diag(np.linspace(0, 1.5, d)).astype(complex)
    dh = random_hermitian(d * d, rng)
    dh /= np.linalg.norm(dh, 2)
    sys = CompositeSystem(h1, h2, dh)
    r1 = _pure(rng, d)
    r2 = np.zeros((d, d), complex)
    r2[0, 0] = 1.0
    rep = hartree_vs_full(sys, r1, r2, sigma=1.0, dt=1e-3, horizon=0.2,
                          g_values=[0.0], n_traj=4, base_seed=7)
    assert rep.mean_discrepancy[0] < 1e-12


# -- reference: the dense (b, d, d) einsum stepper and inline mean-field loop
# that hartree_vs_full ran before it moved to the eigenbasis kernel ---------

def _ref_batched_step(r, h, sigma, dt, dws):
    hr = np.einsum("ij,bjk->bik", h, r) if h.ndim == 2 else np.einsum("bij,bjk->bik", h, r)
    rh = np.conj(np.transpose(hr, (0, 2, 1)))
    comm = hr - rh
    if h.ndim == 2:
        dcomm = np.einsum("ij,bjk->bik", h, comm) - np.einsum("bij,jk->bik", comm, h)
    else:
        dcomm = np.einsum("bij,bjk->bik", h, comm) - np.einsum("bij,bjk->bik", comm, h)
    tr = np.einsum("bii->b", hr).real
    n = hr + rh - 2.0 * r * tr[:, None, None]
    out = (r + dt * (-1j * comm - 0.125 * sigma * sigma * dcomm)
           + (0.5 * sigma) * dws[:, None, None] * n)
    out = 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))
    return out / np.einsum("bii->b", out).real[:, None, None]


def _ref_mean_field_step(sys, g, a1, a2, sigma, dt, dws):
    d1, d2 = sys.dims
    dh4 = sys.delta_h.reshape(d1, d2, d1, d2)
    h1_eff = sys.h1[None] + g * np.einsum("bkm,imjk->bij", a2, dh4)
    h2_eff = sys.h2[None] + g * np.einsum("bim,mkil->bkl", a1, dh4)
    comm1 = (np.einsum("bij,bjk->bik", h1_eff, a1)
             - np.einsum("bij,bjk->bik", a1, h1_eff))
    corr = g * np.einsum("ikml,bmi->bkl", dh4, comm1)
    new1 = _ref_batched_step(a1, h1_eff, sigma, dt, dws)
    new2 = _ref_batched_step(a2, h2_eff, sigma, dt, dws)
    new2 = new2 - dt * 0.125 * sigma * sigma * (
        np.einsum("bij,bjk->bik", corr, a2)
        - np.einsum("bij,bjk->bik", a2, corr))
    return new1, new2


def _ref_finals(sys, g, r1, r2, sigma, dt, n_steps, n_traj, base_seed):
    hfull = sys.total_hamiltonian(g)
    rho = np.tile(np.kron(r1, r2), (n_traj, 1, 1))
    a1 = np.tile(r1, (n_traj, 1, 1))
    a2 = np.tile(r2, (n_traj, 1, 1))
    gens = [trajectory_generator(base_seed, i) for i in range(n_traj)]
    done = 0
    while done < n_steps:
        n = min(256, n_steps - done)
        dws = np.stack([gg.standard_normal(n) for gg in gens]) * np.sqrt(dt)
        for j in range(n):
            dwj = dws[:, j]
            rho = _ref_batched_step(rho, hfull, sigma, dt, dwj)
            a1, a2 = _ref_mean_field_step(sys, g, a1, a2, sigma, dt, dwj)
            done += 1
    return rho, a1, a2


def _ref_report(sys, r1, r2, sigma, dt, n_steps, g_values, n_traj, base_seed):
    d1, d2 = sys.dims
    means, sems = [], []
    for g in g_values:
        rho, a1, _ = _ref_finals(sys, g, r1, r2, sigma, dt, n_steps, n_traj, base_seed)
        red = np.einsum("bikjk->bij", rho.reshape(n_traj, d1, d2, d1, d2))
        dev = np.linalg.norm(red - a1, axis=(1, 2))
        means.append(dev.mean())
        sems.append(dev.std(ddof=1) / np.sqrt(n_traj))
    return np.array(means), np.array(sems)


def _diff_case(env="equilibrium"):
    rng = np.random.default_rng(5)
    d = 3
    h1, h2 = 0.5 * random_hermitian(d, rng), 0.5 * random_hermitian(d, rng)
    dh = random_hermitian(d * d, rng)
    sys = CompositeSystem(h1, h2, dh / np.linalg.norm(dh, 2))
    if env == "equilibrium":   # an H2 eigenstate: zero floor at g = 0
        v2 = np.linalg.eigh(h2)[1][:, 1]
        r2 = np.outer(v2, v2.conj())
    else:
        r2 = random_density_matrix(d, rng)
    return sys, _pure(rng, d), r2


DIFF_KW = dict(sigma=1.0, dt=4e-4, n_traj=6, base_seed=11)   # σ²ΔE²dt ≈ 0.002
DIFF_STEPS = 300


@pytest.mark.parametrize("env", ["equilibrium", "generic"])
@pytest.mark.parametrize("g", [0.0, 0.4])
def test_eigenbasis_full_system_matches_dense_stepper(g, env):
    sys, r1, r2 = _diff_case(env)
    spectrum = np.linalg.eigh(sys.total_hamiltonian(g))
    kw = DIFF_KW
    kern = composite._PairKernel(sys, [g], [spectrum], r1, r2, kw["sigma"], kw["dt"])
    plan = ensemble._Plan(kern, None, kw["dt"], kw["base_seed"], -np.inf, DIFF_STEPS, 0,
                          DIFF_STEPS)
    rho, a1, a2 = (f[0] for f in ensemble._run_span(plan, 0, kw["n_traj"])[3])
    ref_rho, ref_a1, ref_a2 = _ref_finals(sys, g, r1, r2, kw["sigma"], kw["dt"], DIFF_STEPS,
                                          kw["n_traj"], kw["base_seed"])
    assert np.abs(rho - ref_rho).max() <= 1e-12
    assert np.abs(a1 - ref_a1).max() <= 1e-12
    assert np.abs(a2 - ref_a2).max() <= 1e-12
    assert np.abs(ref_rho - np.kron(r1, r2)).max() > 1e-3   # the states did move


def _sparse_case():
    # diagonal H1, H2 and an H2 eigenstate for the environment: at g = 0 the
    # eigenbasis is a permutation of the product basis, so ρ0 there has exact
    # zero coherences that a generic coupling fills
    rng = np.random.default_rng(5)
    d = 3
    dh = random_hermitian(d * d, rng)
    sys = CompositeSystem(np.diag([0.0, 0.45, 1.1]).astype(complex),
                          np.diag([0.0, 0.3, 0.8]).astype(complex), dh / np.linalg.norm(dh, 2))
    r2 = np.zeros((d, d), complex)
    r2[1, 1] = 1.0
    return sys, _pure(rng, d), r2


def test_coupling_batch_matches_single_g_calls():
    sys, r1, r2 = _sparse_case()
    iu = np.triu_indices(9, 1)
    support = []
    for g in (0.0, 0.4):
        u = np.linalg.eigh(sys.total_hamiltonian(g))[1]
        support.append((u.conj().T @ np.kron(r1, r2) @ u)[iu] != 0)
    assert support[0].sum() < support[1].sum() == iu[0].size   # the union support is used
    kw = dict(DIFF_KW, horizon=DIFF_STEPS * DIFF_KW["dt"])

    def rows(rep):
        return [(m.tobytes(), s.tobytes()) for m, s in zip(rep.mean_discrepancy, rep.sem)]

    batch = hartree_vs_full(sys, r1, r2, g_values=[0.0, 0.2, 0.4], **kw)
    singles = [rows(hartree_vs_full(sys, r1, r2, g_values=[g], **kw))[0]
               for g in (0.0, 0.2, 0.4)]
    assert rows(batch) == singles
    shuffled = hartree_vs_full(sys, r1, r2, g_values=[0.4, 0.0, 0.2], **kw)
    assert rows(shuffled) == [singles[2], singles[0], singles[1]]
    assert batch.mean_discrepancy[0] < 1e-12 < batch.mean_discrepancy[1]


def test_hartree_vs_full_matches_dense_reference():
    sys, r1, r2 = _diff_case()
    kw, gv = DIFF_KW, [0.0, 0.2, 0.4]
    rep = hartree_vs_full(sys, r1, r2, horizon=DIFF_STEPS * kw["dt"], g_values=gv, **kw)
    ref_mean, ref_sem = _ref_report(sys, r1, r2, kw["sigma"], kw["dt"], DIFF_STEPS, gv,
                                    kw["n_traj"], kw["base_seed"])
    assert rep.mean_discrepancy[0] < 1e-12
    assert np.allclose(rep.mean_discrepancy[1:], ref_mean[1:], rtol=1e-10, atol=0)
    assert np.allclose(rep.sem[1:], ref_sem[1:], rtol=1e-10, atol=0)


def test_hartree_step_is_a_row_of_the_batched_step(rng):
    d1, d2, b = 3, 2, 5
    sys = CompositeSystem(random_hermitian(d1, rng), random_hermitian(d2, rng),
                          random_hermitian(d1 * d2, rng))
    a1 = np.stack([_pure(rng, d1) for _ in range(b)])
    a2 = np.stack([random_density_matrix(d2, rng) for _ in range(b)])
    dws = rng.standard_normal(b) * 0.03
    maps = composite._real_maps(sys, [0.3])
    new = composite._mean_field_step(composite._stacked(a1, a2, (1, b)), maps, 1.0, 1e-3,
                                     0.5 * dws)
    new1, new2 = new[0, 0, :, :d1, :d1], new[1, 0, :, :d2, :d2]

    def layouts(a):   # the same matrix as a C array, a Fortran array and a transposed view
        return a, np.asfortranarray(a), np.ascontiguousarray(a.T).T

    for k in range(b):   # each column alone, as a batch of one
        steps = [composite._mean_field_step(composite._stacked(r1, r2, (1, 1)), maps, 1.0, 1e-3,
                                            0.5 * dws[k:k + 1])
                 for r1, r2 in zip(layouts(a1[k]), layouts(a2[k]))]
        steps = [(s[0, 0, 0, :d1, :d1], s[1, 0, 0, :d2, :d2]) for s in steps]
        for n1, n2 in steps:
            assert n1.tobytes() == steps[0][0].tobytes() and n2.tobytes() == steps[0][1].tobytes()
            assert np.abs(n1 - new1[k]).max() <= 1e-14
            assert np.abs(n2 - new2[k]).max() <= 1e-14


@settings(max_examples=100, deadline=None)
@given(d1=st.sampled_from([2, 3, 4]), d2=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2**32 - 1), g=st.floats(0.0, 1.0),
       dw=st.floats(-0.1, 0.1), dt=st.floats(1e-4, 1e-2))
def test_mean_field_step_properties(d1, d2, seed, g, dw, dt):
    rng = np.random.default_rng(seed)
    sys = CompositeSystem(random_hermitian(d1, rng), random_hermitian(d2, rng),
                          random_hermitian(d1 * d2, rng))
    # hartree_vs_full steps only at or below the hard bound (its stability guard)
    assume(spectral_range(sys.total_hamiltonian(g)) ** 2 * dt <= STABILITY_HARD)
    a1, a2 = random_density_matrix(d1, rng), random_density_matrix(d2, rng)
    maps, dws = composite._real_maps(sys, [g]), np.array([dw])
    a = composite._mean_field_step(composite._stacked(a1, a2, (1, 1)), maps, 1.0, dt, 0.5 * dws)
    ref = _ref_mean_field_step(sys, g, a1[None], a2[None], 1.0, dt, dws)
    for n, r, d in zip(a[:, 0, 0], ref, (d1, d2)):
        assert (n == n.conj().T).all()   # exactly Hermitian (±0 compare equal)
        assert abs(np.trace(n) - 1.0) <= 1e-12
        assert np.abs(n[:d, :d] - r[0]).max() <= 1e-13
    # the smaller factor's padded rows and columns stay exactly 0
    for dwj in rng.standard_normal(50) * np.sqrt(dt):
        a = composite._mean_field_step(a, maps, 1.0, dt, np.array([0.5 * dwj]))
    for n, d in zip(a[:, 0, 0], (d1, d2)):
        assert not n[d:].any() and not n[:, d:].any()
        assert abs(np.trace(n) - 1.0) <= 1e-12


def _bad_inputs():
    sys, r1, r2 = _diff_case()
    skew = r1 + 0.1j * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    neg = np.diag([1.1, 0.0, -0.1]).astype(complex)
    cases = {"dt-zero": ("dt", 0.0), "dt-negative": ("dt", -1e-3),
             "dt-nan": ("dt", float("nan")), "n_traj-zero": ("n_traj", 0),
             "g-nan": ("g_values", [0.1, float("nan")]), "g-inf": ("g_values", [float("inf")]),
             "g-empty": ("g_values", []),
             "rho1-non-hermitian": ("rho1_0", skew), "rho1-trace-2": ("rho1_0", 2.0 * r1),
             "rho2-negative": ("rho2_0", neg), "rho2-trace-half": ("rho2_0", 0.5 * r2),
             "rho2-wrong-size": ("rho2_0", np.eye(2) / 2),
             "sigma-nan": ("sigma", float("nan")), "sigma-inf": ("sigma", float("inf")),
             "sigma-negative": ("sigma", -1.0), "horizon-negative": ("horizon", -1.0),
             "horizon-0.4dt": ("horizon", 0.4e-3), "horizon-inf": ("horizon", float("inf")),
             "workers-zero": ("workers", 0), "workers-negative": ("workers", -2),
             "workers-fraction": ("workers", 2.5)}
    return [pytest.param(*v, id=k) for k, v in cases.items()]


@pytest.mark.parametrize("key,value", _bad_inputs())
def test_hartree_vs_full_rejects_bad_input(key, value):
    sys, r1, r2 = _diff_case()
    kw = dict(rho1_0=r1, rho2_0=r2, sigma=1.0, dt=1e-3, horizon=0.01, g_values=[0.0, 0.2],
              n_traj=2)
    kw[key] = value
    with pytest.raises(ValueError):
        hartree_vs_full(sys, **kw)


def test_hartree_vs_full_non_finite_finals_raise(monkeypatch):
    # bad input is rejected before any step, and the run checks only the full
    # system, so poison the mean-field system factor at every step
    step = composite._mean_field_step

    def poisoned(*args):
        a = step(*args)
        a[0, 0, 0, 0, 0] = np.nan
        return a

    monkeypatch.setattr(composite, "_mean_field_step", poisoned)
    sys, r1, r2 = _diff_case()
    # at workers=2 the four trajectories run as two forked spans, each poisoned
    for workers, n_traj in ((1, 2), (2, 4)):
        with pytest.raises(ValueError, match="non-finite final states at g=0.2"):
            hartree_vs_full(sys, r1, r2, sigma=1.0, dt=1e-3, horizon=0.01,
                            g_values=[0.2], n_traj=n_traj, workers=workers)


def test_hartree_vs_full_non_finite_full_system_stops_the_run(monkeypatch):
    start = composite._PairKernel.start

    def poisoned(self, b):   # one population of the last trajectory at the last coupling
        x = start(self, b)
        x[0, -1, -1] = np.nan
        return x

    monkeypatch.setattr(composite._PairKernel, "start", poisoned)
    sys, r1, r2 = _diff_case()
    for workers, n_traj in ((1, 2), (2, 4)):
        with pytest.raises(ValueError, match="non-finite populations at step 8;"):
            hartree_vs_full(sys, r1, r2, sigma=1.0, dt=1e-3, horizon=0.01,
                            g_values=[0.0, 0.2], n_traj=n_traj, workers=workers)


@pytest.mark.parametrize("seed", [3, 4])
def test_hartree_vs_full_identical_for_any_worker_count(seed, monkeypatch):
    sys, r1, r2 = _diff_case()
    kw = dict(sigma=1.0, dt=4e-4, horizon=20 * 4e-4, g_values=[0.0, 0.2, 0.4], base_seed=seed)
    widths, run_spans = [], composite._run_spans

    def spy(work, spans):
        widths.append([hi - lo for lo, hi in spans])
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        return run_spans(work, spans)

    monkeypatch.setattr(composite, "_run_spans", spy)
    for n_traj in (1, 2, 3, 5, 24):
        reports = []
        for workers in (1, 2, 3, 5, None):
            del widths[:]
            rep = hartree_vs_full(sys, r1, r2, n_traj=n_traj, workers=workers, **kw)
            reports.append((rep.mean_discrepancy.tobytes(), rep.sem.tobytes(),
                            np.float64(rep.exponent).tobytes()))
            w = os.cpu_count() if workers is None else workers
            assert sum(widths[0]) == n_traj
            assert len(widths[0]) == max(1, min(w, n_traj // 2))
            assert n_traj < 2 or min(widths[0]) >= 2   # no one-row gemv span
        assert reports[1:] == reports[:-1], n_traj


def test_hartree_vs_full_rejects_a_draw_above_the_hard_bound():
    # a draw of test_mean_field_step_properties whose mean-field steps turn to NaN within
    # 50 steps: σ²ΔE²dt = 1.64 there, so hartree_vs_full refuses to step it at all
    d, g, dt = 3, 1.0, 0.009765625
    rng = np.random.default_rng(1643)
    sys = CompositeSystem(random_hermitian(d, rng), random_hermitian(d, rng),
                          random_hermitian(d * d, rng))
    a1, a2 = random_density_matrix(d, rng), random_density_matrix(d, rng)
    assert spectral_range(sys.total_hamiltonian(g)) ** 2 * dt > 1.6
    with pytest.raises(StabilityError, match="exceeds hard bound"):
        hartree_vs_full(sys, a1, a2, sigma=1.0, dt=dt, horizon=50 * dt, g_values=[g], n_traj=2)


def test_hartree_vs_full_stability_guard():
    sys, r1, r2 = _diff_case()
    kw = dict(sigma=1.0, horizon=0.01, g_values=[0.0, 0.2], n_traj=2)
    with pytest.raises(StabilityError):
        hartree_vs_full(sys, r1, r2, dt=0.05, **kw)     # σ²ΔE²dt ≈ 0.28
    with pytest.warns(RuntimeWarning, match="comfort bound"):
        hartree_vs_full(sys, r1, r2, dt=5e-3, **kw)     # ≈ 0.028
