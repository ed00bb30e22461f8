import math
import os

import numpy as np
import pytest

from reductionlab import ensemble, reduction
from reductionlab.dynamics import StabilityError
from reductionlab.linalg import random_hermitian
from reductionlab.reduction import (
    EnsembleStats,
    born_statistics,
    gibbs_state,
    luders_scenario,
    reduction_time_scaling,
    statdist_martingale_run,
    variance_decay_check,
)


def test_gibbs_state_properties(rng):
    h = random_hermitian(4, rng)
    g = gibbs_state(h, 0.8).matrix
    assert abs(np.trace(g).real - 1.0) < 1e-12
    assert np.linalg.norm(g @ h - h @ g) < 1e-12
    # infinite temperature: maximally mixed
    g0 = gibbs_state(h, 0.0).matrix
    assert np.allclose(g0, np.eye(4) / 4, atol=1e-12)


def test_born_eigenstate_initial_state():
    h = np.diag([0.0, 1.0]).astype(complex)
    st = born_statistics(h, np.array([0, 1], complex), sigma=1.0,
                         n_traj=32, base_seed=0, dt=1e-3)
    assert st.frequencies[1] == 1.0
    assert st.n_unreduced == 0


def test_born_two_level_within_four_sigma():
    h = np.diag([0.0, 1.0]).astype(complex)
    chi = np.sqrt(np.array([0.3, 0.7], complex))
    st = born_statistics(h, chi, sigma=1.0, n_traj=600, base_seed=3, dt=1e-3)
    for f, p in zip(st.frequencies, st.expected):
        assert abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / st.n_traj)
    assert abs(st.frequencies.sum() - 1.0) < 1e-12
    # confidence intervals bracket the frequencies
    assert np.all(st.ci_lo <= st.frequencies) and np.all(st.frequencies <= st.ci_hi)


def test_born_nontrivial_basis(rng):
    # H not diagonal: weights are squared projections on its eigenvectors
    h = random_hermitian(2, rng) * 0.5 + np.diag([0.0, 2.0])
    from reductionlab.linalg import eig_hermitian

    spec = eig_hermitian(h)
    chi = spec.eigenvectors[:, 0] * math.sqrt(0.4) + spec.eigenvectors[:, 1] * math.sqrt(0.6)
    st = born_statistics(h, chi, sigma=1.0, n_traj=400, base_seed=11)
    assert abs(st.expected[0] - 0.4) < 1e-10
    assert abs(st.frequencies[0] - 0.4) <= 4.0 * math.sqrt(0.4 * 0.6 / 400)


def test_decay_check_requires_trajectories():
    stats = EnsembleStats(n_traj=50, outcome_labels=[], frequencies=np.array([]),
                          ci_lo=np.array([]), ci_hi=np.array([]))
    with pytest.raises(ValueError):
        variance_decay_check(stats, sigma=1.0)


def test_decay_sigma_zero_trivial():
    from reductionlab.ensemble import run_state_ensemble

    run = run_state_ensemble(np.array([0.0, 1.0]), np.sqrt([0.5, 0.5]).astype(complex),
                             sigma=0.0, dt=1e-3, base_seed=0, n_traj=200,
                             horizon_steps=400, record_stride=100,
                             stop_on_reduction=False)
    stats = EnsembleStats(n_traj=200, outcome_labels=[], frequencies=np.array([]),
                          ci_lo=np.array([]), ci_hi=np.array([]),
                          times=run.times, e_v=run.mean_v,
                          e_v_sem=run.sem_v, e_v2=run.mean_v2)
    # deterministic Euler drift of the populations is O(dt²) per step
    assert np.abs(np.diff(run.mean_v)).max() < 1e-4
    fit = variance_decay_check(stats, sigma=0.0)
    assert fit.slope == 0.0


def test_statdist_uniform_three_level():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rep = statdist_martingale_run(h, beta=0.0, sigma=1.0, n_traj=600,
                                  base_seed=5, dt=1e-3)
    assert rep.mean_dev_ratio <= 1.0
    for f in rep.stats.frequencies:
        assert abs(f - 1 / 3) <= 4.0 * math.sqrt((1 / 3) * (2 / 3) / 600)


def test_luders_beta_zero_always_transmits():
    bamp = np.sqrt(np.array([0.5, 0.5], complex))
    rep = luders_scenario(1.0, bamp, [0.5, 0.5], [1.0, 2.0], sigma=1.0,
                          n_traj=40, base_seed=1, dt=1e-3)
    assert rep.stats.frequencies[0] == 1.0
    assert rep.transmission_fidelity_min > 1.0 - 1e-12


def test_luders_validation():
    bamp = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError):
        luders_scenario(0.7, bamp, [0.6, 0.6], [1.0, 2.0], 1.0, 10, 0)
    with pytest.raises(ValueError):
        # degenerate measured branches are not separated
        luders_scenario(0.7, bamp, [0.5, 0.5], [1.0, 1.0], 1.0, 10, 0)


def test_scaling_sigma_zero_reports_unreduced():
    from reductionlab.ensemble import run_state_ensemble

    # σ = 0 with V(0) > 0 is rejected under stop_on_reduction; over a fixed
    # horizon every trajectory comes back unreduced
    run = run_state_ensemble(np.array([0.0, 1.0]), np.sqrt([0.5, 0.5]).astype(complex),
                             sigma=0.0, dt=1e-3, base_seed=0, n_traj=16,
                             horizon_steps=2000, stop_on_reduction=False)
    assert run.n_unreduced == 16
    assert np.all(np.isnan(run.reduction_times))


def test_scaling_two_point_smoke():
    rep = reduction_time_scaling([1.0, 2.0], [1.0, 2.0], n_traj=160,
                                 base_seed=4, max_steps=400_000)
    # quadrupling expected when doubling either knob
    assert 2.5 < rep.de_medians[0] / rep.de_medians[1] < 6.5
    assert 2.5 < rep.sigma_medians[0] / rep.sigma_medians[1] < 6.5


def test_scaling_points_run_on_every_cpu_with_identical_medians(monkeypatch):
    # workers=None runs the four points as min(cpus, 4) spans of whole points,
    # each point on one worker, so the medians keep their bytes
    calls, run_spans = [], ensemble._run_spans

    def spy(work, spans):
        calls.append(spans)
        return run_spans(work, spans)

    monkeypatch.setattr(ensemble, "_run_spans", spy)
    reps = []
    for workers in (None, 1):
        calls.clear()
        reps.append(reduction_time_scaling([1.0, 2.0], [1.0, 2.0], n_traj=64, base_seed=6,
                                           workers=workers))
        assert len(calls[0]) == (min(4, os.cpu_count() or 1) if workers is None else 1)
    for key in ("sigma_medians", "de_medians"):
        assert getattr(reps[0], key).tobytes() == getattr(reps[1], key).tobytes()
    assert reps[0].n_unreduced == reps[1].n_unreduced == 0



@pytest.mark.parametrize("sigmas, des", [([], []), ([1.0], [1.0, 2.0]), ([1.0, 2.0], [2.0, 2.0])])
def test_scaling_rejects_too_few_points_before_the_first_run(sigmas, des, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a scan point started")

    monkeypatch.setattr(reduction.ensemble, "_run_spans", no_run)
    with pytest.raises(ValueError, match="two distinct"):
        reduction_time_scaling(des, sigmas, n_traj=64)

def test_budget_error_raised():
    h = np.diag([0.0, 1.0]).astype(complex)
    chi = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(reduction.ReductionBudgetError):
        born_statistics(h, chi, sigma=1.0, n_traj=64, base_seed=0,
                        dt=1e-3, max_steps=200)


def test_stats_csv(tmp_path):
    h = np.diag([0.0, 1.0]).astype(complex)
    st = born_statistics(h, np.sqrt(np.array([0.4, 0.6], complex)),
                         sigma=1.0, n_traj=128, base_seed=9, dt=1e-3)
    st.outcome_csv(tmp_path / "o.csv")
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert lines[0] == "outcome,frequency,ci_lo,ci_hi"
    assert len(lines) == 3


@pytest.mark.parametrize("scenario", [
    lambda dt: born_statistics(np.diag([0.0, 3.0]), np.sqrt([0.5, 0.5]), 1.0, 16, 0, dt=dt),
    lambda dt: statdist_martingale_run(np.diag([0.0, 3.0]), 1.0, 1.0, 16, 0, dt=dt),
    lambda dt: luders_scenario(0.7, [1.0, 1.0], [0.5, 0.5], [1.0, 3.0], 1.0, 16, 0, dt=dt),
], ids=["born", "statdist", "luders"])
def test_scenarios_enforce_stability_guard(scenario):
    with pytest.raises(StabilityError, match="hard bound"):
        scenario(0.05)      # σ²ΔE²dt = 0.45
    with pytest.warns(RuntimeWarning, match="comfort bound"):
        scenario(0.0012)    # 0.0108: runs, with a warning


@pytest.mark.parametrize("scenario", [
    lambda: born_statistics(np.diag([0.0, 1.0]), np.sqrt([0.5, 0.5]), 0.0, 64, 0),
    lambda: statdist_martingale_run(np.diag([0.0, 1.0]), 0.5, 0.0, 64, 0),
    lambda: luders_scenario(0.7, [1.0, 1.0], [0.5, 0.5], [1.0, 3.0], 0.0, 64, 0),
    lambda: reduction_time_scaling([1.0, 2.0], [1.0, 0.0], n_traj=64),
    lambda: reduction_time_scaling([1.0, 2.0], [1.0, 2.0], sigma_ref=0.0, n_traj=64),
], ids=["born", "statdist", "luders", "scaling-sigma", "scaling-sigma-ref"])
def test_scenarios_reject_sigma_zero_before_the_first_step(scenario, monkeypatch):
    # σ = 0 never reduces a state with V(0) > 0: no run may start
    def no_run(*args, **kwargs):
        raise AssertionError("an ensemble run started")

    monkeypatch.setattr(reduction.ensemble, "run_state_ensemble", no_run)
    monkeypatch.setattr(reduction.ensemble, "run_density_ensemble", no_run)
    with pytest.raises(ValueError, match="sigma = 0 never reduces"):
        scenario()


def test_sigma_zero_accepted_for_an_eigenstate():
    # V(0) = 0: the state is reduced already, so σ = 0 is no error
    st = born_statistics(np.diag([0.0, 1.0]), np.array([0.0, 1.0]), 0.0, 16, 0)
    assert list(st.frequencies) == [0.0, 1.0]


@pytest.mark.parametrize("h, beta, sigma, dt", [
    (np.diag([0.0, 1.0]), 1000.0, 0.0, None),   # σ = 0, and the Gibbs state is |0⟩⟨0|
    (np.eye(2), 1.0, 1.0, 1e-3),                 # ΔE = 0: H ∝ I
], ids=["sigma-zero", "delta-e-zero"])
def test_statdist_default_horizon_is_zero_when_nothing_evolves(h, beta, sigma, dt):
    # σ·ΔE = 0: nothing evolves, so the default horizon is 0 and the run records
    # one record_stride before its first check
    rep = statdist_martingale_run(h, beta, sigma, 32, 0, dt=dt, workers=1)
    assert rep.stats.n_unreduced == 0 and rep.stats.frequencies[0] == 1.0
    assert rep.stats.times.size == 2
    assert rep.sup_mean_deviation <= 1e-15


@pytest.mark.parametrize("workers", [0, -2, 2.5])
def test_born_statistics_rejects_a_bad_worker_count(workers):
    with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
        born_statistics(np.diag([0.0, 1.0]), np.sqrt([0.3, 0.7]), 1.0, 16, 0, workers=workers)


@pytest.mark.parametrize("scenario", [
    lambda n, **kw: born_statistics(np.diag([0.0, 1.0]), np.sqrt([0.3, 0.7]), 1.0, n, 21,
                                    dt=5e-3, **kw),
    lambda n, **kw: statdist_martingale_run(np.diag([0.0, 1.0]), 0.5, 1.0, n, 22, dt=5e-3,
                                            horizon=2.0, **kw).stats,
    lambda n, **kw: luders_scenario(0.6, [1.0], [1.0], [1.0], 1.0, n, 23, dt=5e-3, **kw).stats,
], ids=["born", "statdist", "luders"])
def test_scenarios_default_to_every_cpu_with_the_same_results(scenario, monkeypatch):
    # two blocks of trajectories: the default runs them as two spans on two CPUs
    n = ensemble.BATCH_SIZE + 100
    widths = []
    run_spans = ensemble._run_spans

    def spy(work, spans):
        assert work.func is ensemble._run_span
        widths.append(len(spans))
        return run_spans(work, spans)

    monkeypatch.setattr(ensemble, "_run_spans", spy)
    default, serial = scenario(n), scenario(n, workers=1)
    assert widths == [min(2, os.cpu_count() or 1), 1]
    assert default.frequencies.tobytes() == serial.frequencies.tobytes()
    assert default.reduction_times.tobytes() == serial.reduction_times.tobytes()
