"""Ensemble-level statistical verification of the reduction dynamics.

Provides the Born-rule frequency test, the variance-decay law
dE[V] = −σ²E[V²]dt as a regression, the equilibrium-martingale runs whose
stochastic expectation reproduces Gibbs statistics, the partial-measurement
(transmission) scenario with its projection-postulate checks, and the
empirical scaling of the reduction time with σ and the level splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .dynamics import check_stability, default_dt
from .linalg import DensityMatrix, as_matrix, as_vector, eig_hermitian, write_csv

__all__ = [
    "gibbs_state",
    "EnsembleStats",
    "ReductionBudgetError",
    "born_statistics",
    "DecayFit",
    "variance_decay_check",
    "StatdistReport",
    "statdist_martingale_run",
    "LudersReport",
    "luders_scenario",
    "ScalingReport",
    "reduction_time_scaling",
]


class ReductionBudgetError(RuntimeError):
    """More than the allowed fraction of trajectories failed to reduce."""


def gibbs_state(h, beta: float) -> DensityMatrix:
    """exp(−βH)/Z, computed in the eigenbasis (commutes with H by construction)."""
    spec = eig_hermitian(as_matrix(h))
    w = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues.min()))
    w /= w.sum()
    u = spec.eigenvectors
    return DensityMatrix((u * w) @ u.conj().T, purity_tag="mixed")


@dataclass
class EnsembleStats:
    """Outcome frequencies with binomial confidence intervals plus the
    recorded E[V], E[V²] series and per-trajectory first-passage times."""

    n_traj: int
    outcome_labels: list
    frequencies: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    expected: np.ndarray | None = None
    times: np.ndarray | None = None
    e_v: np.ndarray | None = None
    e_v_sem: np.ndarray | None = None
    e_v2: np.ndarray | None = None
    reduction_times: np.ndarray | None = None
    n_unreduced: int = 0

    def outcome_csv(self, path) -> None:
        write_csv(path, "outcome,frequency,ci_lo,ci_hi",
                  zip(self.outcome_labels, self.frequencies, self.ci_lo, self.ci_hi))

    def series_csv(self, path) -> None:
        write_csv(path, "t,EV,EV_sem,EV2",
                  zip(self.times, self.e_v, self.e_v_sem, self.e_v2))


def _binomial_ci(freq: np.ndarray, n: int, z: float = 4.0):
    half = z * np.sqrt(np.maximum(freq * (1 - freq), 0.0) / n)
    return np.clip(freq - half, 0, 1), np.clip(freq + half, 0, 1)


def _stats_from_run(run: ensemble.EnsembleRun, labels, expected=None) -> EnsembleStats:
    freq = run.outcome_frequencies()
    lo, hi = _binomial_ci(freq, max(run.n_traj - run.n_unreduced, 1))
    return EnsembleStats(
        n_traj=run.n_traj,
        outcome_labels=list(labels),
        frequencies=freq,
        ci_lo=lo,
        ci_hi=hi,
        expected=None if expected is None else np.asarray(expected, float),
        times=run.times,
        e_v=run.mean_v,
        e_v_sem=run.sem_v,
        e_v2=run.mean_v2,
        reduction_times=run.reduction_times,
        n_unreduced=run.n_unreduced,
    )


def _run_scenario(e, state, sigma, n_traj, base_seed, *, dt, max_steps, budget_fraction,
                  workers, groups=None, labels=(), expected=None, horizon=0.0,
                  record_stride=0, stall=None):
    """What every scenario shares, for energies e and, in their eigenbasis,
    amplitudes or a density matrix `state`: dt from the spectral range when
    None, the stability and σ = 0 checks before the first step, the ensemble
    run to reduction after a recorded horizon (None: 20/(σ²ΔE²), which covers
    the bulk of the reduction, stragglers retiring afterwards; 0 when
    σ·ΔE = 0, where nothing evolves), the outcome tally, and the budget
    check, whose message ends in `stall` when given.
    workers=None runs on every CPU, as the CLI does.  Returns the run and
    its EnsembleStats."""
    workers = ensemble._workers(workers)
    rng = float(e.max() - e.min())
    dt = default_dt(sigma, rng) if dt is None else dt
    check_stability(sigma, dt, rng)
    density = state.ndim == 2
    ensemble._check_reducible(sigma, e, np.real(np.diag(state)) if density else np.abs(state) ** 2)
    if horizon is None:   # nothing evolves when σ·ΔE = 0
        rate = sigma * sigma * rng ** 2
        horizon = 20.0 / rate if rate > 0 else 0.0
    runner = ensemble.run_density_ensemble if density else ensemble.run_state_ensemble
    run = runner(e, state, sigma, dt, base_seed, n_traj, groups=groups,
                 horizon_steps=max(record_stride, int(round(horizon / dt))),
                 record_stride=record_stride, max_steps=max_steps, workers=workers)
    stats = _stats_from_run(run, labels, expected)
    if stats.n_unreduced > budget_fraction * n_traj:
        raise ReductionBudgetError(f"{stats.n_unreduced}/{n_traj} trajectories unreduced "
                                   + (stall or f"after {max_steps} steps"))
    return run, stats


def born_statistics(h, chi0, sigma: float, n_traj: int, base_seed: int, *,
                    dt: float | None = None, max_steps: int = 10_000_000,
                    budget_fraction: float = 0.01,
                    workers: int | None = None) -> EnsembleStats:
    """Run state-vector trajectories to reduction and tally the outcomes.

    Endpoints are classified by the dominant eigenvalue (or degenerate
    group) population; frequencies come back with 4-sigma binomial
    intervals.  Raises ReductionBudgetError when more than
    budget_fraction of the trajectories fail to reduce in max_steps,
    StabilityError when σ²ΔE²dt exceeds the hard bound, and ValueError, before
    the first step, when σ = 0 and V(0) > 0.
    """
    spec = eig_hermitian(as_matrix(h))
    c0 = spec.eigenvectors.conj().T @ as_vector(chi0)
    weights = np.asarray(
        [sum(abs(c0[i]) ** 2 for i in g) for g in spec.degeneracy_groups])
    return _run_scenario(
        spec.eigenvalues, c0, sigma, n_traj, base_seed, dt=dt, max_steps=max_steps,
        budget_fraction=budget_fraction, workers=workers, groups=spec.degeneracy_groups,
        labels=[f"E={eg:.6g}" for eg in spec.group_energies()], expected=weights)[1]


@dataclass
class DecayFit:
    """Through-origin regression of dE[V]/dt against −σ²E[V²]."""

    slope: float
    stderr: float
    n_points: int

    @property
    def ci95(self):
        return (self.slope - 1.96 * self.stderr, self.slope + 1.96 * self.stderr)


def variance_decay_check(stats: EnsembleStats, sigma: float) -> DecayFit:
    """Fit the decay law on a recorded ensemble series.

    Uses centered finite differences of E[V] on the record grid versus the
    grid-midpoint average of −σ²E[V²]; the law predicts slope 1.
    """
    if stats.n_traj < 100:
        raise ValueError("need at least 100 trajectories for a stable estimate")
    if stats.times is None or stats.e_v is None:
        raise ValueError("stats carry no recorded E[V] series")
    t, ev, ev2 = stats.times, stats.e_v, stats.e_v2
    y = np.diff(ev) / np.diff(t)
    x = -(sigma**2) * 0.5 * (ev2[1:] + ev2[:-1])
    if not np.any(x != 0):
        return DecayFit(slope=0.0, stderr=0.0, n_points=len(x))
    slope = float((x @ y) / (x @ x))
    resid = y - slope * x
    dof = max(len(x) - 1, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / (x @ x)))
    return DecayFit(slope=slope, stderr=stderr, n_points=len(x))


@dataclass
class StatdistReport:
    """Result of an equilibrium-martingale ensemble run."""

    stats: EnsembleStats
    gibbs_weights: np.ndarray          # per degeneracy group
    sup_mean_deviation: float          # sup_t ‖mean ρ(t) − f(H)‖_F
    sup_allowed: float                 # 5 × max Frobenius SEM over the grid
    mean_dev_ratio: float              # sup of deviation / (5·SEM) over grid
    final_group_diagonals: list        # per group: mean diagonal split of finals


def statdist_martingale_run(h, beta: float, sigma: float, n_traj: int,
                            base_seed: int, *, dt: float | None = None,
                            horizon: float | None = None,
                            record_stride: int = 100,
                            max_steps: int = 10_000_000,
                            budget_fraction: float = 0.01,
                            workers: int | None = None) -> StatdistReport:
    """Evolve ρ0 = exp(−βH)/Z under the pure-noise martingale equation.

    Verifies that the ensemble mean stays at the Gibbs state on the record
    grid, then lets every trajectory run to its reduction endpoint and
    tallies the outcome frequencies against the Gibbs weights.  Raises the
    errors of born_statistics.
    """
    spec = eig_hermitian(as_matrix(h))
    e = spec.eigenvalues
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    gw = np.array([w[list(g)].sum() for g in spec.degeneracy_groups])
    run, stats = _run_scenario(
        e, np.diag(w).astype(complex), sigma, n_traj, base_seed, dt=dt, max_steps=max_steps,
        budget_fraction=budget_fraction, workers=workers, groups=spec.degeneracy_groups,
        labels=[f"E={eg:.6g}" for eg in spec.group_energies()], expected=gw,
        horizon=horizon, record_stride=record_stride)

    target = np.diag(w)
    dev = np.linalg.norm(run.mean_rho - target[None], axis=(1, 2))
    allowed = 5.0 * run.sem_rho_frob
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(allowed > 0, dev / allowed, 0.0)

    final_diag = np.einsum("bii->bi", run.final_states).real
    splits = []
    for gi, g in enumerate(spec.degeneracy_groups):
        sel = run.outcomes == gi
        if sel.any():
            sub = final_diag[sel][:, list(g)]
            splits.append(sub.mean(axis=0))
        else:
            splits.append(np.zeros(len(g)))
    return StatdistReport(
        stats=stats,
        gibbs_weights=gw,
        sup_mean_deviation=float(dev.max()),
        sup_allowed=float(allowed.max()),
        mean_dev_ratio=float(ratio.max()),
        final_group_diagonals=splits,
    )


@dataclass
class LudersReport:
    """Outcome statistics for the partial-measurement scenario."""

    stats: EnsembleStats
    expected: np.ndarray
    transmission_fidelity_min: float
    transmission_fidelity_mean: float
    phase_error_max: float
    n_transmitted: int


def luders_scenario(alpha: complex, branch_amplitudes, measured_weights,
                    measured_energies, sigma: float, n_traj: int,
                    base_seed: int, *, dt: float | None = None,
                    max_steps: int = 10_000_000,
                    budget_fraction: float = 0.01,
                    workers: int | None = None) -> LudersReport:
    """Partial measurement: amplitude alpha to pass through untouched.

    The untouched branch spans an energy-degenerate submanifold (one basis
    state per entry of branch_amplitudes, all at energy 0); each measured
    branch sits alone at its entry of measured_energies.  Checks that the
    transmitted outcome occurs with frequency |alpha|², and that
    transmitted endpoints reproduce the branch state — relative phases
    included.  Raises the errors of born_statistics.
    """
    bamp = np.asarray(branch_amplitudes, complex)
    bamp = bamp / np.linalg.norm(bamp)
    mw = np.asarray(measured_weights, float)
    if abs(mw.sum() - 1.0) > 1e-10:
        raise ValueError("measured branch weights must sum to 1")
    me = np.asarray(measured_energies, float)
    if me.shape != mw.shape:
        raise ValueError("one energy per measured branch required")
    if np.any(np.abs(me) < 1e-6) or len(set(np.round(me, 12))) != len(me):
        raise ValueError("measured branches need well-separated nonzero energies")
    beta = math.sqrt(max(1.0 - abs(alpha) ** 2, 0.0))
    nb, nm = len(bamp), len(mw)
    e = np.concatenate([np.zeros(nb), me])
    c0 = np.concatenate([alpha * bamp, beta * np.sqrt(mw)])
    expected = np.concatenate([[abs(alpha) ** 2], beta**2 * mw])
    run, stats = _run_scenario(
        e, c0, sigma, n_traj, base_seed, dt=dt, max_steps=max_steps,
        budget_fraction=budget_fraction, workers=workers,
        groups=(tuple(range(nb)),) + tuple((nb + i,) for i in range(nm)),
        labels=["transmitted"] + [f"outcome_{i}" for i in range(nm)], expected=expected,
        stall="(insufficient branch energy separation stalls reduction)")

    sel = run.outcomes == 0
    n_trans = int(sel.sum())
    if n_trans:
        sub = run.final_states[sel][:, :nb]
        sub = sub / np.linalg.norm(sub, axis=1)[:, None]
        fid = np.abs(sub @ bamp.conj())
        fmin, fmean = float(fid.min()), float(fid.mean())
        if nb >= 2:
            ref = np.angle(bamp[1] / bamp[0])
            dphi = np.angle(sub[:, 1] / sub[:, 0]) - ref
            dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
            phase_err = float(np.abs(dphi).max())
        else:
            phase_err = 0.0
    else:
        fmin = fmean = 0.0
        phase_err = float("nan")
    return LudersReport(
        stats=stats,
        expected=expected,
        transmission_fidelity_min=fmin,
        transmission_fidelity_mean=fmean,
        phase_error_max=phase_err,
        n_transmitted=n_trans,
    )


@dataclass
class ScalingReport:
    """Empirical power laws of the median reduction time."""

    sigma_values: np.ndarray
    sigma_medians: np.ndarray
    sigma_exponent: float
    de_values: np.ndarray
    de_medians: np.ndarray
    de_exponent: float
    n_unreduced: int


def reduction_time_scaling(de_values, sigma_values, *, sigma_ref: float = 1.0,
                           de_ref: float = 1.0, n_traj: int = 512,
                           base_seed: int = 0, max_steps: int = 1_000_000,
                           workers: int | None = None) -> ScalingReport:
    """Scan two-level systems and fit median reduction time power laws.

    Expected exponents are −2 in both σ (at fixed splitting de_ref) and the
    splitting ΔE (at fixed sigma_ref).  The scan's points run as contiguous
    spans on min(workers, points) forked processes, workers=None meaning
    every CPU, each point on one worker, so the medians are the same bytes
    for any worker count.  Raises ValueError, before the first run, when a
    run would pair σ = 0 with a nonzero splitting, on fewer than two distinct
    σ or ΔE values, which fit no exponent, and on workers other than None or
    an integer ≥ 1.
    """
    workers = ensemble._workers(workers)
    sv = np.asarray(sigma_values, float)
    dv = np.asarray(de_values, float)
    if min(np.unique(sv).size, np.unique(dv).size) < 2:
        raise ValueError(f"the power-law fits need two distinct sigma values and two distinct "
                         f"splittings, got {sv.tolist()} and {dv.tolist()}")
    scan = ([(s, de_ref, base_seed + 1000 + i) for i, s in enumerate(sv)]
            + [(sigma_ref, de, base_seed + 2000 + i) for i, de in enumerate(dv)])
    for s, de, _ in scan:
        ensemble._check_reducible(s, [0.0, de], [0.5, 0.5])

    def points(lo, hi):
        """(median reduction time, unreduced count) of scan points lo..hi−1."""
        out = []
        for s, de, seed in scan[lo:hi]:
            _, stats = _run_scenario(np.array([0.0, de]), np.sqrt(np.array([0.5, 0.5], complex)),
                                     s, n_traj, seed, dt=None, max_steps=max_steps,
                                     budget_fraction=1.0, workers=1)
            out.append((float(np.nanmedian(stats.reduction_times)), stats.n_unreduced))
        return out

    spans = ensemble._split(len(scan), min(workers, len(scan)))
    medians, unred = zip(*(p for part in ensemble._run_spans(points, spans) for p in part))
    med_s, med_d = np.asarray(medians[:len(sv)]), np.asarray(medians[len(sv):])
    exp_s = float(np.polyfit(np.log(sv), np.log(med_s), 1)[0])
    exp_d = float(np.polyfit(np.log(dv), np.log(med_d), 1)[0])
    return ScalingReport(
        sigma_values=sv, sigma_medians=med_s, sigma_exponent=exp_s,
        de_values=dv, de_medians=med_d, de_exponent=exp_d,
        n_unreduced=sum(unred),
    )
