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
from pathlib import Path

import numpy as np

from . import ensemble
from .dynamics import check_stability, default_dt
from .linalg import DensityMatrix, as_matrix, as_vector, eig_hermitian

__all__ = [
    "GibbsSpec",
    "gibbs_state",
    "variance",
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


def variance(state, h) -> float:
    """V = Tr ρH² − (Tr ρH)² for a state vector or density matrix."""
    from .dynamics import energy_variance

    return energy_variance(state, h)


@dataclass(frozen=True)
class GibbsSpec:
    """Canonical distribution exp(−βH)/Z for a Hermitian H."""

    h: np.ndarray
    beta: float

    def state(self) -> DensityMatrix:
        return gibbs_state(self.h, self.beta)


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
        lines = ["outcome,frequency,ci_lo,ci_hi"]
        for lab, f, lo, hi in zip(self.outcome_labels, self.frequencies,
                                  self.ci_lo, self.ci_hi):
            lines.append(f"{lab},{f:.17g},{lo:.17g},{hi:.17g}")
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")

    def series_csv(self, path) -> None:
        lines = ["t,EV,EV_sem,EV2"]
        for t, v, s, v2 in zip(self.times, self.e_v, self.e_v_sem, self.e_v2):
            lines.append(f"{t:.17g},{v:.17g},{s:.17g},{v2:.17g}")
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")


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


def _check_reducible(sigma: float, e, p) -> None:
    """Raise ValueError when σ = 0 meets populations p over energies e with
    V(0) > 0: nothing reduces, and the first-passage phase would run to
    max_steps."""
    e, p = np.asarray(e, float), np.asarray(p, float)
    v0 = float(p @ (e * e) - (p @ e) ** 2)
    if sigma == 0 and v0 > 0:
        raise ValueError(f"sigma = 0 never reduces a state with energy variance "
                         f"V(0) = {v0:.3g} > 0")


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
    m = as_matrix(h)
    spec = eig_hermitian(m)
    c0 = spec.eigenvectors.conj().T @ as_vector(chi0)
    rng = float(spec.eigenvalues[-1] - spec.eigenvalues[0])
    dt = default_dt(sigma, rng) if dt is None else dt
    check_stability(sigma, dt, rng)
    _check_reducible(sigma, spec.eigenvalues, np.abs(c0) ** 2)
    run = ensemble.run_state_ensemble(
        spec.eigenvalues, c0, sigma, dt, base_seed, n_traj,
        groups=spec.degeneracy_groups, max_steps=max_steps, workers=workers,
    )
    weights = np.asarray(
        [sum(abs(c0[i]) ** 2 for i in g) for g in spec.degeneracy_groups])
    labels = [f"E={eg:.6g}" for eg in spec.group_energies()]
    stats = _stats_from_run(run, labels, expected=weights)
    if stats.n_unreduced > budget_fraction * n_traj:
        raise ReductionBudgetError(
            f"{stats.n_unreduced}/{n_traj} trajectories unreduced after {max_steps} steps"
        )
    return stats


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
    m = as_matrix(h)
    spec = eig_hermitian(m)
    e = spec.eigenvalues
    rng = float(e[-1] - e[0])
    dt = default_dt(sigma, rng) if dt is None else dt
    check_stability(sigma, dt, rng)
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    _check_reducible(sigma, e, w)
    if horizon is None:
        # covers the bulk of the reduction for the unbiased-mean phase; the
        # retirement phase afterwards handles the stragglers
        horizon = 20.0 / (sigma * sigma * max(rng, 1e-12) ** 2)
    horizon_steps = max(record_stride, int(round(horizon / dt)))
    rho0 = np.diag(w).astype(complex)

    run = ensemble.run_density_ensemble(
        e, rho0, sigma, dt, base_seed, n_traj,
        groups=spec.degeneracy_groups,
        horizon_steps=horizon_steps, record_stride=record_stride,
        stop_on_reduction=True, max_steps=max_steps, workers=workers,
    )
    gw = np.array([w[list(g)].sum() for g in spec.degeneracy_groups])
    labels = [f"E={eg:.6g}" for eg in spec.group_energies()]
    stats = _stats_from_run(run, labels, expected=gw)
    if stats.n_unreduced > budget_fraction * n_traj:
        raise ReductionBudgetError(
            f"{stats.n_unreduced}/{n_traj} trajectories unreduced after {max_steps} steps"
        )

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
    d = nb + nm
    e = np.concatenate([np.zeros(nb), me])
    c0 = np.concatenate([alpha * bamp, beta * np.sqrt(mw)])
    groups = (tuple(range(nb)),) + tuple((nb + i,) for i in range(nm))
    rng = float(e.max() - e.min())
    dt = default_dt(sigma, rng) if dt is None else dt
    check_stability(sigma, dt, rng)
    _check_reducible(sigma, e, np.abs(c0) ** 2)

    run = ensemble.run_state_ensemble(
        e, c0, sigma, dt, base_seed, n_traj, groups=groups,
        max_steps=max_steps, workers=workers,
    )
    expected = np.concatenate([[abs(alpha) ** 2], beta**2 * mw])
    labels = ["transmitted"] + [f"outcome_{i}" for i in range(nm)]
    stats = _stats_from_run(run, labels, expected=expected)
    if stats.n_unreduced > budget_fraction * n_traj:
        raise ReductionBudgetError(
            f"{stats.n_unreduced}/{n_traj} trajectories unreduced "
            f"(insufficient branch energy separation stalls reduction)"
        )

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


def _median_first_passage(sigma, de, n_traj, base_seed, max_steps, workers):
    e = np.array([0.0, de])
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    dt = default_dt(sigma, de)
    run = ensemble.run_state_ensemble(
        e, c0, sigma, dt, base_seed, n_traj, max_steps=max_steps, workers=workers)
    times = run.reduction_times
    return float(np.nanmedian(times)), int(np.sum(run.outcomes < 0))


def reduction_time_scaling(de_values, sigma_values, *, sigma_ref: float = 1.0,
                           de_ref: float = 1.0, n_traj: int = 512,
                           base_seed: int = 0, max_steps: int = 1_000_000,
                           workers: int | None = None) -> ScalingReport:
    """Scan two-level systems and fit median reduction time power laws.

    Expected exponents are −2 in both σ (at fixed splitting de_ref) and the
    splitting ΔE (at fixed sigma_ref).  Raises ValueError, before the first
    run, when a run would pair σ = 0 with a nonzero splitting.
    """
    sv = np.asarray(sigma_values, float)
    dv = np.asarray(de_values, float)
    for s, de in [(s, de_ref) for s in sv] + [(sigma_ref, de) for de in dv]:
        _check_reducible(s, [0.0, de], [0.5, 0.5])
    unred = 0
    med_s = []
    for i, s in enumerate(sv):
        m, u = _median_first_passage(s, de_ref, n_traj, base_seed + 1000 + i,
                                     max_steps, workers)
        med_s.append(m)
        unred += u
    med_d = []
    for i, de in enumerate(dv):
        m, u = _median_first_passage(sigma_ref, de, n_traj, base_seed + 2000 + i,
                                     max_steps, workers)
        med_d.append(m)
        unred += u
    med_s, med_d = np.asarray(med_s), np.asarray(med_d)
    exp_s = float(np.polyfit(np.log(sv), np.log(med_s), 1)[0])
    exp_d = float(np.polyfit(np.log(dv), np.log(med_d), 1)[0])
    return ScalingReport(
        sigma_values=sv, sigma_medians=med_s, sigma_exponent=exp_s,
        de_values=dv, de_medians=med_d, de_exponent=exp_d,
        n_unreduced=unred,
    )
