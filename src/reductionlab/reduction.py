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
from .linalg import as_vector, eig_hermitian

__all__ = [
    "gibbs_state",
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


def _gibbs_weights(e, beta):
    """exp(−βe)/Z, e shifted by its least value if β ≥ 0, else by its greatest: no exponent > 0."""
    w = np.exp(-beta * (e - (e.min() if beta >= 0 else e.max())))
    return w / w.sum()


def gibbs_state(h, beta: float) -> np.ndarray:
    """exp(−βH)/Z, computed in the eigenbasis (commutes with H by construction)."""
    spec = eig_hermitian(h)
    u = spec.eigenvectors
    return (u * _gibbs_weights(spec.eigenvalues, beta)) @ u.conj().T


def _energy_classes(spec):
    """The outcome classes of a scenario on H's spectrum, as keywords of
    _run_scenario: its degeneracy groups, each labelled by its energy."""
    return {"groups": spec.degeneracy_groups,
            "labels": [f"E={eg:.6g}" for eg in spec.group_energies()]}


def _run_scenario(e, state, sigma, n_traj, base_seed, *, dt, max_steps, budget_fraction,
                  workers, groups=None, labels=None, expected=None, horizon=0.0,
                  record_stride=0, stall=None):
    """What every scenario shares, for energies e and, in their eigenbasis,
    amplitudes or a density matrix `state`: ΔE over the occupied levels
    (nonzero |amplitude|² or diagonal entry), dt from it when None, the
    stability check before the first step, the ensemble run to
    reduction after a recorded horizon (None: 20/(σ²ΔE²), which covers the
    bulk of the reduction, stragglers retiring afterwards; 0 when σ·ΔE = 0,
    where nothing evolves), and the budget check, whose message ends in
    `stall` when given.  workers=None runs on every CPU, as the CLI does.
    Returns the run, its outcome groups named by labels and their expected
    probabilities in expected."""
    if not np.isfinite(e).all():   # before dt is derived from them
        raise ValueError(f"energies must be finite, got {e}")
    pop = np.real(np.diag(state)) if state.ndim == 2 else np.abs(state) ** 2
    occupied = e[pop != 0]   # a zero population stays exactly 0 in the ensemble kernels
    rng = float(occupied.max() - occupied.min()) if occupied.size else 0.0
    dt = default_dt(sigma, rng) if dt is None else dt
    check_stability(sigma, dt, rng)
    if horizon is None:   # nothing evolves when σ·ΔE = 0
        rate = sigma * sigma * rng ** 2
        horizon = 20.0 / rate if rate > 0 else 0.0
    run = ensemble.run_ensemble(e, state, sigma, dt, base_seed, n_traj, groups=groups,
                                horizon_steps=max(record_stride, int(round(horizon / dt))),
                                record_stride=record_stride, max_steps=max_steps, workers=workers)
    run.outcome_labels, run.expected = labels, expected
    if run.n_unreduced > budget_fraction * n_traj:
        raise ReductionBudgetError(f"{run.n_unreduced}/{n_traj} trajectories unreduced "
                                   + (stall or f"after {max_steps} steps"))
    return run


def born_statistics(h, chi0, sigma: float, n_traj: int, base_seed: int, *,
                    dt: float | None = None, max_steps: int = ensemble.MAX_STEPS,
                    budget_fraction: float = 0.01,
                    workers: int | None = None) -> ensemble.EnsembleRun:
    """Run state-vector trajectories to reduction and tally the outcomes.

    Endpoints are classified by the dominant eigenvalue (or degenerate
    group) population; the run's frequencies come with 4-sigma binomial
    intervals, and its expected probabilities are the groups' initial
    weights.  Raises ReductionBudgetError when more than
    budget_fraction of the trajectories fail to reduce in max_steps,
    StabilityError when σ²ΔE²dt exceeds the hard bound, and ValueError, before
    the first step, when σ = 0 and V(0) > 0.
    """
    spec = eig_hermitian(h)
    c0 = spec.eigenvectors.conj().T @ as_vector(chi0)
    weights = np.asarray(
        [sum(abs(c0[i]) ** 2 for i in g) for g in spec.degeneracy_groups])
    return _run_scenario(
        spec.eigenvalues, c0, sigma, n_traj, base_seed, dt=dt, max_steps=max_steps,
        budget_fraction=budget_fraction, workers=workers, expected=weights,
        **_energy_classes(spec))


@dataclass
class DecayFit:
    """Through-origin regression of dE[V]/dt against −σ²E[V²]."""

    slope: float
    stderr: float


def variance_decay_check(run: ensemble.EnsembleRun, sigma: float) -> DecayFit:
    """Fit the decay law on the recorded series of an ensemble run.

    Uses centered finite differences of E[V] on the record grid versus the
    grid-midpoint average of −σ²E[V²]; the law predicts slope 1.
    """
    if run.n_traj < 100:
        raise ValueError("need at least 100 trajectories for a stable estimate")
    if run.times is None or run.mean_v is None:
        raise ValueError("the run recorded no E[V] series")
    t, ev, ev2 = run.times, run.mean_v, run.mean_v2
    y = np.diff(ev) / np.diff(t)
    x = -(sigma**2) * 0.5 * (ev2[1:] + ev2[:-1])
    if not np.any(x != 0):
        return DecayFit(slope=0.0, stderr=0.0)
    slope = float((x @ y) / (x @ x))
    resid = y - slope * x
    dof = max(len(x) - 1, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / (x @ x)))
    return DecayFit(slope=slope, stderr=stderr)


@dataclass
class StatdistReport:
    """Result of an equilibrium-martingale ensemble run."""

    stats: ensemble.EnsembleRun
    gibbs_weights: np.ndarray          # per degeneracy group
    mean_dev_ratio: float              # sup of deviation / (5·SEM) over grid
    worst_time: float                  # the record time where that ratio peaks
    worst_deviation: float             # ‖mean ρ − f(H)‖_F at worst_time
    worst_allowed: float               # 5 × Frobenius SEM at worst_time
    final_group_diagonals: list        # per group: mean diagonal split of finals


def statdist_martingale_run(h, beta: float, sigma: float, n_traj: int,
                            base_seed: int, *, dt: float | None = None,
                            horizon: float | None = None,
                            record_stride: int = 100,
                            max_steps: int = ensemble.MAX_STEPS,
                            budget_fraction: float = 0.01,
                            workers: int | None = None) -> StatdistReport:
    """Evolve ρ0 = exp(−βH)/Z under the pure-noise martingale equation.

    Verifies that the ensemble mean stays at the Gibbs state on the record
    grid, then lets every trajectory run to its reduction endpoint and
    tallies the outcome frequencies against the Gibbs weights.  Raises
    ValueError on a non-finite beta, and the errors of born_statistics.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    spec = eig_hermitian(h)
    e = spec.eigenvalues
    w = _gibbs_weights(e, beta)
    gw = np.array([w[list(g)].sum() for g in spec.degeneracy_groups])
    run = _run_scenario(
        e, np.diag(w).astype(complex), sigma, n_traj, base_seed, dt=dt, max_steps=max_steps,
        budget_fraction=budget_fraction, workers=workers, expected=gw, horizon=horizon,
        record_stride=record_stride, **_energy_classes(spec))

    target = np.diag(w)
    dev = np.linalg.norm(run.mean_rho - target[None], axis=(1, 2))
    allowed = 5.0 * run.sem_rho_frob
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(allowed > 0, dev / allowed, 0.0)
    worst = int(ratio.argmax())

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
        stats=run,
        gibbs_weights=gw,
        mean_dev_ratio=float(ratio[worst]),
        worst_time=float(run.times[worst]),
        worst_deviation=float(dev[worst]),
        worst_allowed=float(allowed[worst]),
        final_group_diagonals=splits,
    )


@dataclass
class LudersReport:
    """Outcome statistics for the partial-measurement scenario."""

    stats: ensemble.EnsembleRun
    transmission_fidelity_min: float
    phase_error_max: float


def luders_scenario(alpha: complex, branch_amplitudes, measured_weights,
                    measured_energies, sigma: float, n_traj: int,
                    base_seed: int, *, dt: float | None = None,
                    workers: int | None = None) -> LudersReport:
    """Partial measurement: amplitude alpha to pass through untouched.

    The untouched branch spans an energy-degenerate submanifold (one basis
    state per entry of branch_amplitudes, all at energy 0); each measured
    branch sits alone at its entry of measured_energies.  Checks that the
    transmitted outcome occurs with frequency |alpha|², and that
    transmitted endpoints reproduce the branch state — relative phases
    included.  Runs on born_statistics' default budget and raises its errors.
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
    run = _run_scenario(
        e, c0, sigma, n_traj, base_seed, dt=dt, max_steps=ensemble.MAX_STEPS,
        budget_fraction=0.01, workers=workers,
        groups=(tuple(range(nb)),) + tuple((nb + i,) for i in range(nm)),
        labels=["transmitted"] + [f"outcome_{i}" for i in range(nm)], expected=expected,
        stall="(insufficient branch energy separation stalls reduction)")

    sel = run.outcomes == 0
    if sel.any():
        sub = run.final_states[sel][:, :nb]
        sub = sub / np.linalg.norm(sub, axis=1)[:, None]
        fmin = float(np.abs(sub @ bamp.conj()).min())
        if nb >= 2:
            ref = np.angle(bamp[1] / bamp[0])
            dphi = np.angle(sub[:, 1] / sub[:, 0]) - ref
            dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
            phase_err = float(np.abs(dphi).max())
        else:
            phase_err = 0.0
    else:
        fmin, phase_err = 0.0, float("nan")
    return LudersReport(stats=run, transmission_fidelity_min=fmin, phase_error_max=phase_err)


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


def reduction_time_scaling(de_values, sigma_values, *, n_traj: int = 512, base_seed: int = 0,
                           workers: int | None = None) -> ScalingReport:
    """Scan two-level systems and fit median reduction time power laws.

    Expected exponents are −2 in both σ (at splitting 1) and the
    splitting ΔE (at σ = 1).  Each point runs its trajectories for at most
    10⁶ steps and counts those left unreduced.  The scan's points run as
    contiguous spans on min(workers, points) forked processes, workers=None
    meaning every CPU, each point on one worker, so the medians are the same
    bytes for any worker count.  Raises ValueError, before the first run, on
    a σ of 0, which never reduces the splitting-1 state, on fewer than two
    distinct σ or ΔE values, which fit no exponent, and on workers other than
    None or an integer ≥ 1.
    """
    workers = ensemble._workers(workers)
    sv = np.asarray(sigma_values, float)
    dv = np.asarray(de_values, float)
    if min(np.unique(sv).size, np.unique(dv).size) < 2:
        raise ValueError(f"the power-law fits need two distinct sigma values and two distinct "
                         f"splittings, got {sv.tolist()} and {dv.tolist()}")
    scan = ([(s, 1.0, base_seed + 1000 + i) for i, s in enumerate(sv)]
            + [(1.0, de, base_seed + 2000 + i) for i, de in enumerate(dv)])
    for s in sv:   # the ΔE points run at σ = 1
        ensemble._check_reducible(s, [0.0, 1.0], [0.5, 0.5])

    def points(lo, hi):
        """(median reduction time, unreduced count) of scan points lo..hi−1."""
        out = []
        for s, de, seed in scan[lo:hi]:
            run = _run_scenario(np.array([0.0, de]), np.sqrt(np.array([0.5, 0.5], complex)),
                                s, n_traj, seed, dt=None, max_steps=1_000_000,
                                budget_fraction=1.0, workers=1)
            out.append((float(np.nanmedian(run.reduction_times)), run.n_unreduced))
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
