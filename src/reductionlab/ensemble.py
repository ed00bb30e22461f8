"""Reproducible vectorized ensemble runner for reduction statistics.

Each trajectory's noise depends only on (base_seed, index) and no
arithmetic mixes trajectories, so results are byte-identical for any
batching or worker count.  Evolution happens in the eigenbasis of H, where
the updates are elementwise.

State vectors evolve as real populations p, shape (d, b).  The Euler step
of the amplitudes multiplies cᵢ by f = 1 − (σ²/8)k²dt + (σ/2)k dW − iEᵢdt,
k = Eᵢ − ⟨H⟩, and renormalizes; the populations therefore follow
p ← p·|f|² / Σp·|f|², the same discrete process, positive by construction.
Amplitudes are rebuilt at retirement as c0ᵢ/|c0ᵢ|·√pᵢ·e^{−iEᵢt}, so relative
phases inside a degenerate group stay exact.

Density matrices evolve on the support of ρ0, shape (d + m, b): the d
populations, then the m nonzero upper-triangle coherences of ρ0, each entry
multiplied by its own factor per step.  A zero entry stays zero and the
(j, i) factor is the exact conjugate of the (i, j) one, so the lower triangle
is implied.  The array is float64 for a diagonal ρ0 (every Gibbs run) and
complex otherwise; dense (d, d) matrices are built only for finals and means.
The density kernel also takes a stack of G spectra with their rotated ρ0
(composite.hartree_vs_full runs every coupling so): it then evolves one
(d + m, G, b) array on the union of the G supports, in which an entry off one
matrix's support stays exactly 0, so each (g, trajectory) column goes through
the arithmetic of its own single-spectrum run.  (A diagonal ρ0 stacked with a
coherent one is evolved in complex arithmetic, which agrees with its float64
run to rounding.)

A run has two phases: an optional fixed-horizon recording phase in which
every trajectory keeps evolving (so recorded ensemble means are unbiased),
followed, when stop_on_reduction is set, by a first-passage phase in which
trajectories are retired once V ≤ eps·V(0) and a dominant outcome-group
population is ≥ popmin, so every retired endpoint classifies unambiguously.

Trajectories come in blocks of BATCH_SIZE indices.  A worker runs a
contiguous span of whole blocks as one batch, so its stragglers share one
first-passage tail; recorded sums are taken per block and added in block
order.  With workers > 1 the spans run in forked processes, which inherit
the inputs without a re-import (the kernels call no BLAS, so no BLAS thread
state crosses the fork); without the fork start method they run serially.
"""

from __future__ import annotations

import multiprocessing
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .noise import trajectory_generator

__all__ = ["EnsembleRun", "run_state_ensemble", "run_density_ensemble"]

BATCH_SIZE = 1024
CHUNK = 256
CHECK_STRIDE = 8

REDUCTION_EPS = 0.01
POPULATION_MIN = 0.99
NORM_TOL = 1e-8


@dataclass
class EnsembleRun:
    """Aggregated result of an ensemble integration."""

    n_traj: int
    dt: float
    energies: np.ndarray
    groups: tuple
    times: np.ndarray | None = None
    mean_v: np.ndarray | None = None
    sem_v: np.ndarray | None = None
    mean_v2: np.ndarray | None = None
    mean_e: np.ndarray | None = None
    sem_e: np.ndarray | None = None
    mean_rho: np.ndarray | None = None
    sem_rho_frob: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    reduction_times: np.ndarray | None = None
    final_states: np.ndarray | None = None

    @property
    def n_unreduced(self) -> int:
        return int(np.sum(self.outcomes < 0))

    def outcome_frequencies(self) -> np.ndarray:
        ok = self.outcomes >= 0
        if not ok.any():
            return np.zeros(len(self.groups))
        return np.bincount(self.outcomes[ok], minlength=len(self.groups)) / ok.sum()


def _colsum(x):
    """Σ over axis 0 of a (d, …) array, rows added in index order whatever its
    layout: numpy does so for a C-contiguous array with more than one column
    but sums a single column pairwise, so a strided view (the .real of a
    complex array) is copied first and a single column is added row by row."""
    if x[0].size > 1:
        return np.ascontiguousarray(x).sum(0)
    return reduce(np.add, x)


class _StateKernel:
    """Eigenbasis populations of state vectors, shape (d, b)."""

    def __init__(self, e, c0, sigma, dt):
        self.shape, self.p0, self.energies = c0.shape, np.abs(c0) ** 2, e
        self.phase0 = np.exp(1j * np.angle(c0))
        self.e, self.edt2 = e[:, None], (e * dt)[:, None] ** 2
        self.half_sigma, self.drift = 0.5 * sigma, 0.125 * sigma * sigma * dt

    def start(self, b):
        return np.repeat(self.p0[:, None], b, axis=1)

    def advance(self, p, dw):
        k = self.e - _colsum(p * self.e)
        a = 1.0 + k * (self.half_sigma * dw - self.drift * k)
        p *= a * a + self.edt2
        p /= _colsum(p)

    def populations(self, p):
        return p

    def renorm(self, p):
        pass  # advance normalizes every step

    def record(self, p):
        return ()

    def summarize(self, out, sums, n):
        pass

    def final(self, p, t):
        return self.phase0 * np.exp(-1j * self.energies * t) * np.sqrt(p.T)


class _DensityKernel:
    """Eigenbasis density matrices on the support of ρ0, shape (d + m, b), for
    energies e (d,) and ρ0 (d, d); for stacks e (G, d) and ρ0 (G, d, d), shape
    (d + m, G, b) on the union support of the G matrices."""

    def __init__(self, e, r0, sigma, dt):
        d = e.shape[-1]
        iu, ju = np.triu_indices(d, 1)
        on = (r0[..., iu, ju] != 0).reshape(-1, iu.size).any(0)
        self.shape, self.d, self.iu, self.ju = r0.shape[-2:], d, iu[on], ju[on]
        i, j = np.r_[np.arange(d), self.iu], np.r_[np.arange(d), self.ju]
        x0 = r0[..., i, j]
        x0[..., :d] = x0[..., :d].real
        x0, e = np.moveaxis(x0, -1, 0), np.moveaxis(e, -1, 0)  # level axis first
        de = e[i] - e[j]
        drift = 1.0 + dt * (-1j * de - 0.125 * sigma * sigma * de ** 2)
        real = not self.iu.size  # a diagonal ρ0 stays diagonal: evolve it as float64
        self.x0 = x0.real if real else x0
        self.drift = (drift.real if real else drift)[..., None]
        self.anti, self.e, self.half_sigma = (e[i] + e[j])[..., None], e[..., None], 0.5 * sigma

    def start(self, b):
        return np.repeat(self.x0[..., None], b, axis=-1)

    def populations(self, x):
        return x[:self.d].real

    def advance(self, x, dw):
        tr_h = _colsum(self.populations(x) * self.e)
        x *= self.drift + self.half_sigma * dw * (self.anti - 2.0 * tr_h)

    def renorm(self, x):
        x /= _colsum(self.populations(x))

    def record(self, x):
        return x, (x.conj() * x).real

    def dense(self, x):
        """(…, d + m) support values → (…, d, d) Hermitian matrices."""
        d, diag = self.d, np.arange(self.d)
        r = np.zeros(x.shape[:-1] + (d, d), complex)
        r[..., diag, diag] = x[..., :d]
        r[..., self.iu, self.ju] = x[..., d:]
        r[..., self.ju, self.iu] = x[..., d:].conj()
        return r

    def summarize(self, out, sums, n):
        out.mean_rho = self.dense(sums[0] / n)
        var_elem = np.maximum(self.dense(sums[1] / n).real - np.abs(out.mean_rho) ** 2, 0.0)
        out.sem_rho_frob = np.sqrt(var_elem.sum(axis=(1, 2)) / n)

    def final(self, x, t):
        return self.dense(np.moveaxis(x, 0, -1))


# everything a span needs besides its index range
_Plan = namedtuple("_Plan", "kernel e groups dt base_seed v_stop popmin horizon_steps "
                            "record_stride stop_on_reduction max_steps")


def _run_span(plan: _Plan, lo: int, hi: int):
    """Both phases for trajectories lo..hi−1 as one batch: the recorded sums
    of each block, then the span's outcomes, reduction times and finals."""
    kern, dt = plan.kernel, plan.dt
    e, e2 = plan.e[:, None], plan.e[:, None] ** 2
    b = hi - lo
    gens = [trajectory_generator(plan.base_seed, i) for i in range(lo, hi)]
    x, alive = kern.start(b), np.arange(b)
    tred, outcomes = np.full(b, np.nan), np.full(b, -1, np.int64)
    finals = np.zeros((b,) + kern.shape, complex)
    blocks = range(0, b, BATCH_SIZE)
    recs = [[] for _ in blocks]
    singletons = plan.groups == tuple((i,) for i in range(len(plan.e)))

    def moments():
        pop = kern.populations(x)
        eh = _colsum(pop * e)
        return pop, eh, _colsum(pop * e2) - eh * eh

    def record():
        _, eh, v = moments()
        terms = (v, v * v, eh, eh * eh) + kern.record(x)
        for rec, s in zip(recs, blocks):
            rec.append([t[..., s:s + BATCH_SIZE].sum(-1) for t in terms])

    def check():
        pop, _, v = moments()
        if not np.isfinite(pop).all():
            raise ValueError(f"non-finite populations at step {step}; dt too large?")
        if (pop < 0).any():
            raise ValueError(f"negative population at step {step}; dt too large?")
        gp = pop if singletons else np.stack([_colsum(pop[list(g)]) for g in plan.groups])
        return (v <= plan.v_stop) & (gp.max(0) >= plan.popmin), gp

    def retire(hit, gp):
        idx = np.nonzero(hit)[0]
        gi = alive[idx]
        outcomes[gi] = gp[:, idx].argmax(0)
        tred[gi] = np.where(np.isnan(tred[gi]), step * dt, tred[gi])
        finals[gi] = kern.final(np.take(x, idx, axis=1), step * dt)
        return ~hit

    step, retiring, sq = 0, False, np.sqrt(dt)
    if plan.record_stride:
        record()
    while alive.size:
        if step == plan.horizon_steps and not retiring:
            if not plan.stop_on_reduction:
                break
            retiring = True
            kern.renorm(x)
            keep = retire(*check())
            x, alive = np.compress(keep, x, axis=1), alive[keep]
            continue
        end = plan.max_steps if retiring else plan.horizon_steps
        if step >= end:
            break
        dws = np.empty((alive.size, min(CHUNK, end - step)))
        for k, i in enumerate(alive):
            gens[i].standard_normal(out=dws[k])
        dws *= sq
        rows = np.arange(alive.size)  # dws rows of the alive trajectories: retiring copies no noise
        for j in range(dws.shape[1]):
            kern.advance(x, dws[rows, j])
            step += 1
            if step % CHECK_STRIDE == 0:
                kern.renorm(x)
                hit, gp = check()
                if not retiring:
                    tred[hit & np.isnan(tred)] = step * dt
                elif hit.any():
                    keep = retire(hit, gp)
                    x, alive, rows = np.compress(keep, x, axis=1), alive[keep], rows[keep]
                    if not alive.size:
                        break
            if not retiring and plan.record_stride and step % plan.record_stride == 0:
                record()
    finals[alive] = kern.final(x, step * dt)
    sums = [[np.array(col) for col in zip(*rec)] for rec in recs]
    return sums, outcomes, tred, finals


def _fork_context():
    ok = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork") if ok else None


def _span_child(plan, lo, hi, conn):
    try:
        conn.send((True, _run_span(plan, lo, hi)))
    except Exception as exc:  # report to the parent, which re-raises
        conn.send((False, exc))
    finally:
        conn.close()


def _run_spans(plan: _Plan, spans):
    """_run_span over each span: in forked processes when there is more
    than one span and fork is available, else serially."""
    ctx = _fork_context()
    if len(spans) == 1 or ctx is None:
        return [_run_span(plan, lo, hi) for lo, hi in spans]
    procs, results = [], []
    try:
        for lo, hi in spans:
            r, w = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_span_child, args=(plan, lo, hi, w))
            p.start()
            w.close()
            procs.append((p, r))
        for p, r in procs:
            try:
                ok, val = r.recv()
            except EOFError:
                p.join()
                raise RuntimeError(f"ensemble worker exited with code {p.exitcode} "
                                   "before sending its result") from None
            if not ok:
                raise val
            results.append(val)
        return results
    finally:
        for p, r in procs:
            r.close()
            if p.is_alive():
                p.terminate()
            p.join()


def _check_input(e, state, ndim, sigma, dt, n_traj):
    """Reject input that could never meet the stopping rule."""
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if e.ndim != 1 or not np.isfinite(e).all():
        raise ValueError("energies must be a finite 1-D array")
    if state.shape != (e.shape[0],) * ndim or not np.isfinite(state).all():
        raise ValueError(f"initial state must be finite with {e.shape[0]} levels, "
                         f"got shape {state.shape}")
    if ndim == 2 and (np.linalg.norm(state - state.conj().T) > NORM_TOL
                      or np.linalg.eigvalsh(state).min() < -NORM_TOL):
        raise ValueError("initial density matrix must be Hermitian and positive semidefinite")
    mass = np.sum(np.abs(state) ** 2) if ndim == 1 else np.trace(state)
    if not abs(mass - 1.0) <= NORM_TOL:
        raise ValueError(f"initial state must have unit {'norm' if ndim == 1 else 'trace'}, "
                         f"got {mass:.17g}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")


def _run(kernel, e, p0, dt, base_seed, n_traj, workers, groups, eps, popmin,
         horizon_steps, record_stride, stop_on_reduction, max_steps) -> EnsembleRun:
    """Split n_traj into spans of whole blocks, run them, merge in order."""
    groups = tuple((i,) for i in range(e.shape[0])) if groups is None else tuple(groups)
    v0 = float(p0 @ (e * e) - (p0 @ e) ** 2)
    plan = _Plan(kernel, e, groups, dt, base_seed, eps * v0 if v0 > 0 else 0.0, popmin,
                 horizon_steps, record_stride, stop_on_reduction, max_steps)
    n_blocks = -(-n_traj // BATCH_SIZE)
    parts = np.array_split(np.arange(n_blocks), max(1, min(workers or 1, n_blocks)))
    results = _run_spans(plan, [(q[0] * BATCH_SIZE, min((q[-1] + 1) * BATCH_SIZE, n_traj))
                                for q in parts])
    out = EnsembleRun(n_traj=n_traj, dt=dt, energies=e, groups=groups)
    out.outcomes, out.reduction_times, out.final_states = (
        np.concatenate([r[k] for r in results]) for k in (1, 2, 3))
    if record_stride:
        sums = [sum(terms) for terms in zip(*(blk for r in results for blk in r[0]))]
        n, (s_v, s_v2, s_e, s_e2) = n_traj, sums[:4]  # sums added in block order
        out.times = np.arange(s_v.shape[0]) * record_stride * dt
        out.mean_v, out.mean_v2, out.mean_e = s_v / n, s_v2 / n, s_e / n
        out.sem_v = np.sqrt(np.maximum(out.mean_v2 - out.mean_v**2, 0.0) / n)
        out.sem_e = np.sqrt(np.maximum(s_e2 / n - out.mean_e**2, 0.0) / n)
        kernel.summarize(out, sums[4:], n)
    return out


def run_state_ensemble(energies, c0, sigma: float, dt: float, base_seed: int, n_traj: int, *,
                       groups=None, eps: float = REDUCTION_EPS, popmin: float = POPULATION_MIN,
                       horizon_steps: int = 0, record_stride: int = 0,
                       stop_on_reduction: bool = True, max_steps: int = 10_000_000,
                       workers: int | None = None) -> EnsembleRun:
    """Integrate n_traj state-vector trajectories in the H eigenbasis.

    energies: eigenvalues of H; c0: initial amplitudes in the eigenbasis,
    of unit norm; groups: outcome classes (default: one per level).  Raises
    ValueError on non-finite, wrongly sized or unnormalized input, a
    non-finite or negative sigma, dt ≤ 0, or populations that turn
    non-finite.
    """
    e = np.asarray(energies, dtype=float)
    c0 = np.asarray(c0, dtype=complex)
    _check_input(e, c0, 1, sigma, dt, n_traj)
    kernel = _StateKernel(e, c0, sigma, dt)
    return _run(kernel, e, kernel.p0, dt, base_seed, n_traj, workers, groups, eps, popmin,
                horizon_steps, record_stride, stop_on_reduction, max_steps)


def run_density_ensemble(energies, rho0, sigma: float, dt: float, base_seed: int, n_traj: int,
                         *, groups=None, eps: float = REDUCTION_EPS,
                         popmin: float = POPULATION_MIN, horizon_steps: int = 0,
                         record_stride: int = 0, stop_on_reduction: bool = True,
                         max_steps: int = 10_000_000, workers: int | None = None) -> EnsembleRun:
    """Integrate density-matrix trajectories of the anticommutator-form
    equation in the H eigenbasis, where the update is elementwise:

        ρ′_ij = ρ_ij · [1 + dt(−i(Eᵢ−Eⱼ) − (σ²/8)(Eᵢ−Eⱼ)²)
                          + (σ/2)(Eᵢ+Eⱼ − 2 Tr ρH) dW].

    For [ρ0, H] = 0 the drift factors are inert on the populated entries
    and this is exactly the pure-noise martingale evolution.  Raises the
    errors of run_state_ensemble, with unit trace in place of unit norm, and
    on a non-Hermitian or non-positive ρ0 or populations that turn negative.
    """
    e = np.asarray(energies, dtype=float)
    r0 = np.asarray(rho0, dtype=complex)
    _check_input(e, r0, 2, sigma, dt, n_traj)
    return _run(_DensityKernel(e, r0, sigma, dt), e, np.real(np.diag(r0)), dt, base_seed,
                n_traj, workers, groups, eps, popmin, horizon_steps, record_stride,
                stop_on_reduction, max_steps)
