"""The benchmark's three workloads.

Each workload builds its inputs (`setup`), makes one scenario call into the
public API of reductionlab (`call`), gates the call's output with the
acceptance checks at the workload's size (`check`), and counts the useful
trajectory-steps and failed trajectories of that output.  The Hamiltonians
and initial states are fixed; the benchmark seed selects the noise streams
through `base_seed`.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
from scipy import stats as sstats

from reductionlab import composite, dynamics, linalg, reduction

MAX_STEPS = 10_000_000   # scenario default step budget per trajectory
BUDGET_FRACTION = 0.01   # at most 1% unreduced, as in the acceptance suite


def _first_passage_steps(reduction_times, dt, floor_steps=0):
    """Useful steps per trajectory: steps up to retirement, never fewer than
    the fixed horizon every trajectory runs, and the whole budget for one
    that never reduced."""
    t = np.asarray(reduction_times, float)
    steps = np.where(np.isnan(t), MAX_STEPS, np.round(np.nan_to_num(t) / dt))
    return np.maximum(steps, floor_steps).astype(np.int64)


def _within_bands(freqs, expected, n):
    return all(abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / n)
               for f, p in zip(freqs, expected))


class BornD4:
    """Criteria 08/13 shape: first-passage state runner with workers=nproc."""

    name = "born-d4"
    acceptance_seed = 808
    calls = 3             # scenario calls in a 30 s run
    sigma, dt, n_traj = 1.0, 5.6e-4, 2048
    n_ops = n_traj

    def setup(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        spec = linalg.eig_hermitian(h)   # set-up cost, as the scenario pays it
        return SimpleNamespace(h=h, chi0=np.sqrt(weights).astype(complex),
                               weights=weights, spec=spec)

    def call(self, inp, base_seed, workers, *, n_traj=None, max_steps=MAX_STEPS,
             budget_fraction=BUDGET_FRACTION):
        return reduction.born_statistics(
            inp.h, inp.chi0, sigma=self.sigma,
            n_traj=self.n_traj if n_traj is None else n_traj,
            base_seed=base_seed, dt=self.dt, max_steps=max_steps,
            budget_fraction=budget_fraction, workers=workers)

    def warm(self, inp, workers):
        self.call(inp, 0, workers, n_traj=16, max_steps=64, budget_fraction=1.0)

    def check(self, inp, st):
        n = st.n_traj
        within = _within_bands(st.frequencies, inp.weights, n)
        counts = np.round(st.frequencies * (n - st.n_unreduced))
        _, pval = sstats.chisquare(counts, inp.weights * counts.sum())
        ok = within and pval > 1e-3 and st.n_unreduced <= BUDGET_FRACTION * n
        return ok, {"freqs": np.round(st.frequencies, 4).tolist(),
                    "chi2_p": float(pval), "unreduced": st.n_unreduced}

    def steps(self, inp, st):
        return _first_passage_steps(st.reduction_times, self.dt)

    def failed(self, inp, st):
        return int(st.n_unreduced)


class GibbsD4:
    """Criterion 10, degenerate level: density runner, recorded horizon,
    then a first-passage tail; serial."""

    name = "gibbs-d4"
    acceptance_seed = 1011
    calls = 3
    sigma, dt, beta, n_traj, record_stride = 1.0, 1e-3, 0.7, 2048, 100
    n_ops = n_traj
    horizon = 5.0          # the scenario default 20/(σ²ΔE²) for ΔE = 2

    def setup(self):
        h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        return SimpleNamespace(h=h, spec=linalg.eig_hermitian(h),
                               horizon_steps=int(round(self.horizon / self.dt)))

    def call(self, inp, base_seed, workers, *, n_traj=None, horizon=None,
             max_steps=MAX_STEPS, budget_fraction=BUDGET_FRACTION):
        return reduction.statdist_martingale_run(
            inp.h, self.beta, sigma=self.sigma,
            n_traj=self.n_traj if n_traj is None else n_traj,
            base_seed=base_seed, dt=self.dt,
            horizon=self.horizon if horizon is None else horizon,
            record_stride=self.record_stride, max_steps=max_steps,
            budget_fraction=budget_fraction, workers=workers)

    def warm(self, inp, workers):
        self.call(inp, 0, workers, n_traj=16, horizon=0.2, max_steps=400,
                  budget_fraction=1.0)

    def check(self, inp, rep):
        n = rep.stats.n_traj
        split = rep.final_group_diagonals[1]
        freq_ok = _within_bands(rep.stats.frequencies, rep.gibbs_weights, n)
        split_ok = len(split) == 2 and split.min() > 0.3 * split.sum()
        ok = (rep.mean_dev_ratio <= 1.0 and freq_ok and split_ok
              and rep.stats.n_unreduced <= BUDGET_FRACTION * n)
        return ok, {"mean_dev_ratio": rep.mean_dev_ratio,
                    "freqs": np.round(rep.stats.frequencies, 4).tolist(),
                    "split": np.round(split, 3).tolist(),
                    "unreduced": rep.stats.n_unreduced}

    def steps(self, inp, rep):
        return _first_passage_steps(rep.stats.reduction_times, self.dt,
                                    floor_steps=inp.horizon_steps)

    def failed(self, inp, rep):
        return int(rep.stats.n_unreduced)


class HartreeDense:
    """Criterion 12 system (4⊗4, d=16): dense batched density kernel,
    full system against its mean-field pair at three couplings."""

    name = "hartree-dense"
    acceptance_seed = 1213
    calls = 2
    sigma, dt, horizon, n_traj = 1.0, 2e-4, 0.3, 24
    g_values = (0.0, 0.2, 0.4)
    n_ops = n_traj * len(g_values)   # one operation: one trajectory at one g

    def setup(self):
        rng = np.random.default_rng(1212)
        d = 4
        h1 = linalg.random_hermitian(d, rng)
        h2 = np.diag(np.linspace(0.0, 1.8, d)).astype(complex)
        dh = linalg.random_hermitian(d * d, rng)
        dh /= np.linalg.norm(dh, 2)
        v = linalg.random_pure_state(d, rng)
        rho2 = np.zeros((d, d), complex)
        rho2[1, 1] = 1.0
        return SimpleNamespace(system=composite.CompositeSystem(h1, h2, dh),
                               rho1=np.outer(v, v.conj()), rho2=rho2,
                               n_steps=int(round(self.horizon / self.dt)))

    def call(self, inp, base_seed, workers, *, n_traj=None, horizon=None):
        return composite.hartree_vs_full(
            inp.system, inp.rho1, inp.rho2, sigma=self.sigma, dt=self.dt,
            horizon=self.horizon if horizon is None else horizon,
            g_values=list(self.g_values),
            n_traj=self.n_traj if n_traj is None else n_traj,
            base_seed=base_seed)

    def warm(self, inp, workers):
        self.call(inp, 0, workers, n_traj=2, horizon=20 * self.dt)

    def check(self, inp, rep):
        floor, d_half, d_full = rep.mean_discrepancy
        ratio = d_full / d_half if d_half > 0 else float("inf")
        ok = (bool(np.all(np.isfinite(rep.mean_discrepancy))) and floor <= 1e-10
              and abs(ratio - 4.0) <= 1.2 and rep.exponent >= 1.7)
        return ok, {"floor": float(floor), "halving_ratio": float(ratio),
                    "exponent": rep.exponent}

    def steps(self, inp, rep):
        # one step: one trajectory advancing one dt of the full system plus
        # its mean-field pair, at one g
        return np.full(self.n_ops, inp.n_steps, np.int64)

    def failed(self, inp, rep):
        return self.n_traj * int(np.sum(~np.isfinite(rep.mean_discrepancy)))


def step_density_us(d=16, n_steps=200, repeats=5):
    """Median time of one public `dynamics.step_density` call on a d×d
    pure state, in µs."""
    rng = np.random.default_rng(d)
    h = linalg.random_hermitian(d, rng)
    v = linalg.random_pure_state(d, rng)
    rho0 = np.outer(v, v.conj())
    dt = 2e-4
    dws = rng.standard_normal(n_steps) * math.sqrt(dt)
    per_step = []
    for _ in range(repeats):
        rho = rho0
        t0 = time.perf_counter()
        for dw in dws:
            rho = dynamics.step_density(rho, h, 1.0, dt, dw)
        per_step.append((time.perf_counter() - t0) / n_steps)
    return float(np.median(per_step)) * 1e6


WORKLOADS = {w.name: w for w in (BornD4(), GibbsD4(), HartreeDense())}
