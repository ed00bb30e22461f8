"""Reproducible vectorized ensemble runner for reduction statistics.

Each trajectory's noise depends only on (base_seed, index) and no
arithmetic mixes trajectories, so results are byte-identical for any
batching or worker count.  Evolution happens in the eigenbasis of H, where
the updates are elementwise.

State vectors evolve as real populations p, shape (d, b).  A step
multiplies the amplitudes cᵢ by e^{−iEᵢdt}·a, a = 1 + k((σ/2)dW − (σ²/8)k dt),
k = Eᵢ − ⟨H⟩, and renormalizes; the populations follow p ← p·a² / Σp·a²,
positive by construction, and see H only through k, as the equation does.
A final's amplitudes are rebuilt at its time t as c0ᵢ/|c0ᵢ|·√pᵢ·e^{−iEᵢt}, so
relative phases inside a degenerate group stay exact.

Density matrices evolve on the support of ρ0, shape (d + m, b): the d
populations, then the m nonzero upper-triangle coherences of ρ0, each entry
multiplied by its own factor per step.  A zero entry stays zero and the
(j, i) factor is the exact conjugate of the (i, j) one, so the lower triangle
is implied.  The array is float64 for a diagonal ρ0 (every Gibbs run) and
complex otherwise; dense (d, d) matrices are built only for finals and means.
A population rounded below 0, as in a composite run's rotated ρ0, starts at 0.
The energies are centered on the occupied levels' midpoint, so Tr ρH stays
small on a trace that drifts between renormalizations, at any zero of energy.
The density kernel also takes a stack of G spectra with their rotated ρ0
(composite.hartree_vs_full runs every coupling so): it then evolves one
(d + m, G, b) array on the union of the G supports, in which an entry off one
matrix's support stays exactly 0, so each (g, trajectory) column goes through
the arithmetic of its own single-spectrum run.  (A diagonal ρ0 stacked with a
coherent one is evolved in complex arithmetic, which agrees with its float64
run to rounding.)

Each kernel steps on a workspace of its batch width b.  It holds the per-row
constants (energies, the drift factors, Eᵢ + Eⱼ)
materialized to the full (…, b) shape, and the scratch arrays, so that each
ufunc of a step and of the check runs on same-shape C-contiguous operands
with out=: at these sizes a broadcast operand costs numpy about twice a
same-shape one (a (4, 1024)·(4, 1) multiply about 6–7 µs, against 3.5 µs
with a (4, 1024) operand), and no step allocates an array of the batch's
shape.  start(b) builds the workspace; compact(x, keep) drops the retired
columns from x and resizes the workspace with it.

Every batched step, advance(x, u) here as in `dynamics` and `composite`,
takes u = (σ/2)·dW per column, drawn as (z·√dt)·(σ/2) in step-major chunks
of CHUNK steps, shape (CHUNK, b): row j holds every trajectory's step-j u,
so each step reads one contiguous row (after a retirement inside the chunk,
the row's alive columns).  Each trajectory's Philox stream fills a row of a
(NOISE_GROUP, CHUNK) buffer, which is scaled in place and written
transposed into NOISE_GROUP columns of the chunk.  At 64 rows that buffer
is 128 KB, so it stays in L2 while it is scaled and transposed; a
trajectory-major (b, CHUNK) chunk is 4 MB at b = 2048, and gathering one
strided column of it cost about 15 µs a step, against about 3 µs a step
for the blocked transpose and 0.1 µs for a row.  A span allocates one flat
CHUNK·b buffer when it starts and draws every chunk into its contiguous
(n, alive) prefix, so it holds one chunk, 2 KB a trajectory, and never the
next chunk beside the last one.

A run has two phases: a fixed-horizon recording phase of horizon_steps
(possibly none) in which every trajectory keeps evolving (so recorded
ensemble means are unbiased), then a first-passage phase up to max_steps
(none when max_steps = horizon_steps).  One stepping loop runs both and
checks the stopping rule every CHECK_STRIDE steps, and at the horizon when a
first-passage phase follows: V ≤ REDUCTION_EPS·V(0) over the batch, then a
dominant outcome-group population ≥ POPULATION_MIN among the columns that
pass, so every stopped state classifies unambiguously.  A trajectory has one
record, its time and kernel column at the first check it meets, in either
phase, and its outcome and final come from that column.  A first-passage
check drops every column with a record (at the horizon, also those of the
recording phase).  One that never met the rule gets outcome −1, a NaN time
and its column at the last step.

Trajectories come in blocks of BATCH_SIZE indices.  A worker runs a
contiguous span of whole blocks as one batch, so its stragglers share one
first-passage tail; recorded sums are taken per block and added in block
order.  workers=None means every CPU, for the runners as for the scenarios
and the Hartree harness.  With workers > 1 the spans run in forked
processes, which inherit the inputs without a re-import, and on Linux are
killed when the process that forked them exits, so a CLI killed alone leaves
no worker running; without the fork start method they run serially.  The
pool, _run_spans, takes its work as a callable of (lo, hi): the eigenbasis
runner and composite.hartree_vs_full both pass _run_span bound to a plan, so
one loop steps and checks every batched kernel.  The eigenbasis kernels call
no BLAS, but the mean-field step's matmuls do, so a Hartree worker runs BLAS
after the fork.  A test checks that forked workers get correct BLAS matmuls
after the parent has run a threaded 800×800 one.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
import os
import signal
import sys
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import _variance, check_sigma_dt
from .linalg import check_state, write_csv
from .noise import trajectory_generator

__all__ = ["EnsembleRun", "run_ensemble"]

BATCH_SIZE = 1024
CHUNK = 256
NOISE_GROUP = 64
CHECK_STRIDE = 8

REDUCTION_EPS = 0.01
POPULATION_MIN = 0.99
NORM_TOL = 1e-8
MAX_STEPS = 10_000_000   # the step budget of one trajectory


@dataclass
class EnsembleRun:
    """Aggregated result of an ensemble integration, and the result of every
    ensemble scenario of `reduction`, which also names each outcome group in
    outcome_labels and gives its expected probability in expected.  Each
    trajectory's reduction time, outcome and final state are of one step, its
    first that met the stopping rule (NaN, −1 and the last step if none)."""

    n_traj: int
    dt: float
    groups: tuple
    times: np.ndarray | None = None
    mean_v: np.ndarray | None = None
    sem_v: np.ndarray | None = None
    mean_v2: np.ndarray | None = None
    mean_rho: np.ndarray | None = None
    sem_rho_frob: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    reduction_times: np.ndarray | None = None
    final_states: np.ndarray | None = None
    outcome_labels: list | None = None
    expected: np.ndarray | None = None

    @property
    def n_unreduced(self) -> int:
        return int(np.sum(self.outcomes < 0))

    @property
    def frequencies(self) -> np.ndarray:
        """Each group's share of the reduced trajectories (all 0 when none reduced)."""
        ok = self.outcomes >= 0
        if not ok.any():
            return np.zeros(len(self.groups))
        return np.bincount(self.outcomes[ok], minlength=len(self.groups)) / ok.sum()

    @property
    def ci_lo(self) -> np.ndarray:
        return self._binomial_ci()[0]

    @property
    def ci_hi(self) -> np.ndarray:
        return self._binomial_ci()[1]

    def _binomial_ci(self):
        """The frequencies ± 4 binomial standard deviations over the reduced
        trajectories, clipped to [0, 1]."""
        freq = self.frequencies
        half = 4.0 * np.sqrt(np.maximum(freq * (1 - freq), 0.0)
                             / max(self.n_traj - self.n_unreduced, 1))
        return np.clip(freq - half, 0, 1), np.clip(freq + half, 0, 1)

    def outcome_csv(self, path) -> None:
        write_csv(path, "outcome,frequency,ci_lo,ci_hi",
                  zip(self.outcome_labels, self.frequencies, self.ci_lo, self.ci_hi))

    def series_csv(self, path) -> None:
        write_csv(path, "t,EV,EV_sem,EV2", zip(self.times, self.mean_v, self.sem_v, self.mean_v2))


def _colsum(x):
    """Σ over axis 0 of a (d, …) array, rows added in index order whatever its
    layout: numpy does so for a C-contiguous array with more than one column
    but sums a single column pairwise, so a strided view (the .real of a
    complex array) is copied first and a single column is accumulated.  The
    ufunc reduce is .sum(0) without its Python wrapper."""
    if x[0].size > 1:
        return np.add.reduce(np.ascontiguousarray(x), 0)
    return np.add.accumulate(x, 0)[-1]


class _Kernel:
    """What both kernels share: the workspace self.w of x's batch width, with
    each (…, 1) constant of self.rows repeated to x's shape and one array of
    that shape per name in self.scratch; start and compact rebuild it."""

    def start(self, b):
        return self._build(np.repeat(self.x0[..., None], b, axis=-1))

    def compact(self, x, keep):
        """The columns of x where keep is true; the workspace follows."""
        return self._build(np.compress(keep, x, axis=-1))

    def _build(self, x):
        w = {k: np.repeat(c, x.shape[-1], axis=-1) for k, c in self.rows.items()}
        w.update((k, np.empty(x.shape)) for k in self.scratch)
        self.w = SimpleNamespace(pe=w["t"][:len(w["e"])], **w)   # pe: t's first d rows
        return x

    def moments(self, x):
        """The populations and V = Σp(e − ⟨e⟩)² of every column."""
        w, pop = self.w, self.populations(x)
        k = np.subtract(w.e, _colsum(np.multiply(pop, w.e, out=w.pe)), out=w.pe)
        return pop, _colsum(np.multiply(np.multiply(k, k, out=k), pop, out=k))


class _StateKernel(_Kernel):
    """Eigenbasis populations of state vectors, shape (d, b)."""

    scratch = ("k", "t", "s")

    def __init__(self, e, c0, sigma, dt):
        self.x0, self.energies = np.abs(c0) ** 2, e
        self.phase0 = np.exp(1j * np.angle(c0))
        self.rows = {"e": e[:, None]}
        self.half_sigma, self.drift = 0.5 * sigma, 0.125 * sigma * sigma * dt

    def advance(self, p, u):
        """One step of every column; u = (σ/2)·dW of each."""
        w = self.w
        k, t, s = w.k, w.t, w.s
        np.copyto(k, _colsum(np.multiply(p, w.e, out=t)))
        np.subtract(w.e, k, out=k)                  # k = E − ⟨H⟩
        np.multiply(k, self.drift, out=t)
        np.copyto(s, u)
        np.subtract(s, t, out=t)
        np.multiply(k, t, out=t)
        np.add(t, 1.0, out=t)                       # a = 1 + k(u − drift·k)
        np.multiply(t, t, out=t)                    # |e^{−iE dt}·a|² = a²
        p *= t
        np.copyto(s, _colsum(p))
        p /= s

    def populations(self, p):
        return p

    def renorm(self, p):
        pass  # advance normalizes every step

    def record(self, p):
        return ()

    def summarize(self, out, sums, n):
        pass

    def final(self, p, t):   # t: each column's time
        return self.phase0 * np.exp(-1j * self.energies * t[:, None]) * np.sqrt(p.T)


class _DensityKernel(_Kernel):
    """Eigenbasis density matrices on the support of ρ0, shape (d + m, b), for
    energies e (d,) and ρ0 (d, d); for stacks e (G, d) and ρ0 (G, d, d), shape
    (d + m, G, b) on the union support of the G matrices."""

    scratch = ("t", "s")

    def __init__(self, e, r0, sigma, dt):
        d = e.shape[-1]
        iu, ju = np.triu_indices(d, 1)
        on = (r0[..., iu, ju] != 0).any(tuple(range(r0.ndim - 2)))  # over the stack
        self.d, self.iu, self.ju = d, iu[on], ju[on]
        i, j = np.r_[np.arange(d), self.iu], np.r_[np.arange(d), self.ju]
        x0 = r0[..., i, j]
        x0[..., :d] = np.maximum(x0[..., :d].real, 0.0)   # rounded below 0: starts at 0
        occ = x0[..., :d].real > 0   # each spectrum is centered on its occupied levels
        mid = (np.where(occ, e, np.inf).min(-1) + np.where(occ, e, -np.inf).max(-1)) / 2
        x0, e = np.moveaxis(x0, -1, 0), np.moveaxis(e, -1, 0)  # level axis first
        de = e[i] - e[j]
        drift = 1.0 + dt * (-1j * de - 0.125 * sigma * sigma * de ** 2)
        real = not self.iu.size  # a diagonal ρ0 stays diagonal: evolve it as float64
        self.x0, e = (x0.real if real else x0), e - mid
        self.rows = {"e": e[..., None], "drift": drift.real[..., None],
                     "anti": (e[i] + e[j])[..., None]}
        # the imaginary part of the step factor drift + f, as numpy forms it for a real f
        self.drift_imag = None if real else drift.imag[..., None] + 0.0
        self.half_sigma = 0.5 * sigma

    def _build(self, x):
        super()._build(x)
        w = self.w
        w.g = w.f = w.t   # the step factor and its real part
        if x.dtype == complex:
            w.g = np.empty_like(x)
            np.copyto(w.g.imag, self.drift_imag)
            w.f = w.g.real
        return x

    def populations(self, x):
        return x[:self.d].real

    def advance(self, x, u):
        """One step of every column; u = (σ/2)·dW of each."""
        w = self.w
        tr_h = _colsum(np.multiply(self.populations(x), w.e, out=w.pe))
        np.copyto(w.t, 2.0 * tr_h)
        np.subtract(w.anti, w.t, out=w.t)
        np.copyto(w.s, u)
        np.multiply(w.s, w.t, out=w.t)
        np.add(w.drift, w.t, out=w.f)
        x *= w.g

    def renorm(self, x):
        s = _colsum(self.populations(x))
        if x.dtype == complex:   # numpy divides complex by real as x·(1/s): same bits, faster;
            x *= 1.0 / s         # a 1/s materialized to x's shape is no faster, for its cast
        else:                    # a reciprocal would change the bits of a float64 x
            np.copyto(self.w.t, s)
            x /= self.w.t

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

    def final(self, x, t):   # t, the columns' times, leaves a density matrix unchanged
        return self.dense(np.moveaxis(x, 0, -1))


def _noise_chunk(us, gens, sqrt_dt, half_sigma):
    """Fill us, shape (n, len(gens)), with the next n draws z of each generator
    in gens as u = (z·√dt)·(σ/2), the bits of (σ/2)·dW, step-major: column k
    from gens[k]; returns us.  Drawn and scaled NOISE_GROUP generators at a
    time in one buffer that stays in cache, then written transposed into us."""
    buf = np.empty((min(NOISE_GROUP, len(gens)), us.shape[0]))
    for lo in range(0, len(gens), NOISE_GROUP):
        part = buf[:len(gens) - lo]
        for row, gen in zip(part, gens[lo:lo + NOISE_GROUP]):
            gen.standard_normal(out=row)
        part *= sqrt_dt
        part *= half_sigma
        us[:, lo:lo + len(part)] = part.T
    return us


def _group_index(groups, d):
    """How check() indexes each outcome group's levels among d: None when the
    groups are the d levels in order (the populations are the group sums), else
    a slice for a group of consecutive levels, which copies no rows, or a list."""
    if groups == tuple((i,) for i in range(d)):
        return None
    return [slice(g[0], g[-1] + 1) if list(g) == list(range(g[0], g[-1] + 1)) else list(g)
            for g in groups]


def _group_sums(pop, index):
    """One row per group: its levels' populations added in index order (pop if index is None)."""
    if index is None:
        return pop
    return np.array([_colsum(pop[g]) for g in index])


# everything a span needs besides its index range
_Plan = namedtuple("_Plan", "kernel index dt base_seed v_stop horizon_steps "
                            "record_stride max_steps")


def _run_span(plan: _Plan, lo: int, hi: int):
    """Both phases for trajectories lo..hi−1 as one batch: the recorded sums
    of each block, then the span's outcomes, reduction times and finals."""
    kern, dt, sq, b = plan.kernel, plan.dt, np.sqrt(plan.dt), hi - lo
    gens = [trajectory_generator(plan.base_seed, i) for i in range(lo, hi)]
    noise = np.empty(CHUNK * b)   # every chunk, in its (n, alive.size) prefix
    x, alive, step = kern.start(b), np.arange(b), 0
    rows = alive   # the noise-chunk column of each alive trajectory
    tred, xs = np.full(b, np.nan), np.empty_like(x)   # each stopping time and its column
    blocks = range(0, b, BATCH_SIZE)
    recs = [[] for _ in blocks]

    def record():
        v = kern.moments(x)[1]
        terms = (v, v * v) + kern.record(x)
        for rec, s in zip(recs, blocks):
            rec.append([t[..., s:s + BATCH_SIZE].sum(-1) for t in terms])

    def check(retire):   # the stopping rule: each first hit, and with retire set, retirement
        nonlocal x, alive, rows
        kern.renorm(x)
        pop, v = kern.moments(x)
        low, high = float(pop.min()), float(pop.max())   # a NaN propagates into both
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError(f"non-finite populations at step {step}; dt too large?")
        if low < 0:
            raise ValueError(f"negative population at step {step}; dt too large?")
        hit = np.flatnonzero(v <= plan.v_stop)   # the variance half over the batch
        if hit.size:   # the dominance half over its candidates, then the first hits
            hit = hit[_group_sums(pop[:, hit], plan.index).max(0) >= POPULATION_MIN]
            hit = hit[np.isnan(tred[alive[hit]])]
            tred[alive[hit]], xs[..., alive[hit]] = step * dt, x[..., hit]
        if retire and (hit.size or step == plan.horizon_steps):   # drop every stopped column
            keep = np.isnan(tred[alive])
            x, alive, rows = kern.compact(x, keep), alive[keep], rows[keep]

    def run_to(end, retire):   # step every alive trajectory to step `end`
        nonlocal rows, step
        stride = 0 if retire else plan.record_stride
        while alive.size and step < end:
            m = alive.size
            us = _noise_chunk(noise[:min(CHUNK, end - step) * m].reshape(-1, m),
                              [gens[i] for i in alive], sq, kern.half_sigma)
            rows = np.arange(m)
            for u in us:
                kern.advance(x, u if rows.size == m else u.take(rows))
                step += 1
                if step % CHECK_STRIDE == 0:
                    check(retire)
                    if not alive.size:
                        return
                if stride and step % stride == 0:
                    record()

    if plan.record_stride:
        record()
    run_to(plan.horizon_steps, False)
    if plan.max_steps > plan.horizon_steps:
        check(True)
        run_to(plan.max_steps, True)
    left = np.isnan(tred[alive])   # never met the rule: the column at the last step
    xs[..., alive[left]] = x[..., left]
    reduced = ~np.isnan(tred)
    outcomes = np.where(reduced, _group_sums(kern.populations(xs), plan.index).argmax(0), -1)
    sums = [[np.array(col) for col in zip(*rec)] for rec in recs]
    return sums, outcomes, tred, kern.final(xs, np.where(reduced, tred, step * dt))


def _fork_context():
    ok = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork") if ok else None


def _die_with(parent):
    """On Linux, have this forked worker killed when its parent exits, and
    exit at once if parent, the pid that forked it, is already gone."""
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)   # 1: PR_SET_PDEATHSIG
        if os.getppid() != parent:   # the parent died before the prctl call
            os._exit(1)


def _span_child(work, lo, hi, conn, parent):
    _die_with(parent)
    try:
        conn.send((True, work(lo, hi)))
    except Exception as exc:  # report to the parent, which re-raises
        conn.send((False, exc))
    finally:
        conn.close()


def _workers(workers):
    """A worker count: None means every CPU.  Raises ValueError on anything
    other than None or an integer >= 1."""
    if workers is None:
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")
    return int(workers)


def _split(n, parts):
    """range(n) cut into parts contiguous (lo, hi) spans, widths within one of each other."""
    return [(int(q[0]), int(q[-1]) + 1) for q in np.array_split(np.arange(n), parts)]


def _run_spans(work, spans):
    """work(lo, hi) for each span, results in span order: in forked
    processes when there is more than one span and fork is available, else
    serially."""
    ctx = _fork_context()
    if len(spans) == 1 or ctx is None:
        return [work(lo, hi) for lo, hi in spans]
    procs, results, parent = [], [], os.getpid()
    try:
        for lo, hi in spans:
            r, w = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_span_child, args=(work, lo, hi, w, parent))
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


def _check_input(sigma, dt, n_traj):
    """Reject a σ, dt or trajectory count that no run can take."""
    check_sigma_dt(sigma, dt)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")


def _check_reducible(sigma, e, p) -> float:
    """V(0) of populations p over energies e.  Raises ValueError when σ = 0 meets
    V(0) > 0: nothing reduces, and the first-passage phase would run to
    max_steps."""
    v0 = _variance(e, p)
    if sigma == 0 and v0 > 0:
        raise ValueError(f"sigma = 0 never reduces a state with energy variance "
                         f"V(0) = {v0:.3g} > 0")
    return v0


def run_ensemble(energies, state, sigma: float, dt: float, base_seed: int, n_traj: int, *,
                 groups=None, horizon_steps: int = 0, record_stride: int = 0,
                 max_steps: int = MAX_STEPS,
                 workers: int | None = None) -> EnsembleRun:
    """Integrate n_traj trajectories in the H eigenbasis, energies its
    eigenvalues: state vectors for amplitudes `state` of shape (d,) and unit
    norm, density matrices for a Hermitian, positive, unit-trace `state` of
    shape (d, d), under the anticommutator-form equation, elementwise there:

        ρ′_ij = ρ_ij · [1 + dt(−i(Eᵢ−Eⱼ) − (σ²/8)(Eᵢ−Eⱼ)²)
                          + (σ/2)(Eᵢ+Eⱼ − 2 Tr ρH) dW].

    For [ρ0, H] = 0 the drift factors are inert on the populated entries and
    this is exactly the pure-noise martingale evolution.  groups: outcome
    classes (default: one per level).  max_steps = horizon_steps is the
    fixed-horizon mode; time, outcome and final still come from each first hit.
    The blocks run on min(workers, blocks) processes, workers=None meaning
    every CPU, with the same results for any worker count.  Raises ValueError
    on a state that fails `linalg.check_state` within NORM_TOL, non-finite
    energies, a non-finite or negative sigma or dt ≤ 0, workers other than
    None or an integer ≥ 1, or populations that turn non-finite or negative,
    on max_steps < horizon_steps, and, when max_steps > horizon_steps, on
    sigma = 0 with V(0) > 0, which could never stop.
    """
    e = np.asarray(energies, dtype=float)
    _check_input(sigma, dt, n_traj)
    if e.ndim != 1 or not np.isfinite(e).all():
        raise ValueError("energies must be a finite 1-D array")
    state = check_state(state, e.shape[0], NORM_TOL, "initial state")
    kernel = (_StateKernel if state.ndim == 1 else _DensityKernel)(e, state, sigma, dt)
    workers = _workers(workers)
    for name, value, least in (("horizon_steps", horizon_steps, 0),
                               ("record_stride", record_stride, 0), ("max_steps", max_steps, 1)):
        if not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if max_steps < horizon_steps:
        raise ValueError(f"max_steps must be >= horizon_steps, "
                         f"got max_steps = {max_steps} < horizon_steps = {horizon_steps}")
    groups = tuple((i,) for i in range(e.shape[0])) if groups is None else tuple(groups)
    p0 = kernel.populations(kernel.x0)
    v0 = _check_reducible(sigma, e, p0) if max_steps > horizon_steps else _variance(e, p0)
    plan = _Plan(kernel, _group_index(groups, e.shape[0]), dt, base_seed,
                 REDUCTION_EPS * v0 if v0 > 0 else 0.0, horizon_steps, record_stride,
                 max_steps)
    n_blocks = -(-n_traj // BATCH_SIZE)
    blocks = _split(n_blocks, min(workers, n_blocks))
    results = _run_spans(functools.partial(_run_span, plan),
                         [(lo * BATCH_SIZE, min(hi * BATCH_SIZE, n_traj)) for lo, hi in blocks])
    out = EnsembleRun(n_traj=n_traj, dt=dt, groups=groups)
    out.outcomes, out.reduction_times, out.final_states = (
        np.concatenate([r[k] for r in results]) for k in (1, 2, 3))
    if record_stride:
        sums = [sum(terms) for terms in zip(*(blk for r in results for blk in r[0]))]
        n, (s_v, s_v2) = n_traj, sums[:2]  # sums added in block order
        out.times = np.arange(s_v.shape[0]) * record_stride * dt
        out.mean_v, out.mean_v2 = s_v / n, s_v2 / n
        out.sem_v = np.sqrt(np.maximum(out.mean_v2 - out.mean_v**2, 0.0) / n)
        kernel.summarize(out, sums[2:], n)
    return out
