"""Two-subsystem algebra and dynamics.

Covers the decoupling (clustering) residuals of the joint noise and drift
terms for product states, and the mean-field (Hartree) factorized
evolution for a system weakly coupled to an equilibrium environment, with
an error-scaling harness against the full product-space evolution driven
by the identical noise path.  The harness sweeps every coupling g in one
pass of the ensemble stepping loop (`ensemble._run_span`, fixed horizon):
each step's u = (σ/2)·dW of a trajectory drives its full and mean-field
step at every g.  The full systems run in the eigenbases of their
Hamiltonians as one stack of spectra on the ensemble density kernel, where
the Euler step is elementwise and the populations are checked every
`ensemble.CHECK_STRIDE` steps; the mean-field pairs, held by the same
kernel, take one batched step for all couplings and trajectories.
Both factors live in one C-contiguous (2, G, b, D, D) array, D = max(d1, d2),
the smaller factor zero-padded: its padded rows and columns stay exactly 0
and its trace is unchanged, so every step is one code path whatever the
dimensions.  A step is one density Euler step of `dynamics` over both
factors under their effective Hamiltonians, with every matrix product one
real stacked matmul over both factors and the coupling contractions
precomputed as one real map per factor and g.

The trajectories run as contiguous spans on the ensemble's fork pool
(`ensemble._run_spans`), one span per worker, and the parent joins the
spans' finals in trajectory order.  No span is narrower than two
trajectories: numpy sends a one-row contraction product through gemv
rather than gemm, which rounds differently, while spans two or more wide
give every trajectory the bits of the one-span run.  The report is
therefore byte-identical for any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import (ANTICOMMUTATOR, DOUBLE_COMMUTATOR, STABILITY_WARN, _dag, _embed,
                       _euler_step, _times, check_stability, noise_coefficient)
from .ensemble import (MAX_STEPS, NORM_TOL, _DensityKernel, _Plan, _check_input, _run_span,
                       _run_spans, _split, _workers)
from .linalg import (LinalgError, as_matrix, check_hermitian, check_state, random_density_matrix,
                     random_hermitian, random_pure_state, write_csv)

MAX_TRAJ_STEPS = 10**8   # (trajectory, coupling)-steps that one hartree_vs_full call may take

__all__ = [
    "CompositeSystem",
    "clustering_noise_residual",
    "clustering_drift_residual",
    "clustering_survey",
    "partial_expectation",
    "HartreeReport",
    "hartree_vs_full",
    "hartree_instance",
]


@dataclass(frozen=True)
class CompositeSystem:
    """Two tensor factors with Hamiltonians h1, h2 and a coupling delta_h on
    the product space, which total_hamiltonian(g) scales by g.  Each matrix
    must pass `linalg.check_hermitian`; ValueError names the one that does not."""

    h1: np.ndarray
    h2: np.ndarray
    delta_h: np.ndarray

    def __post_init__(self):
        for name in ("h1", "h2", "delta_h"):
            object.__setattr__(self, name, check_hermitian(getattr(self, name), name))
        if self.delta_h.shape[0] != self.h1.shape[0] * self.h2.shape[0]:
            raise ValueError("delta_h must act on the product space")

    @property
    def dims(self):
        return self.h1.shape[0], self.h2.shape[0]

    def total_hamiltonian(self, g: float) -> np.ndarray:
        """H1⊗1 + 1⊗H2 + g·ΔH, at coupling g."""
        d1, d2 = self.dims
        return np.kron(self.h1, np.eye(d2)) + np.kron(np.eye(d1), self.h2) + g * self.delta_h


def clustering_noise_residual(rho1, rho2, h1, h2, form: str = ANTICOMMUTATOR) -> float:
    """‖N(ρ₁⊗ρ₂, H₁+H₂) − N₁(ρ₁,H₁)⊗ρ₂ − ρ₁⊗N₂(ρ₂,H₂)‖_F.

    Vanishes identically for the anticommutator form on any trace-one
    inputs, and for the double-commutator form on pure inputs; a mixed
    factor breaks the latter.
    """
    r1, r2 = as_matrix(rho1), as_matrix(rho2)
    m1, m2 = as_matrix(h1), as_matrix(h2)
    h = np.kron(m1, np.eye(len(m2))) + np.kron(np.eye(len(m1)), m2)
    n_joint = noise_coefficient(np.kron(r1, r2), h, form)
    n_split = (np.kron(noise_coefficient(r1, m1, form), r2)
               + np.kron(r1, noise_coefficient(r2, m2, form)))
    return float(np.linalg.norm(n_joint - n_split))


def clustering_drift_residual(rho1, rho2, h1, h2, form: str = ANTICOMMUTATOR) -> float:
    """‖N₁(ρ₁,H₁)⊗N₂(ρ₂,H₂) + [H₁,ρ₁]⊗[H₂,ρ₂]‖_F.

    The full drift factorizes exactly when this vanishes: for the
    double-commutator form whenever one factor commutes with its
    Hamiltonian, and for the anticommutator form whenever one factor is a
    projector combination on a degenerate submanifold.
    """
    r1, r2 = as_matrix(rho1), as_matrix(rho2)
    m1, m2 = as_matrix(h1), as_matrix(h2)
    n1 = noise_coefficient(r1, m1, form)
    n2 = noise_coefficient(r2, m2, form)
    c1 = m1 @ r1 - r1 @ m1
    c2 = m2 @ r2 - r2 @ m2
    return float(np.linalg.norm(np.kron(n1, n2) + np.kron(c1, c2)))


def clustering_survey(rng: np.random.Generator, n_instances: int) -> dict[str, float]:
    """Worst residual of each vanishing clustering family over n_instances
    random instances from rng (d1, d2 in 2..4), keyed "anti-mixed" (two mixed
    factors), "dc-pure" (two pure factors), "dc-endpoint" (Dirichlet diagonal
    ρ₂, diagonal H₂) and "anti-degenerate" (ρ₂ a projector mixture on a
    degenerate level of H₂), then "generic-mixed-dc", a pure 2-level ρ₁ with
    the maximally mixed ρ₂, where the residual does not vanish.  Raises
    ValueError when n_instances < 1."""
    if n_instances < 1:
        raise ValueError(f"need at least one instance, got {n_instances}")
    worst = dict.fromkeys(["anti-mixed", "dc-pure", "dc-endpoint", "anti-degenerate"], 0.0)
    for _ in range(n_instances):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h1, h2 = random_hermitian(d1, rng), random_hermitian(d2, rng)
        r1m, r2m = random_density_matrix(d1, rng), random_density_matrix(d2, rng)
        v1, v2 = random_pure_state(d1, rng), random_pure_state(d2, rng)
        p1, p2 = np.outer(v1, v1.conj()), np.outer(v2, v2.conj())
        h2c = np.diag(rng.standard_normal(d2)).astype(complex)
        r2c = np.diag(rng.dirichlet(np.ones(d2))).astype(complex)
        evals = np.sort(rng.standard_normal(d2))
        evals[1] = evals[0]
        u = np.linalg.qr(rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2)))[0]
        hdeg = (u * evals) @ u.conj().T
        mix = rng.random()
        rdeg = (mix * np.outer(u[:, 0], u[:, 0].conj())
                + (1 - mix) * np.outer(u[:, 1], u[:, 1].conj()))
        for name, r in (
                ("anti-mixed", clustering_noise_residual(r1m, r2m, h1, h2, ANTICOMMUTATOR)),
                ("dc-pure", clustering_noise_residual(p1, p2, h1, h2, DOUBLE_COMMUTATOR)),
                ("dc-endpoint", clustering_drift_residual(p1, r2c, h1, h2c, DOUBLE_COMMUTATOR)),
                ("anti-degenerate", clustering_drift_residual(p1, rdeg, h1, hdeg, ANTICOMMUTATOR))):
            worst[name] = max(worst[name], r)
    vg = random_pure_state(2, rng)
    worst["generic-mixed-dc"] = clustering_noise_residual(
        np.outer(vg, vg.conj()), np.eye(2) / 2,
        random_hermitian(2, rng), random_hermitian(2, rng), DOUBLE_COMMUTATOR)
    return worst


def _contractions(op: np.ndarray, dims):
    """Matrices taking a flattened ρ₂ to Tr₂[(I⊗ρ₂)·op], shape (d2², d1²), and a
    flattened X₁ to Tr₁[(X₁⊗I)·op], shape (d1², d2²)."""
    d1, d2 = dims
    o4 = as_matrix(op).reshape(d1, d2, d1, d2)
    return (o4.transpose(3, 1, 0, 2).reshape(d2 * d2, d1 * d1),
            o4.transpose(2, 0, 1, 3).reshape(d1 * d1, d2 * d2))


def partial_expectation(op: np.ndarray, rho: np.ndarray, dims, over: int) -> np.ndarray:
    """Contract one factor of a product-space operator with a subsystem state.

    over=2 gives Tr₂[(I⊗ρ)·op] acting on subsystem 1; over=1 the mirror
    image.  Cyclic under the traced factor, so operator ordering there is
    immaterial.
    """
    if over not in (1, 2):
        raise ValueError("over must be 1 or 2")
    flat = as_matrix(rho).reshape(-1) @ _contractions(op, dims)[2 - over]
    return flat.reshape(dims[2 - over], -1)


def _real_maps(system: CompositeSystem, g_values):
    """E and T for the (2, G, b, D, D) stacks of both factors, D = max(d1, d2):
    E, shape (2, 1, 1, 2D, 2D), holds R(H₁) and R(H₂) zero-padded to D; T,
    shape (2, G, 2D², 4D²), holds over g the contractions of g·ΔH as real maps
    on x.view(float), in swapped order: T[0] takes a flattened X₁ to
    R(Tr₁[(X₁⊗I)·gΔH]), the environment's image, and T[1] a flattened ρ₂ to
    R(Tr₂[(I⊗ρ₂)·gΔH]), the system's.  Padded rows and columns are 0."""
    (d1, d2), d = system.dims, max(system.dims)
    dh = np.zeros((d,) * 4, complex)
    dh[:d1, :d2, :d1, :d2] = system.delta_h.reshape(d1, d2, d1, d2)
    con = [_contractions(g * dh.reshape(d * d, d * d), (d, d)) for g in g_values]
    m = np.stack([np.stack([c[1 - k] for c in con]) for k in range(2)])
    images = np.stack([m, 1j * m], -2).reshape(m.shape[:2] + (-1, d, d))   # of each coordinate
    t = _embed(images).reshape(images.shape[:3] + (-1,))
    return _embed(_stacked(system.h1, system.h2, (1, 1))), t


def _stacked(m1, m2, shape):
    """(…, d1, d1) m1 and (…, d2, d2) m2 zero-padded to D = max(d1, d2) and
    broadcast to shape, as one C-contiguous complex (2, *shape, D, D) array."""
    d = max(m1.shape[-1], m2.shape[-1])
    a = np.zeros((2, *shape, d, d), complex)
    for k, m in enumerate((m1, m2)):
        a[k, ..., :m.shape[-1], :m.shape[-1]] = m
    return a


def _image(x, t):
    """R of the contraction images of C-contiguous complex (…, G, b, D, D)
    states x under the (…, G, 2D², 4D²) real maps t, shape (…, G, b, 2D, 2D)."""
    n = x.shape[-1]
    return (x.view(float).reshape(x.shape[:-2] + (-1,)) @ t).reshape(x.shape[:-2] + (2 * n,) * 2)


def _mean_field_step(a, maps, sigma, dt, us):
    """One Hartree step of the C-contiguous (2, G, b, D, D) stack a of both
    factors, a[0] the system and a[1] the environment, zero-padded to D,
    coupling g_values[k] on row k of maps = _real_maps(system, g_values),
    sharing one u = (σ/2)·dW per trajectory column.

    Every product is one real stacked matmul on x.view(float), over both
    factors at once: each factor's effective Hamiltonian h is its own H plus
    the partner's image under T, and both take one density Euler step
    `dynamics._euler_step`.  The environment also takes the correction
    −(σ²/8)[corr, ρ₂]dt, where corr = Tr₁(ΔH·([h₁, ρ₁]⊗I)) is anti-Hermitian,
    through the step's [h, ρ]h slot as ρ₂·corr.  Padded rows and columns stay
    exactly 0, so the traces and the unpadded entries are those of the
    unpadded factors."""
    e, t = maps
    r = e + _image(a, t)[::-1]
    rh = _times(a, r)
    comm = _dag(rh) - rh
    ch = _times(comm, r)
    ch[1] += _times(a[1], _image(comm[0], t[0]))
    return _euler_step(a, rh, ch, sigma, dt, us)


def hartree_instance(rng: np.random.Generator, d: int = 4):
    """(system, ρ₁, ρ₂) of the mean-field error-scaling check, drawn from rng:
    a random H₁, H₂ = diag(linspace(0, 1.8, d)), a random ΔH scaled to
    spectral norm 1, a random pure ρ₁, and ρ₂ = |1⟩⟨1|, an eigenstate of H₂,
    so the environment starts in equilibrium.  Raises ValueError when d < 2."""
    if d < 2:
        raise ValueError(f"the Hartree instance needs d >= 2, got {d}")
    h1 = random_hermitian(d, rng)
    dh = random_hermitian(d * d, rng)
    v = random_pure_state(d, rng)
    rho2 = np.zeros((d, d), complex)
    rho2[1, 1] = 1.0
    system = CompositeSystem(h1, np.diag(np.linspace(0.0, 1.8, d)).astype(complex),
                             dh / np.linalg.norm(dh, 2))
    return system, np.outer(v, v.conj()), rho2


@dataclass
class HartreeReport:
    """Mean-field error versus coupling strength, on paired noise paths, and
    the step dt the run took."""

    g_values: np.ndarray
    mean_discrepancy: np.ndarray
    sem: np.ndarray
    exponent: float
    dt: float

    def csv(self, path) -> None:
        write_csv(path, "g,mean_discrepancy,sem",
                  zip(self.g_values, self.mean_discrepancy, self.sem))


class _PairKernel(_DensityKernel):
    """The full system at every coupling g_values[k], in the eigenbasis
    spectra[k] = (e, u) of its Hamiltonian, on one stacked density kernel, and
    their mean-field pairs, the (2, G, b, D, D) stack self.a, stepped on the
    same u; for fixed-horizon runs only, since compact leaves self.a whole."""

    def __init__(self, system: CompositeSystem, g_values, spectra, rho1, rho2, sigma, dt):
        rho0, self.us = np.kron(rho1, rho2), [u for _, u in spectra]
        super().__init__(np.stack([e for e, _ in spectra]),
                         np.stack([u.conj().T @ rho0 @ u for u in self.us]), sigma, dt)
        self.rho, self.mf = (rho1, rho2), (_real_maps(system, g_values), sigma, dt)

    def start(self, b):
        self.a = _stacked(*self.rho, (len(self.us), b))
        return super().start(b)

    def advance(self, x, u):
        super().advance(x, u)
        self.a = _mean_field_step(self.a, *self.mf, u)

    def final(self, x, t):
        """The product-basis full-system states and both mean-field factors, (G, b, …) each."""
        (d1, _), (d2, _) = (r.shape for r in self.rho)
        return (np.stack([u @ f @ u.conj().T for u, f in zip(self.us, super().final(x, t))]),
                self.a[0, ..., :d1, :d1], self.a[1, ..., :d2, :d2])


def hartree_vs_full(system: CompositeSystem, rho1_0, rho2_0, sigma: float,
                    dt: float | None, horizon: float, g_values, n_traj: int,
                    base_seed: int = 0, workers: int | None = None) -> HartreeReport:
    """Compare the reduced full-system state with the mean-field state.

    For each coupling scale g, both evolutions are driven by the same
    per-trajectory Wiener path from a product initial state, and the
    Frobenius distance ‖Tr₂ ρ_full(T) − ρ₁_mf(T)‖ is averaged over
    trajectories.  All couplings run in one pass on shared noise, and each
    row of the report is bit for bit the one a single-g call gives (to
    rounding at a g whose initial product state commutes with its
    Hamiltonian, batched with a g whose state does not).  The power
    discrepancy ∝ g^p, fitted over the g > 0 rows, comes back with the
    report; mean-field theory predicts p = 2 for an equilibrium environment.
    The trajectories run in min(workers, n_traj // 2) spans (at least one)
    on that many forked processes, workers=None meaning every CPU; the
    report is the same bytes for any worker count.  dt=None steps at the
    largest dt at which σ²ΔE²dt, ΔE the total Hamiltonian's spectral range,
    stays at or below `dynamics.STABILITY_WARN` at every g (1e-3 when σ·ΔE
    is 0); the report's dt is the step taken.  Raises ValueError on bad
    input (an empty or non-finite g list, a non-finite or negative σ, an
    initial state that is no density matrix or fails `linalg.check_state`
    within `ensemble.NORM_TOL`, a horizon that rounds to no step or to more
    than `ensemble.MAX_STEPS`, n_traj × steps × couplings above
    MAX_TRAJ_STEPS, workers other than None or an integer ≥ 1), on full-system
    populations that turn non-finite or negative, or on non-finite finals, and
    StabilityError when σ²ΔE²dt exceeds the hard bound at some g.
    """
    workers = _workers(workers)
    _check_input(sigma, 1.0 if dt is None else dt, n_traj)   # σ before dt is derived from it
    d1, d2 = system.dims
    r1, r2 = (check_state(r, d, NORM_TOL, name)
              for r, d, name in ((rho1_0, d1, "rho1_0"), (rho2_0, d2, "rho2_0")))
    for name, r in (("rho1_0", r1), ("rho2_0", r2)):
        if r.ndim != 2:   # check_state passes a unit vector as a pure state
            raise LinalgError(f"{name} must be a density matrix, got shape {r.shape}")
    gv = np.asarray(g_values, float)
    if not gv.size or not np.isfinite(gv).all():
        raise ValueError(f"g values must be a nonempty list of finite numbers, got {gv}")
    spectra = [np.linalg.eigh(system.total_hamiltonian(g)) for g in gv]   # no re-check per g
    h_range = max(e[-1] - e[0] for e, _ in spectra)
    if dt is None:
        scale = sigma * sigma * h_range * h_range   # the product as check_stability forms it
        dt = float(STABILITY_WARN / scale) if 0 < scale < np.inf else 1e-3
        while 0 < scale < np.inf and scale * dt > STABILITY_WARN:   # the division rounded up
            dt = float(np.nextafter(dt, 0.0))
    check_stability(sigma, dt, h_range)
    n_steps = int(round(horizon / dt)) if np.isfinite(horizon / dt) else 0
    if not 1 <= n_steps <= MAX_STEPS:   # before any span forks
        raise ValueError(f"horizon must be finite and round to between 1 and {MAX_STEPS} "
                         f"steps of dt = {dt}, got {horizon}")
    if n_traj * n_steps * gv.size > MAX_TRAJ_STEPS:
        raise ValueError(f"n_traj = {n_traj} trajectories of {n_steps} steps (horizon {horizon}, "
                         f"dt = {dt}) at {gv.size} couplings take "
                         f"{n_traj * n_steps * gv.size:.3g} trajectory-steps, above the budget "
                         f"of {MAX_TRAJ_STEPS:.3g}; lower n_traj or horizon")
    spans = _split(n_traj, max(1, min(workers, n_traj // 2)))   # none one trajectory wide
    plan = _Plan(_PairKernel(system, gv, spectra, r1, r2, sigma, dt), None, dt, base_seed,
                 -np.inf, n_steps, 0, n_steps)   # a fixed horizon: nothing stops
    parts = _run_spans(functools.partial(_run_span, plan), spans)
    finals = [np.concatenate(f, axis=1) for f in zip(*(p[3] for p in parts))]
    means, sems = [], []
    for g, rho, a1, a2 in zip(gv, *finals):
        if not all(np.isfinite(a).all() for a in (rho, a1, a2)):
            raise ValueError(f"non-finite final states at g={g}; dt too large?")
        red = np.trace(rho.reshape(n_traj, d1, d2, d1, d2), axis1=2, axis2=4)
        dev = np.linalg.norm(red - a1, axis=(1, 2))
        means.append(dev.mean())
        sems.append(dev.std(ddof=1) / np.sqrt(n_traj) if n_traj > 1 else 0.0)
    means, sems = np.asarray(means), np.asarray(sems)
    pos = (gv > 0) & (means > 0)
    exponent = (float(np.polyfit(np.log(gv[pos]), np.log(means[pos]), 1)[0])
                if pos.sum() >= 2 else float("nan"))
    return HartreeReport(g_values=gv, mean_discrepancy=means, sem=sems, exponent=exponent,
                         dt=dt)
