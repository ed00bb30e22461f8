"""Two-subsystem algebra and dynamics.

Covers the decoupling (clustering) residuals of the joint noise and drift
terms for product states, and the mean-field (Hartree) factorized
evolution for a system weakly coupled to an equilibrium environment, with
an error-scaling harness against the full product-space evolution driven
by the identical noise path.  The harness sweeps every coupling g in one
pass: each trajectory's noise is drawn once and shared by all g.  The full
systems run in the eigenbases of their Hamiltonians as one stack of spectra
on the ensemble density kernel, where the Euler step is elementwise; the
mean-field pairs take one batched matmul step for all couplings and
trajectories, with the coupling contractions precomputed as one matrix per g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import ANTICOMMUTATOR, check_stability, noise_coefficient
from .ensemble import CHUNK, _DensityKernel, _check_input
from .linalg import as_matrix, hermiticity_defect
from .noise import trajectory_generator

__all__ = [
    "CompositeSystem",
    "clustering_noise_residual",
    "clustering_drift_residual",
    "partial_expectation",
    "hartree_step",
    "HartreeReport",
    "hartree_vs_full",
]


@dataclass(frozen=True)
class CompositeSystem:
    """Two tensor factors with Hamiltonians h1, h2 and a coupling delta_h
    on the product space, scaled by g."""

    h1: np.ndarray
    h2: np.ndarray
    delta_h: np.ndarray
    g: float = 1.0

    def __post_init__(self):
        for name in ("h1", "h2", "delta_h"):
            m = as_matrix(getattr(self, name))
            if hermiticity_defect(m) > 1e-12:
                raise ValueError(f"{name} is not Hermitian")
            object.__setattr__(self, name, m)
        if self.delta_h.shape[0] != self.h1.shape[0] * self.h2.shape[0]:
            raise ValueError("delta_h must act on the product space")

    @property
    def dims(self):
        return self.h1.shape[0], self.h2.shape[0]

    def total_hamiltonian(self) -> np.ndarray:
        d1, d2 = self.dims
        return (np.kron(self.h1, np.eye(d2)) + np.kron(np.eye(d1), self.h2)
                + self.g * self.delta_h)


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


def _dag(a):
    return a.conj().swapaxes(-1, -2)


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1).real[..., None, None]


def _euler(r, h, sigma, dt, dws):
    """Anticommutator-form Euler step of a (b, d, d) stack, one H and dW per row,
    not renormalized, and [H, ρ]; uses ρH = (Hρ)† and [H, ρ]H = −(H[H, ρ])†."""
    hr = h @ r
    rh = _dag(hr)
    comm = hr - rh
    hc = h @ comm
    out = (r + dt * (-1j * comm - 0.125 * sigma * sigma * (hc + _dag(hc)))
           + (0.5 * sigma) * dws[:, None, None] * (hr + rh - 2.0 * r * _trace(hr)))
    return out, comm


def _flat(a):
    return a.reshape(a.shape[:-2] + (-1,))


def _mean_field_step(a1, a2, system: CompositeSystem, to1, to2, sigma, dt, dws):
    """One Hartree step of (…, b, d1, d1) and (…, b, d2, d2) stacks sharing one dW
    per row, to1, to2 = _contractions(g·ΔH), or (G, ·, ·) stacks of them for
    (G, b, ·, ·) states: Euler steps under the effective Hamiltonians, the
    environment correction, Hermitize, trace-normalize."""
    h1 = system.h1 + (_flat(a2) @ to1).reshape(a1.shape)
    h2 = system.h2 + (_flat(a1) @ to2).reshape(a2.shape)
    new1, comm1 = _euler(a1, h1, sigma, dt, dws)
    corr = (_flat(comm1) @ to2).reshape(a2.shape)   # Tr₁(ΔH·([H₁′,ρ₁]⊗I))
    new2, _ = _euler(a2, h2, sigma, dt, dws)
    ca = corr @ a2   # [corr, ρ₂] = ca + ca†, corr being anti-Hermitian
    new2 -= dt * 0.125 * sigma * sigma * (ca + _dag(ca))
    new1, new2 = 0.5 * (new1 + _dag(new1)), 0.5 * (new2 + _dag(new2))
    return new1 / _trace(new1), new2 / _trace(new2)


def hartree_step(rho1, rho2, system: CompositeSystem, sigma: float, dt: float,
                 dW: float):
    """One mean-field step for both subsystems, sharing the single dW.

    Each factor evolves under its Hamiltonian augmented by the partner's
    expectation of the coupling; the environment picks up the additional
    −(σ²/8)[Tr₁(ΔH[H₁′,ρ₁]), ρ₂]dt drift, which dies off once subsystem 1
    has reduced.
    """
    new1, new2 = _mean_field_step(as_matrix(rho1)[None], as_matrix(rho2)[None], system,
                                  *_contractions(system.g * system.delta_h, system.dims),
                                  sigma, dt, np.array([dW], float))
    return new1[0], new2[0]


@dataclass
class HartreeReport:
    """Mean-field error versus coupling strength, on paired noise paths."""

    g_values: np.ndarray
    mean_discrepancy: np.ndarray
    sem: np.ndarray
    exponent: float

    def csv(self, path) -> None:
        lines = ["g,mean_discrepancy,sem"]
        for g, m, s in zip(self.g_values, self.mean_discrepancy, self.sem):
            lines.append(f"{g:.17g},{m:.17g},{s:.17g}")
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _paired_finals(system: CompositeSystem, g_values, spectra, rho1, rho2, sigma, dt,
                   n_steps, n_traj, base_seed):
    """Full-system and mean-field finals at every coupling, shaped (G, n_traj, …),
    trajectory i on the Wiener path of trajectory_generator(base_seed, i) at
    every g.  The full system at g_values[k] runs in the eigenbasis
    spectra[k] = (e, u) of its Hamiltonian, all G of them on one stacked
    ensemble density kernel; the mean-field pairs take one batched step."""
    rho0 = np.kron(rho1, rho2)
    kern = _DensityKernel(np.stack([e for e, _ in spectra]),
                          np.stack([u.conj().T @ rho0 @ u for _, u in spectra]), sigma, dt)
    maps = [np.stack(m) for m in zip(*(_contractions(g * system.delta_h, system.dims)
                                        for g in g_values))]
    x = kern.start(n_traj)
    a1, a2 = (np.tile(a, (len(g_values), n_traj, 1, 1)) for a in (rho1, rho2))
    gens = [trajectory_generator(base_seed, i) for i in range(n_traj)]
    for done in range(0, n_steps, CHUNK):
        n = min(CHUNK, n_steps - done)
        for dw in np.stack([gg.standard_normal(n) for gg in gens]).T * np.sqrt(dt):
            kern.advance(x, dw)
            kern.renorm(x)
            a1, a2 = _mean_field_step(a1, a2, system, *maps, sigma, dt, dw)
    finals = kern.final(x, n_steps * dt)
    return np.stack([u @ f @ u.conj().T for (_, u), f in zip(spectra, finals)]), a1, a2


def hartree_vs_full(system: CompositeSystem, rho1_0, rho2_0, sigma: float,
                    dt: float, horizon: float, g_values, n_traj: int,
                    base_seed: int = 0) -> HartreeReport:
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
    Raises ValueError on bad input (an empty or non-finite g list, a
    non-finite or negative σ and a horizon that rounds to no step included)
    or non-finite finals, and StabilityError when σ²ΔE²dt exceeds the hard
    bound at some g.
    """
    r1, r2, (d1, d2) = as_matrix(rho1_0), as_matrix(rho2_0), system.dims
    gv = np.asarray(g_values, float)
    for h, r in ((system.h1, r1), (system.h2, r2)):
        _check_input(np.linalg.eigvalsh(h), r, 2, sigma, dt, n_traj)
    if not gv.size or not np.isfinite(gv).all():
        raise ValueError(f"g values must be a nonempty list of finite numbers, got {gv}")
    spectra = [np.linalg.eigh(replace(system, g=g).total_hamiltonian()) for g in gv]
    check_stability(sigma, dt, max(e[-1] - e[0] for e, _ in spectra))
    n_steps = int(round(horizon / dt)) if np.isfinite(horizon) else 0
    if n_steps < 1:
        raise ValueError(f"horizon must be finite and round to at least one step of "
                         f"dt = {dt}, got {horizon}")
    finals = _paired_finals(system, gv, spectra, r1, r2, sigma, dt, n_steps, n_traj, base_seed)
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
    return HartreeReport(g_values=gv, mean_discrepancy=means, sem=sems,
                         exponent=exponent)
