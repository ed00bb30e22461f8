"""Integrators for the energy-driven stochastic evolution equations.

Implements Euler–Maruyama single steps and full trajectories for

* the state-vector Itô equation  dχ = [α dt + β dW] χ  with
  α = −iH − (σ²/8)(H−⟨H⟩)²  and  β = (σ/2)(H−⟨H⟩),
* the density-matrix equation
  dρ = −i[H,ρ]dt − (σ²/8)[H,[H,ρ]]dt + (σ/2) N(ρ,H) dW
  with the noise coefficient in either of its two forms,
* the pure-noise evolution of states commuting with H
  (dρ = (σ/2)({ρ,H} − 2ρ Tr ρH) dW, a matrix martingale), which has no
  stepper of its own: the density step at dt = 0 is its Euler step, and
  `ensemble.run_ensemble` runs it for any [ρ0, H] = 0,
* the deterministic flow of the stochastic expectation
  dE[ρ]/dt = −i[H,E[ρ]] − (σ²/8)[H,[H,E[ρ]]], solved in closed form.

Every density-matrix Euler step, here and in the mean-field step of
`composite`, is one batched update over (…, b, d, d) stacks: it builds
ρ′ = M + M†, which is exactly Hermitian, and multiplies it by its reciprocal
trace.  Its products ρH right-multiply by the real 2d×2d embedding of H.
It takes u = (σ/2)·dW per column; the single-state steppers convert dW.

A full trajectory steps on H minus its spectrum's midpoint and reads ⟨H⟩ and V
from H's eigenbasis, as the ensemble kernels do.  All steppers take
array-likes and return plain complex ndarrays.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (as_matrix, as_vector, check_hermitian, check_state, hermitize,
                     purity_residual, write_csv)
from .noise import wiener_path

__all__ = [
    "ANTICOMMUTATOR",
    "DOUBLE_COMMUTATOR",
    "EULER_MARUYAMA",
    "EULER_RENORMALIZED",
    "SdeConfig",
    "StabilityError",
    "PositivityError",
    "default_dt",
    "spectral_range",
    "noise_coefficient",
    "step_state_vector",
    "step_density",
    "evolve_expectation",
    "evolve_trajectory",
    "Trajectory",
]

ANTICOMMUTATOR = "anticommutator"
DOUBLE_COMMUTATOR = "double_commutator"
EULER_MARUYAMA = "euler_maruyama"
EULER_RENORMALIZED = "euler_renormalized"

# Discretization is trusted only while sigma²·(spectral range)²·dt stays
# small; past 0.1 the Euler drift can overshoot and positivity breaks down.
STABILITY_HARD = 0.1
STABILITY_WARN = 0.01
STABILITY_TARGET = 1e-3


class StabilityError(RuntimeError):
    """sigma²·ΔE_max²·dt exceeded the hard stability bound."""


class PositivityError(RuntimeError):
    """A density matrix left the PSD cone by more than the step tolerance."""


def spectral_range(h) -> float:
    """Difference between the largest and smallest eigenvalue of H."""
    w = np.linalg.eigvalsh(as_matrix(h))
    return float(w[-1] - w[0])


def default_dt(sigma: float, h_range: float) -> float:
    """Step size making sigma²·h_range²·dt equal the 1e-3 design target."""
    if sigma == 0.0 or h_range == 0.0:
        return 1e-3
    return STABILITY_TARGET / (sigma * sigma * h_range * h_range)


def check_sigma_dt(sigma: float, dt: float) -> None:
    """Raise ValueError unless sigma ≥ 0 and dt > 0 are both finite."""
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")


def check_stability(sigma: float, dt: float, h_range: float) -> None:
    """check_sigma_dt, then StabilityError when sigma²·ΔE²·dt exceeds the
    hard bound; warn above the comfort bound, at the first caller outside
    the package."""
    check_sigma_dt(sigma, dt)
    product = sigma * sigma * h_range * h_range * dt
    if product > STABILITY_HARD:
        raise StabilityError(
            f"sigma²·ΔE²·dt = {product:.3g} exceeds hard bound {STABILITY_HARD}"
        )
    if product > STABILITY_WARN:
        level, frame = 2, sys._getframe(1)
        while frame.f_back and frame.f_globals.get("__name__", "").startswith("reductionlab."):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"sigma²·ΔE²·dt = {product:.3g} above comfort bound {STABILITY_WARN}",
            RuntimeWarning,
            stacklevel=level,
        )


@dataclass
class SdeConfig:
    """Parameters of one stochastic integration run."""

    sigma: float
    dt: float
    n_steps: int
    scheme: str = EULER_RENORMALIZED
    noise_form: str = ANTICOMMUTATOR
    record_stride: int = 1

    def __post_init__(self):
        check_sigma_dt(self.sigma, self.dt)
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.scheme not in (EULER_MARUYAMA, EULER_RENORMALIZED):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.noise_form not in (ANTICOMMUTATOR, DOUBLE_COMMUTATOR):
            raise ValueError(f"unknown noise form {self.noise_form!r}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


def _variance(e, p) -> float:
    """V = Σp(e − ⟨e⟩)² of populations p over energies e, as the ensemble kernels take it."""
    e, p = np.asarray(e, float), np.asarray(p, float)
    return float(p @ (e - p @ e) ** 2)


def noise_coefficient(rho, h, form: str = ANTICOMMUTATOR) -> np.ndarray:
    """Coefficient of the Itô noise term; traceless and Hermitian.

    anticommutator:    {ρ,H} − 2ρ Tr ρH
    double_commutator: [ρ,[ρ,H]]

    The two agree exactly on pure states (ρ² = ρ) but define different
    evolutions for mixed ones.
    """
    r = as_matrix(rho)
    m = as_matrix(h)
    if form == ANTICOMMUTATOR:
        rh = r @ m
        return rh + rh.conj().T - 2.0 * r * np.trace(rh).real
    if form == DOUBLE_COMMUTATOR:
        inner = r @ m - m @ r
        return r @ inner - inner @ r
    raise ValueError(f"unknown noise form {form!r}")


def step_state_vector(chi, h, sigma: float, dt: float, dW: float,
                      scheme: str = EULER_RENORMALIZED,
                      h_range: float | None = None) -> np.ndarray:
    """One Euler–Maruyama step of the state-vector equation, its −i term on
    (H − ⟨H⟩)χ: that drops only a global phase, so the step sees H only through
    H − ⟨H⟩.  ⟨H⟩ is evaluated on the incoming (normalized) state.  With
    scheme=euler_renormalized the result is divided by its norm.
    """
    v = as_vector(chi)
    m = as_matrix(h)
    check_stability(sigma, dt, spectral_range(m) if h_range is None else h_range)
    hv = m @ v
    e = np.vdot(v, hv).real
    kv = hv - e * v                       # (H − ⟨H⟩) χ
    k2v = m @ kv - e * kv                 # (H − ⟨H⟩)² χ
    out = v + dt * (-1j * kv - 0.125 * sigma * sigma * k2v) + (0.5 * sigma * dW) * kv
    if scheme == EULER_RENORMALIZED:
        out = out / np.linalg.norm(out)
    return out


def _dag(a):
    return a.conj().swapaxes(-1, -2)


def _trace(a):
    return np.einsum("...ii->...", a).real[..., None, None]


def _embed(m):
    """R(m): the real (…, 2d, 2d) embedding of complex (…, d, d) matrices, with
    the 2×2 block [[a, b], [−b, a]] for each entry a + ib, so that
    (x @ m).view(float) == x.view(float) @ R(m) for a C-contiguous x."""
    d = m.shape[-1]
    r = np.empty(m.shape[:-2] + (d, 2, d, 2))
    r[..., :, 0, :, 0] = r[..., :, 1, :, 1] = m.real
    r[..., :, 0, :, 1] = m.imag
    r[..., :, 1, :, 0] = -m.imag
    return r.reshape(m.shape[:-2] + (2 * d, 2 * d))


def _times(x, rm):
    """x @ m for C-contiguous complex (…, d, d) stacks x, given rm = R(m)."""
    return (x.view(float) @ rm).view(complex)


def _euler_step(rho, rh, ch, sigma, dt, us, noise=None):
    """One Euler step of C-contiguous (…, b, d, d) stacks rho, one u = (σ/2)dW
    per column b, given rh = ρh and ch = [h, ρ]h for each state's Hamiltonian
    h: (M + M†)/Tr(M + M†) with M = ρ/2 + dt(iρh + (σ²/8)ch) + u·X, which is
    exactly Hermitian.  X is ρh − ρ Tr ρh (anticommutator form) or the given
    noise (ρ·ρh − ρh·ρ for the double-commutator form); a further drift
    enters as its M-part through ch."""
    q = us[:, None, None]
    k = 0.125 * sigma * sigma * dt
    if noise is None:
        m = rho * (0.5 - q * _trace(rh)) + rh * (q + 1j * dt) + k * ch
    else:
        m = 0.5 * rho + (1j * dt) * rh + k * ch + q * noise
    m += _dag(m)
    parts = m.view(float)
    parts *= 1.0 / _trace(m)
    return m


def step_density(rho, h, sigma: float, dt: float, dW: float,
                 noise_form: str = ANTICOMMUTATOR) -> np.ndarray:
    """One Euler–Maruyama step of the density-matrix equation.

    The result is exactly Hermitian and trace-renormalized (the exact
    equations preserve both; Euler violates the trace at O(dt²) per step).
    The smallest eigenvalue must stay above −100·dt; a violation, raised as
    PositivityError, means dt is too large for this Hamiltonian and sigma.
    """
    if noise_form not in (ANTICOMMUTATOR, DOUBLE_COMMUTATOR):
        raise ValueError(f"unknown noise form {noise_form!r}")
    r = np.ascontiguousarray(as_matrix(rho))[None]   # a batch of one
    rm = _embed(as_matrix(h))
    rh = _times(r, rm)
    noise = r @ rh - rh @ r if noise_form == DOUBLE_COMMUTATOR else None
    out = _euler_step(r, rh, _times(_dag(rh) - rh, rm), sigma, dt,
                      0.5 * sigma * np.array([dW], float), noise)[0]
    tol = 100.0 * dt
    low = np.linalg.eigvalsh(out)[0]
    if low < -tol:
        raise PositivityError(
            f"eigenvalue {low:.3e} below -{tol:.1e}; decrease dt"
        )
    return out


def evolve_expectation(rho0, h, sigma: float, t: float) -> np.ndarray:
    """E[ρ](t) in closed form.

    In the H eigenbasis each element ρᵢⱼ rotates at (Eᵢ−Eⱼ) and decays at
    (σ²/8)(Eᵢ−Eⱼ)², so any function of H is a fixed point.
    """
    e, u = np.linalg.eigh(as_matrix(h))
    gap = e[:, None] - e[None, :]
    r = u.conj().T @ as_matrix(rho0) @ u
    r *= np.exp(-1j * gap * t - 0.125 * sigma * sigma * gap * gap * t)
    return hermitize(u @ r @ u.conj().T)


@dataclass
class Trajectory:
    """Recorded sample path with observables at the record stride."""

    times: np.ndarray
    states: list
    energy_mean: np.ndarray
    variance: np.ndarray
    purity_residual: np.ndarray
    dt: float = 0.0

    def validate(self) -> None:
        """Check stored states with linalg.check_state at tolerance
        max(100·dt, 1e-10); a non-finite state fails every invariant."""
        for k, s in enumerate(self.states):
            check_state(s, len(s), _state_tol(self.dt), f"state {k}")

    def to_csv(self, path) -> None:
        write_csv(path, "t,reH_exp,V,purity_residual",
                  zip(self.times, self.energy_mean, self.variance, self.purity_residual))


def _state_tol(dt) -> float:
    """Trajectory.validate's tolerance."""
    return max(100.0 * dt, 1e-10)


def evolve_trajectory(init, h, config: SdeConfig, seed: int) -> Trajectory:
    """Integrate a full sample path, recording ⟨H⟩, V and the purity residual.

    One eigendecomposition H = U diag(e) U† gives the stability range, the step
    Hamiltonian H − (e[0] + e[-1])/2, and each record's populations p in that
    basis, clipped at 0 and normalized, for ⟨H⟩ = p·e and V = Σp(e − ⟨H⟩)².

    `init` may be a state vector or a density matrix; density evolution
    follows the anticommutator-form equation unless the config selects the
    double-commutator form (pure states only — the two differ on mixed ones).
    Before the first step, raises ValueError when H fails
    `linalg.check_hermitian`, when the state fails `linalg.check_state` for
    H's dimension at `Trajectory.validate`'s tolerance, or when a density
    matrix comes with the euler_maruyama scheme: the density step always
    renormalizes its trace.
    """
    m = check_hermitian(h)
    raw = check_state(init, m.shape[0], _state_tol(config.dt), "initial state")
    if raw.ndim == 2 and config.scheme != EULER_RENORMALIZED:
        raise ValueError(f"scheme {config.scheme!r} steps state vectors only: the density "
                         f"step always renormalizes its trace")
    e, u = np.linalg.eigh(m)
    h_rng = float(e[-1] - e[0])
    check_stability(config.sigma, config.dt, h_rng)
    m = m - 0.5 * (e[0] + e[-1]) * np.eye(len(e))   # the step sees H − E_mid
    path = wiener_path(seed, config.dt, config.n_steps)
    is_vec = raw.ndim == 1

    times, states, means, variances, purities = [], [], [], [], []

    def record(k, s):
        times.append(k * config.dt)
        states.append(s.copy())
        purities.append(abs(float(np.vdot(s, s).real) - 1.0) if is_vec else purity_residual(s))
        c = u.conj().T @ s   # in H's eigenbasis: the amplitudes, or U†ρ
        p = np.maximum(np.abs(c) ** 2 if is_vec else np.einsum("ij,ji->i", c, u).real, 0.0)
        p = p / p.sum()
        means.append(float(p @ e))
        variances.append(_variance(e, p))

    s = raw.copy()
    record(0, s)
    for k, dW in enumerate(path):
        try:
            if is_vec:
                s = step_state_vector(s, m, config.sigma, config.dt, dW,
                                      scheme=config.scheme, h_range=h_rng)
            else:
                s = step_density(s, m, config.sigma, config.dt, dW,
                                 noise_form=config.noise_form)
        except (PositivityError, StabilityError) as exc:
            raise type(exc)(f"step {k + 1}: {exc}") from exc
        if (k + 1) % config.record_stride == 0 or k + 1 == config.n_steps:
            record(k + 1, s)

    traj = Trajectory(
        times=np.asarray(times),
        states=states,
        energy_mean=np.asarray(means),
        variance=np.asarray(variances),
        purity_residual=np.asarray(purities),
        dt=config.dt,
    )
    traj.validate()
    return traj
