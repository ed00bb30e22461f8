"""A first look at energy-driven state diffusion, one sample path at a time.

The state vector obeys  dχ = [−iH − (σ²/8)(H−⟨H⟩)²] χ dt + (σ/2)(H−⟨H⟩) χ dW.
With σ = 0 this is the Schrödinger equation and nothing interesting happens
to the energy distribution.  With σ > 0 the energy variance V(t) is driven
to zero along every path: the state collapses onto an energy eigenstate.
"""

from pathlib import Path

import numpy as np

from reductionlab.dynamics import SdeConfig, evolve_trajectory

h = np.diag([0.0, 1.0, 2.0]).astype(complex)
chi0 = np.sqrt(np.array([0.2, 0.5, 0.3], complex))

print("== deterministic limit (sigma = 0) ==")
cfg0 = SdeConfig(sigma=0.0, dt=1e-3, n_steps=2000, record_stride=500)
traj = evolve_trajectory(chi0, h, cfg0, seed=1)
for t, e, v in zip(traj.times, traj.energy_mean, traj.variance):
    print(f"  t={t:5.2f}   <H>={e:.6f}   V={v:.6f}")
print("energy mean and variance are frozen, as they must be\n")

print("== stochastic reduction (sigma = 1) ==")
for seed in (7, 8, 9):
    cfg = SdeConfig(sigma=1.0, dt=1e-3, n_steps=30_000, record_stride=6000)
    traj = evolve_trajectory(chi0, h, cfg, seed=seed)
    path = "  ".join(f"V={v:.4f}" for v in traj.variance)
    final_e = traj.energy_mean[-1]
    print(f"  seed {seed}: {path}")
    print(f"           -> settles near E = {final_e:.3f}")
print()
print("different seeds pick different eigenstates; the variance dies every time")

out = Path("out")
out.mkdir(exist_ok=True)
traj.to_csv(out / "trajectory-seed9.csv")
print("last trajectory written to out/trajectory-seed9.csv (t, reH_exp, V, purity_residual)")
