"""Equilibrium ensembles as martingales.

A density matrix prepared as the canonical distribution exp(−βH)/Z commutes
with H, so only the pure-noise part of the evolution acts:

    dρ = (σ/2)({ρ,H} − 2ρ Tr ρH) dW.

Along each path ρ wanders off toward an eigenprojector, yet the ensemble
mean E[ρ(t)] never moves — the usual statistical operator is the
expectation of a fluctuating, eventually sharp, state.  Outcome
frequencies reproduce the Gibbs weights, and a degenerate level is reached
as a whole: the weights inside it keep their ratio (no intra-level
reduction).
"""

import math

import numpy as np

from reductionlab.reduction import statdist_martingale_run

beta = math.log(0.73 / 0.27)
h = np.diag([0.0, 1.0]).astype(complex)
rep = statdist_martingale_run(h, beta, sigma=1.0, n_traj=2000, base_seed=3,
                              dt=1e-3)
print("== two-level Gibbs ensemble ==")
print(f"worst ||mean rho(t) − Gibbs||_F / (5 SEM) = {rep.mean_dev_ratio:.3f} "
      f"at t = {rep.worst_time:g}: {rep.worst_deviation:.2e} (allowed {rep.worst_allowed:.2e})")
for lab, f, w in zip(rep.stats.outcome_labels, rep.stats.frequencies,
                     rep.gibbs_weights):
    print(f"  outcome {lab}: frequency {f:.4f} vs Gibbs weight {w:.4f}")

print("\n== degenerate middle level ==")
h4 = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
rep4 = statdist_martingale_run(h4, 0.7, sigma=1.0, n_traj=1500, base_seed=4,
                               dt=1e-3)
for lab, f, w in zip(rep4.stats.outcome_labels, rep4.stats.frequencies,
                     rep4.gibbs_weights):
    print(f"  outcome {lab}: frequency {f:.4f} vs Gibbs weight {w:.4f}")
split = rep4.final_group_diagonals[1]
print(f"  weights inside the degenerate level at the endpoint: "
      f"{split[0]:.3f} / {split[1]:.3f}  (started equal, stayed equal)")
