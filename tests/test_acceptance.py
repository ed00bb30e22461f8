"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one machine-readable line.  The quantitative estimates run
in well under a second; the ensemble criteria are Monte-Carlo runs sized as
specified (order 10⁴ trajectories) and take a few minutes altogether.
"""

import math
import subprocess
import sys

import numpy as np
from scipy import stats as sstats
from scipy.special import jv

from reductionlab import accretion, composite, ensemble, phenomenology as ph, reduction
from reductionlab.dynamics import ANTICOMMUTATOR, DOUBLE_COMMUTATOR, noise_coefficient
from reductionlab.linalg import random_hermitian, random_pure_state


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _report_paper_values(criterion: int, name: str) -> None:
    """Check every row of the paper-values table that the criterion owns."""
    rows = [r for r in ph.PAPER_VALUES if r.criterion == criterion]
    results = [r.evaluate() for r in rows]
    _report(name, all(ok for _, ok in results),
            ", ".join(f"{r.name}={v:.3g}" for r, (v, _) in zip(rows, results)))


# 1 ---------------------------------------------------------------------------

def test_criterion_01_reduction_time_formula():
    _report_paper_values(1, "01-reduction-times")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_accretion_limited_reduction():
    _report_paper_values(2, "02-accretion-reduction")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_thermal_fluctuation():
    _report_paper_values(3, "03-thermal-14GeV")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_decoherence_comparison():
    _report_paper_values(4, "04-decoherence")


# 5 ---------------------------------------------------------------------------

def test_criterion_05_shot_noise():
    _report_paper_values(5, "05-shot-noise")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_noise_form_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        v = random_pure_state(d, rng)
        rho = np.outer(v, v.conj())
        gap = np.linalg.norm(noise_coefficient(rho, h, ANTICOMMUTATOR)
                             - noise_coefficient(rho, h, DOUBLE_COMMUTATOR))
        worst = max(worst, gap)
    _report("06-noise-form-identity", worst <= 1e-12, f"worst |N3a−N3b|_F={worst:.2e}")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_clustering_residuals():
    worst = composite.clustering_survey(np.random.default_rng(707), 100)
    generic = worst.pop("generic-mixed-dc")
    ok = all(v <= 1e-12 for v in worst.values()) and generic > 1e-6
    _report("07-clustering", ok,
            ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
            + f", generic={generic:.2e}")


# 8 ---------------------------------------------------------------------------

def test_criterion_08_born_rule_dim4():
    h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    chi0 = np.sqrt(weights).astype(complex)
    st = reduction.born_statistics(h, chi0, sigma=1.0, n_traj=10_000,
                                   base_seed=808, dt=5.6e-4)
    bands = 4.0 * np.sqrt(weights * (1 - weights) / st.n_traj)
    within = np.abs(st.frequencies - weights) <= bands
    counts = np.round(st.frequencies * (st.n_traj - st.n_unreduced))
    _, pval = sstats.chisquare(counts, weights * counts.sum())
    ok = bool(within.all()) and pval > 1e-3 and st.n_unreduced <= 100
    _report("08-born-rule", ok,
            f"freqs={np.round(st.frequencies, 4).tolist()}, chi2 p={pval:.3g}, "
            f"unreduced={st.n_unreduced}")


# 9 ---------------------------------------------------------------------------

def test_criterion_09_variance_decay_law():
    run = ensemble.run_ensemble(
        np.array([0.0, 1.0]), np.sqrt([0.5, 0.5]).astype(complex),
        sigma=1.0, dt=1e-3, base_seed=909, n_traj=10_000,
        horizon_steps=2000, record_stride=40, max_steps=2000)
    fit = reduction.variance_decay_check(run, sigma=1.0)
    monotone = np.all(np.diff(run.mean_v) <= 5.0 * (run.sem_v[1:] + run.sem_v[:-1]))
    ok = abs(fit.slope - 1.0) <= 0.1 and bool(monotone)
    _report("09-variance-decay", ok,
            f"slope={fit.slope:.4f}±{fit.stderr:.4f}, monotone={bool(monotone)}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_gibbs_martingale():
    beta = math.log(0.73 / 0.27)
    h = np.diag([0.0, 1.0]).astype(complex)
    rep = reduction.statdist_martingale_run(h, beta, sigma=1.0, n_traj=10_000,
                                            base_seed=1010, dt=1e-3)
    freq_ok = all(
        abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / rep.stats.n_traj)
        for f, p in zip(rep.stats.frequencies, rep.gibbs_weights))
    ok_main = rep.mean_dev_ratio <= 1.0 and freq_ok

    # degenerate level: reduction stops on the submanifold, no further
    # intra-manifold reduction, both projector components retained
    h4 = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    rep4 = reduction.statdist_martingale_run(h4, 0.7, sigma=1.0, n_traj=4000,
                                             base_seed=1011, dt=1e-3)
    deg_split = rep4.final_group_diagonals[1]
    deg_ok = (rep4.mean_dev_ratio <= 1.0 and len(deg_split) == 2
              and deg_split.min() > 0.3 * deg_split.sum())
    freq4_ok = all(
        abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / rep4.stats.n_traj)
        for f, p in zip(rep4.stats.frequencies, rep4.gibbs_weights))
    ok = ok_main and deg_ok and freq4_ok
    _report("10-gibbs-martingale", ok,
            f"sup_dev/(5SEM)={rep.mean_dev_ratio:.3f}, "
            f"freqs={np.round(rep.stats.frequencies, 4).tolist()} vs "
            f"{np.round(rep.gibbs_weights, 4).tolist()}, "
            f"degenerate split={np.round(deg_split, 3).tolist()}")


# 11 --------------------------------------------------------------------------

def test_criterion_11_reduction_time_scaling():
    grid = [0.5, 1 / math.sqrt(2), 1.0, math.sqrt(2)]
    rep = reduction.reduction_time_scaling(grid, grid, n_traj=512,
                                           base_seed=1111)
    ok = (abs(rep.sigma_exponent + 2.0) <= 0.2
          and abs(rep.de_exponent + 2.0) <= 0.2
          and rep.n_unreduced == 0)
    _report("11-scaling", ok,
            f"sigma exponent={rep.sigma_exponent:.3f}, "
            f"dE exponent={rep.de_exponent:.3f}")


# 12 --------------------------------------------------------------------------

def test_criterion_12_hartree_error_scaling():
    system, rho1, rho2 = composite.hartree_instance(np.random.default_rng(1212))
    rep = composite.hartree_vs_full(system, rho1, rho2, sigma=1.0, dt=2e-4,
                                    horizon=1.0, g_values=[0.0, 0.2, 0.4],
                                    n_traj=24, base_seed=1213)
    floor, d_half, d_full = rep.mean_discrepancy
    ratio = d_full / d_half
    ok = floor <= 1e-10 and abs(ratio - 4.0) <= 1.2 and rep.exponent >= 1.7
    _report("12-hartree", ok,
            f"g=0 floor={floor:.2e}, halving ratio={ratio:.2f}, "
            f"exponent={rep.exponent:.2f}")


# 13 --------------------------------------------------------------------------

def test_criterion_13_luders_scenario():
    phi = 0.7
    bamp = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2)
    rep = reduction.luders_scenario(math.sqrt(0.5), bamp, [0.5, 0.5],
                                    [1.0, 2.0], sigma=1.0, n_traj=10_000,
                                    base_seed=1313, dt=5e-4)
    freq_ok = all(
        abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / rep.stats.n_traj)
        for f, p in zip(rep.stats.frequencies, rep.stats.expected))
    ok = (freq_ok and rep.transmission_fidelity_min >= 0.99
          and rep.phase_error_max <= 1e-2)
    _report("13-luders", ok,
            f"freqs={np.round(rep.stats.frequencies, 4).tolist()} vs "
            f"{np.round(rep.stats.expected, 4).tolist()}, "
            f"min fidelity={rep.transmission_fidelity_min:.5f}, "
            f"phase err={rep.phase_error_max:.2e} rad")


# 14 --------------------------------------------------------------------------

def test_criterion_14_coherent_accretion_appendix():
    # exact distribution sums to one
    n, z = 50, 0.05
    n_max = accretion.default_truncation(n, z)
    total = sum(accretion.pnk_exact(n, n - np.arange(n_max + 1), z, n_max=n_max).tolist())
    sum_ok = abs(total - 1.0) <= 1e-10
    # Bessel addition formula
    add_ok = all(
        abs(jv(0, w) ** 2 + 2 * sum(jv(j, w) ** 2 for j in range(1, int(w) + 60)) - 1.0)
        <= 1e-10 for w in (0.5, 2.0, 7.3))
    # convergence of the approximation toward the exact values
    w = 2.0
    dists = []
    for nn in (50, 200):
        zz = w / (2 * math.sqrt(nn))
        nm = accretion.default_truncation(nn, zz) + 25
        ks = range(-20, 21)
        dists.append(sum(abs(pe - accretion.pnk_bessel(nn, kk, zz))
                         for kk, pe in zip(ks, accretion.pnk_exact(nn, ks, zz, n_max=nm))))
    conv_ok = dists[1] < 0.5 * dists[0]
    # band edges at ±2√n|z|
    ne, ze = 2500, 0.2
    edge = accretion.envelope_band(ne, ze)
    band_ok = (accretion.pnk_envelope(ne, int(edge), ze).region == "edge"
               and accretion.pnk_envelope(ne, int(edge) + 3, ze).region == "tail"
               and accretion.pnk_envelope(ne, 0, ze).region == "band")
    # occupancy chain: exact Binomial stationary law, Poisson in dilute limit
    model = accretion.AccretionModel(1000, 0.005, 0.995)
    res = accretion.occupancy_simulate(model, horizon=20_000.0, seed=1414)
    counts = res.first_occupancy + np.arange(len(res.histogram))
    nsamp = res.samples.size
    exp_b = model.stationary_law().pmf(counts) * nsamp
    exp_p = sstats.poisson.pmf(counts, model.mean_occupancy) * nsamp
    keep = exp_b > 5
    chi_b = float(((res.histogram[keep] - exp_b[keep]) ** 2 / exp_b[keep]).sum())
    p_binom = float(sstats.chi2.sf(chi_b, keep.sum() - 1))
    keep = exp_p > 5
    chi_p = float(((res.histogram[keep] - exp_p[keep]) ** 2 / exp_p[keep]).sum())
    p_pois = float(sstats.chi2.sf(chi_p, keep.sum() - 1))
    occ_ok = p_binom > 1e-3 and p_pois > 1e-3
    ok = sum_ok and add_ok and conv_ok and band_ok and occ_ok
    _report("14-appendix", ok,
            f"sum dev={abs(total-1):.1e}, l1 {dists[0]:.2e}->{dists[1]:.2e}, "
            f"binomial p={p_binom:.3g}, poisson p={p_pois:.3g}")


# 15 --------------------------------------------------------------------------

def test_criterion_15_determinism(tmp_path):
    def run(out, workers):
        cmd = [sys.executable, "-m", "reductionlab.cli", "ensemble", "born",
               "--dim", "2", "--weights", "0.3,0.7", "--ntraj", "300",
               "--dt", "0.001", "--seed", "42", "--workers", str(workers),
               "--out-dir", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return (out / "born-frequencies.csv").read_bytes()

    a = run(tmp_path / "a", 1)
    b = run(tmp_path / "b", 4)
    c = run(tmp_path / "c", 1)
    ok = a == b == c
    _report("15-determinism", ok,
            f"bytes identical across reruns and worker counts: {ok}")
