"""Command-line entry point.

Every subcommand writes deterministic CSV artifacts (header row, LF line
endings, 17 significant digits) into an output directory together with a
``config-resolved.json`` copy of the fully resolved parameters, echoes that
config, and prints one machine-readable ``RESULT`` line per check it runs.
The exit status is 0 only if all requested checks pass.  The default seed
comes from ``REDUCTIONLAB_SEED`` (falling back to 0), so a run is
reproducible from its config file alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import accretion, composite, dynamics, phenomenology as ph, reduction
from .linalg import _format, load_array, write_csv
from .noise import wiener_path

SEED_ENV = "REDUCTIONLAB_SEED"


class Reporter:
    """Collects pass/fail checks and prints RESULT lines."""

    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, **info) -> None:
        status = "PASS" if ok else "FAIL"
        print(f"RESULT check={name} status={status} {_details(info)}".rstrip())
        if not ok:
            self.failures += 1

    def value(self, name: str, **info) -> None:
        print(f"VALUE name={name} {_details(info)}")

    def bands(self, prefix: str, stats, expected, key: str) -> None:
        """Check each outcome frequency against its expected probability p,
        within 4 binomial standard deviations; key names p in the line."""
        for lab, f, p in zip(stats.outcome_labels, stats.frequencies, expected):
            band = 4.0 * math.sqrt(p * (1 - p) / stats.n_traj)
            self.check(f"{prefix}[{lab}]", abs(f - p) <= band, freq=f, **{key: p}, band=band)


def _details(info) -> str:
    """k=v pairs, each value formatted as in the CSV artifacts."""
    return " ".join(f"{k}={_format(v)}" for k, v in info.items())


def _resolve_out_dir(args, subname: str) -> Path:
    if args.out_dir:
        out = Path(args.out_dir)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = Path("out") / f"{subname}-{stamp}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_config(out_dir: Path, args) -> None:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    cfg_json = json.dumps(cfg, indent=2, sort_keys=True, default=str)
    (out_dir / "config-resolved.json").write_text(cfg_json + "\n", newline="\n")
    print(f"config: {cfg_json}")


def _parse_hamiltonian(spec: str) -> np.ndarray:
    if spec.startswith("diag:"):
        return np.diag([float(x) for x in spec[5:].split(",")]).astype(complex)
    m = load_array(spec)
    if m.ndim != 2:
        raise SystemExit(f"{spec} does not hold a matrix")
    return m


def _parse_state(spec: str, dim: int | None = None) -> np.ndarray:
    if spec.startswith("weights:"):
        w = np.array([float(x) for x in spec[8:].split(",")])
        if abs(w.sum() - 1.0) > 1e-9:
            raise SystemExit("weights must sum to 1")
        return np.sqrt(w).astype(complex)
    if spec.startswith("amps:"):
        pairs = [p.split("/") for p in spec[5:].split(",")]
        v = np.array([complex(float(a), float(b)) for a, b in pairs])
        return v / np.linalg.norm(v)
    v = load_array(spec)
    if v.ndim != 1:
        raise SystemExit(f"{spec} does not hold a vector")
    return v


def _parse_quantity(text: str) -> ph.Quantity:
    import re

    m = re.fullmatch(
        r"\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z0-9/*]*)\s*", text)
    if not m:
        raise SystemExit(f"cannot parse quantity {text!r}")
    return ph.qty(float(m.group(1)), m.group(2))


# --- subcommand implementations ----------------------------------------------


def cmd_simulate(args, rep: Reporter, out: Path) -> None:
    h = _parse_hamiltonian(args.hamiltonian)
    init = _parse_state(args.init)
    if args.density:
        init = np.outer(init, init.conj())
    cfg = dynamics.SdeConfig(sigma=args.sigma, dt=args.dt, n_steps=args.steps,
                             scheme=args.scheme, noise_form=args.noise_form,
                             record_stride=args.stride)
    traj = dynamics.evolve_trajectory(init, h, cfg, seed=args.seed)
    traj.to_csv(out / "trajectory.csv")
    if args.dump_noise:
        wiener_path(args.seed, args.dt, args.steps).to_csv(out / "noise.csv")
    rep.value("simulate", final_V=traj.variance[-1], final_E=traj.energy_mean[-1],
              rows=len(traj.times))


def cmd_ensemble_born(args, rep: Reporter, out: Path) -> None:
    energies = ([float(x) for x in args.energies.split(",")] if args.energies
                else list(range(args.dim)))
    w = np.array([float(x) for x in args.weights.split(",")])
    if len(w) != len(energies):
        raise SystemExit("need one weight per energy")
    h = np.diag(np.array(energies, float)).astype(complex)
    chi0 = np.sqrt(w / w.sum()).astype(complex)
    st = reduction.born_statistics(h, chi0, args.sigma, args.ntraj, args.seed,
                                   dt=args.dt, workers=args.workers)
    st.outcome_csv(out / "born-frequencies.csv")
    rep.bands("born", st, st.expected, "born_weight")
    counts = np.round(st.frequencies * (st.n_traj - st.n_unreduced))
    expected = st.expected * counts.sum()
    pval = _chi2_pvalue(((counts - expected) ** 2 / expected).sum(), len(counts) - 1)
    rep.check("born-chi2", pval > 1e-3, p_value=pval)


def cmd_ensemble_statdist(args, rep: Reporter, out: Path) -> None:
    energies = ([float(x) for x in args.energies.split(",")] if args.energies
                else list(range(args.dim)))
    h = np.diag(np.array(energies, float)).astype(complex)
    report = reduction.statdist_martingale_run(
        h, args.beta, args.sigma, args.ntraj, args.seed,
        dt=args.dt, workers=args.workers)
    report.stats.outcome_csv(out / "statdist-frequencies.csv")
    report.stats.series_csv(out / "statdist-series.csv")
    rep.check("statdist-mean", report.mean_dev_ratio <= 1.0,
              sup_dev=report.sup_mean_deviation, allowed=report.sup_allowed)
    rep.bands("statdist", report.stats, report.gibbs_weights, "gibbs")


def cmd_ensemble_luders(args, rep: Reporter, out: Path) -> None:
    alpha = math.sqrt(args.alpha2)
    bamp = _parse_state(args.branch)
    mw = np.array([float(x) for x in args.weights.split(",")])
    me = ([float(x) for x in args.energies.split(",")] if args.energies
          else [1.0 + i for i in range(len(mw))])
    rp = reduction.luders_scenario(alpha, bamp, mw / mw.sum(), me,
                                   args.sigma, args.ntraj, args.seed,
                                   dt=args.dt, workers=args.workers)
    rp.stats.outcome_csv(out / "luders-frequencies.csv")
    rep.bands("luders", rp.stats, rp.expected, "expected")
    rep.check("luders-fidelity", rp.transmission_fidelity_min >= 0.99,
              min_fidelity=rp.transmission_fidelity_min)
    rep.check("luders-phase", rp.phase_error_max <= 1e-2,
              max_phase_error=rp.phase_error_max)


def cmd_ensemble_scaling(args, rep: Reporter, out: Path) -> None:
    sv = [float(x) for x in args.sigma_values.split(",")]
    dv = [float(x) for x in args.de_values.split(",")]
    sc = reduction.reduction_time_scaling(dv, sv, n_traj=args.ntraj,
                                          base_seed=args.seed, workers=args.workers)
    write_csv(out / "scaling-sigma.csv", "sigma,median_t_r",
              zip(sc.sigma_values, sc.sigma_medians))
    write_csv(out / "scaling-de.csv", "delta_e,median_t_r",
              zip(sc.de_values, sc.de_medians))
    rep.check("scaling-sigma", abs(sc.sigma_exponent + 2.0) <= 0.2,
              exponent=sc.sigma_exponent)
    rep.check("scaling-de", abs(sc.de_exponent + 2.0) <= 0.2,
              exponent=sc.de_exponent)


def cmd_cluster_check(args, rep: Reporter, out: Path) -> None:
    worst = composite.clustering_survey(np.random.default_rng(args.seed), args.instances)
    write_csv(out / "cluster-residuals.csv", "case,worst_residual", worst.items())
    generic = worst.pop("generic-mixed-dc")
    for name, v in worst.items():
        rep.check(f"cluster[{name}]", v <= 1e-12, residual=v)
    rep.check("cluster[generic-nonzero]", generic > 1e-6, residual=generic)


def cmd_hartree(args, rep: Reporter, out: Path) -> None:
    system, rho1, rho2 = composite.hartree_instance(np.random.default_rng(args.seed + 101),
                                                    args.dim)
    gv = [float(x) for x in args.g_values.split(",")]
    # the g = 0 floor rides along as the last coupling; the exponent fit skips g = 0
    full = composite.hartree_vs_full(system, rho1, rho2, args.sigma, args.dt,
                                     args.horizon, gv + [0.0], args.ntraj, args.seed,
                                     workers=args.workers)
    report = composite.HartreeReport(full.g_values[:-1], full.mean_discrepancy[:-1],
                                     full.sem[:-1], full.exponent)
    report.csv(out / "hartree-discrepancy.csv")
    rep.check("hartree-exponent", report.exponent >= 1.7, exponent=report.exponent)
    floor = full.mean_discrepancy[-1]
    rep.check("hartree-g0", floor <= 1e-10, discrepancy=floor)


def cmd_accretion_occupancy(args, rep: Reporter, out: Path) -> None:
    model = accretion.AccretionModel(args.sites, args.mass, args.stick, args.evap)
    res = accretion.occupancy_simulate(model, args.horizon, args.seed)
    write_csv(out / "occupancy-histogram.csv", "count,samples",
              enumerate(res.histogram))
    n = np.arange(len(res.histogram))
    expected = accretion.stationary_binomial_pmf(model, n) * res.samples.size
    obs, exp = _merge_bins(res.histogram, expected)
    pval = _chi2_pvalue(float(((obs - exp) ** 2 / exp).sum()), max(len(obs) - 1, 1))
    rep.check("occupancy-binomial", pval > 1e-3, p_value=pval,
              mean=res.mean, expected_mean=model.mean_occupancy)
    rep.value("occupancy-rms", sampled=res.std,
              sqrt_mean=math.sqrt(model.mean_occupancy))


def _chi2_pvalue(chi2: float, dof: int) -> float:
    """Upper tail of the χ² law with dof degrees of freedom at chi2."""
    from scipy.special import chdtrc

    return float(chdtrc(dof, chi2))


def _merge_bins(observed, expected, floor: float = 5.0):
    obs, exp = [], []
    co = ce = 0.0
    for o, e in zip(observed, expected):
        co += o
        ce += e
        if ce >= floor:
            obs.append(co)
            exp.append(ce)
            co = ce = 0.0
    if ce > 0 and exp:
        obs[-1] += co
        exp[-1] += ce
    return np.asarray(obs), np.asarray(exp)


def cmd_accretion_coherent(args, rep: Reporter, out: Path) -> None:
    n, z = args.n, complex(args.z)
    rows = []
    for k in range(-args.kmax, args.kmax + 1):
        if n - k < 0:
            continue
        pe = accretion.pnk_exact(n, k, z)
        pb = accretion.pnk_bessel(n, k, z)
        env = accretion.pnk_envelope(n, k, z)
        rows.append((k, pe, pb, env.value if env.region == "band" else 0.0))
    write_csv(out / "coherent-spectrum.csv", "k,p_exact,p_bessel,envelope", rows)
    n_max = accretion.default_truncation(n, z)
    total = sum(accretion.pnk_exact(n, n - m, z, n_max=n_max) for m in range(n_max + 1))
    rep.check("coherent-sum", abs(total - 1.0) <= 1e-10, total=total)
    cross = max(abs(accretion.pnk_exact(n, k, z) - accretion.pnk_laguerre(n, k, z))
                for k in range(-5, 6))
    rep.check("coherent-crosscheck", cross <= 1e-10, max_diff=cross)


def cmd_phenom_treduce(args, rep: Reporter, out: Path) -> None:
    de = _parse_quantity(args.delta_e)
    t = ph.t_reduce(de)
    write_csv(out / "t-reduce.csv", "delta_e_eV,t_r_s", [(de.to("eV"), t.to("s"))])
    rep.value("t-reduce", delta_e_eV=de.to("eV"), t_r_s=t.to("s"))


def cmd_phenom_accretion(args, rep: Reporter, out: Path) -> None:
    preset = ph.PRESETS[args.preset]
    area = _parse_quantity(args.area)
    est = ph.accretion_reduction_for_area(preset, area)
    write_csv(out / "phenom-accretion.csv",
              "preset,area_cm2,t_r_s,molecules,valid",
              [(preset.name, area.to("cm2"), est.t_r.to("s"), est.molecules,
                int(est.valid))])
    rep.value("phenom-accretion", preset=preset.name, t_r_s=est.t_r.to("s"),
              molecules=est.molecules, valid=est.valid)


def cmd_phenom_table(args, rep: Reporter, out: Path) -> None:
    rows = ph.scenario_table()
    ph.scenario_table_csv(out / "scenario-table.csv", rows)
    hdr = f"{'preset':<14}{'A(t_R=1e-8s)':>16}{'A(t_R=3e-4s)':>16}{'t_R(1cm2)':>14}{'molecules':>12}"
    print(hdr)
    for r in rows:
        print(f"{r.preset:<14}{r.area_fast.to('cm2'):>16.3e}"
              f"{r.area_relaxed.to('cm2'):>16.3e}"
              f"{r.t_r_at_1cm2.to('s'):>14.3e}{r.molecules_at_1cm2:>12.3e}")
    rep.value("phenom-table", rows=len(rows))


def cmd_reproduce_paper(args, rep: Reporter, out: Path) -> None:
    rows = []
    print(f"{'check':<28}{'computed':>14}{'source':>12}{'ratio':>9}  status")
    for row in ph.PAPER_VALUES:
        value, ok = row.evaluate()
        ratio = value / row.source
        status = "PASS" if ok else "FAIL"
        rows.append((row.name, value, row.source, ratio, status))
        print(f"{row.name:<28}{value:>14.4g}{row.source:>12.3g}{ratio:>9.3f}  {status}")
        rep.check(f"paper[{row.name}]", ok, computed=value, source=row.source, ratio=ratio)
    write_csv(out / "paper-values.csv", "check,computed,source,ratio,status", rows)


# --- parser ------------------------------------------------------------------


def _add_common(p, *, ntraj=None):
    """The flags every command takes; a trajectory ensemble (ntraj given) also
    takes --ntraj and --workers, which no other command would use."""
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get(SEED_ENV, "0")))
    p.add_argument("--out-dir", default=None,
                   help="output directory (default out/<subcommand>-<timestamp>)")
    p.add_argument("--config", default=None,
                   help="JSON file of parameter defaults (flags override)")
    if ntraj is not None:
        p.add_argument("--ntraj", type=int, default=ntraj)
        p.add_argument("--workers", type=int, default=os.cpu_count(),
                       help="worker processes over trajectory spans; results are "
                            "byte-identical for any worker count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reductionlab",
        description="energy-driven stochastic reduction laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a single trajectory")
    p.add_argument("--hamiltonian", default="diag:0,1", help="'diag:e1,e2,...' or matrix file")
    p.add_argument("--init", default="weights:0.5,0.5",
                   help="'weights:w1,...', 'amps:re/im,...', or vector file")
    p.add_argument("--density", action="store_true", help="evolve |χ⟩⟨χ| instead of χ")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--scheme", default=dynamics.EULER_RENORMALIZED,
                   choices=[dynamics.EULER_MARUYAMA, dynamics.EULER_RENORMALIZED])
    p.add_argument("--noise-form", default=dynamics.ANTICOMMUTATOR,
                   choices=[dynamics.ANTICOMMUTATOR, dynamics.DOUBLE_COMMUTATOR])
    p.add_argument("--dump-noise", action="store_true",
                   help="also write the consumed Wiener increments (step,dW)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate, subname="simulate")

    ens = sub.add_parser("ensemble", help="ensemble statistics").add_subparsers(
        dest="mode", required=True)

    p = ens.add_parser("born", help="Born-rule frequency test")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--weights", default="0.5,0.5")
    p.add_argument("--energies", default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)
    _add_common(p, ntraj=10000)
    p.set_defaults(func=cmd_ensemble_born, subname="ensemble-born")

    p = ens.add_parser("statdist", help="Gibbs martingale ensemble")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--energies", default=None)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)
    _add_common(p, ntraj=10000)
    p.set_defaults(func=cmd_ensemble_statdist, subname="ensemble-statdist")

    p = ens.add_parser("luders", help="partial-measurement scenario")
    p.add_argument("--alpha2", type=float, default=0.5,
                   help="transmission probability |α|²")
    p.add_argument("--branch",
                   default="amps:0.7071067811865476/0,"
                           "0.5408280772796764/0.4555331482329007",
                   help="amplitudes of the untouched degenerate branch "
                        "(default: (1, e^{0.7i})/sqrt(2))")
    p.add_argument("--weights", default="0.5,0.5", help="measured branch weights")
    p.add_argument("--energies", default=None, help="measured branch energies")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)
    _add_common(p, ntraj=10000)
    p.set_defaults(func=cmd_ensemble_luders, subname="ensemble-luders")

    p = ens.add_parser("scaling", help="reduction-time power laws")
    p.add_argument("--sigma-values", default="0.5,0.7071,1.0,1.4142")
    p.add_argument("--de-values", default="0.5,0.7071,1.0,1.4142")
    _add_common(p, ntraj=512)
    p.set_defaults(func=cmd_ensemble_scaling, subname="ensemble-scaling")

    p = sub.add_parser("cluster-check", help="clustering residual checks")
    p.add_argument("--instances", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_cluster_check, subname="cluster-check")

    p = sub.add_parser("hartree", help="mean-field vs full comparison")
    hsub = p.add_subparsers(dest="mode", required=True)
    p = hsub.add_parser("compare")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--g-values", default="0.1,0.2,0.4")
    _add_common(p, ntraj=12)
    p.set_defaults(func=cmd_hartree, subname="hartree-compare")

    acc = sub.add_parser("accretion", help="occupancy chain / coherent spectra")
    asub = acc.add_subparsers(dest="mode", required=True)
    p = asub.add_parser("occupancy")
    p.add_argument("--sites", type=int, default=1000)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--stick", type=float, default=0.005)
    p.add_argument("--evap", type=float, default=0.995)
    p.add_argument("--horizon", type=float, default=20000.0)
    _add_common(p)
    p.set_defaults(func=cmd_accretion_occupancy, subname="accretion-occupancy")
    p = asub.add_parser("coherent")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--z", default="0.05")
    p.add_argument("--kmax", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_accretion_coherent, subname="accretion-coherent")

    phn = sub.add_parser("phenom", help="unit-aware estimates")
    psub = phn.add_subparsers(dest="mode", required=True)
    p = psub.add_parser("t-reduce")
    p.add_argument("--delta-e", required=True, help="e.g. 8.6e-6eV or 2.4MeV")
    _add_common(p)
    p.set_defaults(func=cmd_phenom_treduce, subname="phenom-t-reduce")
    p = psub.add_parser("accretion")
    p.add_argument("--area", default="1cm2")
    p.add_argument("--preset", default="air-stp", choices=sorted(ph.PRESETS))
    _add_common(p)
    p.set_defaults(func=cmd_phenom_accretion, subname="phenom-accretion")
    p = psub.add_parser("table")
    _add_common(p)
    p.set_defaults(func=cmd_phenom_table, subname="phenom-table")

    p = sub.add_parser("reproduce-paper",
                       help="evaluate every closed-form estimate against its source value")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce_paper, subname="reproduce-paper")
    return ap


def _apply_config_file(ap: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Resolve parameters: CLI flags beat the config file beat defaults.  Each
    config key of the command goes in as --key=value (true: a bare switch;
    null, false: no flag) before the command line's own flags, which win."""
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        flags = []
        for key, val in json.loads(Path(args.config).read_text()).items():
            flag = "--" + key.replace("_", "-")
            if hasattr(args, key.replace("-", "_")) and val is not None and val is not False:
                flags.append(flag if val is True else f"{flag}={val}")
        words = next((k for k, tok in enumerate(argv) if tok.startswith("-")), len(argv))
        args = ap.parse_known_args(argv[:words] + flags + argv[words:])[0]
    return args


def main(argv=None) -> int:
    ap = build_parser()
    args = _apply_config_file(ap, sys.argv[1:] if argv is None else argv)
    rep = Reporter()
    out = _resolve_out_dir(args, args.subname)
    _dump_config(out, args)
    try:
        args.func(args, rep, out)
    except (ValueError, RuntimeError) as exc:
        print(f"ERROR module={args.subname} detail={exc}", file=sys.stderr)
        return 2
    print(f"artifacts: {out}")
    return 0 if rep.failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
