import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from reductionlab import accretion, composite, dynamics, ensemble, phenomenology as ph, reduction
from reductionlab.cli import _merge_bins, main


def run_cli(args):
    return main(args)


def hartree_default_dt(seed, sigma):
    """The dt `hartree compare --seed seed --sigma sigma` takes by default."""
    system, rho1, rho2 = composite.hartree_instance(np.random.default_rng(seed + 101))
    return composite.hartree_vs_full(system, rho1, rho2, sigma, None, 1e-3, [0.1, 0.2, 0.4, 0.0],
                                     2, workers=1).dt


def test_reproduce_paper_exits_clean(tmp_path, capsys):
    assert run_cli(["reproduce-paper", "--out-dir", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "status=FAIL" not in out
    csv = (tmp_path / "r" / "paper-values.csv").read_text()
    assert csv.startswith("check,computed,source,ratio,status")
    assert "FAIL" not in csv
    assert [ln.split(",")[0] for ln in csv.splitlines()[1:]] == [r.name for r in ph.PAPER_VALUES]


def test_cluster_check_reports_the_survey(tmp_path, capsys):
    assert run_cli(["cluster-check", "--seed", "707", "--instances", "100",
                    "--out-dir", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    worst = composite.clustering_survey(np.random.default_rng(707), 100)
    assert ((tmp_path / "c" / "cluster-residuals.csv").read_text().splitlines()
            == ["case,worst_residual"] + [f"{k},{v:.17g}" for k, v in worst.items()])
    generic = worst.pop("generic-mixed-dc")
    for k, v in [*worst.items(), ("generic-nonzero", generic)]:
        assert f"check=cluster[{k}] status=PASS residual={v:.17g}" in out


@pytest.mark.parametrize("cmd", [["cluster-check", "--instances", "0"],
                                 ["cluster-check", "--instances", "-3"],
                                 ["hartree", "compare", "--dim", "1", "--ntraj", "2"]],
                         ids=["instances-0", "instances-negative", "hartree-dim-1"])
def test_empty_or_degenerate_instance_exits_2(cmd, tmp_path, capsys):
    assert run_cli(cmd + ["--out-dir", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert "RESULT" not in out and "ERROR" in err


def test_simulate_writes_trajectory(tmp_path):
    assert run_cli(["simulate", "--steps", "200", "--stride", "20",
                    "--out-dir", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,reH_exp,V,purity_residual"
    assert len(lines) == 12
    assert (tmp_path / "s" / "config-resolved.json").exists()


@pytest.mark.parametrize("extra", [[], ["--density"]], ids=["vector", "density"])
def test_simulate_far_from_the_zero_of_energy_records_the_same_variance(extra, tmp_path):
    def variance(energies):
        out = tmp_path / energies
        assert run_cli(["simulate", "--hamiltonian", f"diag:{energies}", "--steps", "500",
                        "--stride", "100", "--out-dir", str(out), *extra]) == 0
        return np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 2]

    assert np.abs(variance("100000000,100000001") - variance("0,1")).max() <= 1e-12


def test_born_small_run(tmp_path, capsys):
    rc = run_cli(["ensemble", "born", "--dim", "2", "--weights", "0.3,0.7",
                  "--ntraj", "300", "--dt", "0.001", "--seed", "5",
                  "--out-dir", str(tmp_path / "b")])
    assert rc == 0
    assert (tmp_path / "b" / "born-frequencies.csv").exists()
    assert "RESULT check=born-chi2 status=PASS" in capsys.readouterr().out


def test_determinism_across_runs_and_workers(tmp_path):
    base = ["ensemble", "born", "--dim", "2", "--weights", "0.4,0.6",
            "--ntraj", "300", "--dt", "0.001", "--seed", "9"]
    for name, extra in [("a", ["--workers", "1"]), ("b", ["--workers", "4"]),
                        ("c", ["--workers", "1"])]:
        assert run_cli(base + extra + ["--out-dir", str(tmp_path / name)]) == 0
    ref = (tmp_path / "a" / "born-frequencies.csv").read_bytes()
    assert (tmp_path / "b" / "born-frequencies.csv").read_bytes() == ref
    assert (tmp_path / "c" / "born-frequencies.csv").read_bytes() == ref


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"weights": "0.2,0.8", "ntraj": 200, "dt": 0.001}))
    rc = run_cli(["ensemble", "born", "--config", str(cfg), "--seed", "3",
                  "--out-dir", str(tmp_path / "c")])
    assert rc == 0
    resolved = json.loads((tmp_path / "c" / "config-resolved.json").read_text())
    assert resolved["weights"] == "0.2,0.8"
    assert resolved["ntraj"] == 200


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ntraj": 999999}))
    rc = run_cli(["ensemble", "born", "--config", str(cfg), "--ntraj", "150",
                  "--dt", "0.001", "--weights", "0.5,0.5",
                  "--out-dir", str(tmp_path / "c")])
    assert rc == 0
    resolved = json.loads((tmp_path / "c" / "config-resolved.json").read_text())
    assert resolved["ntraj"] == 150


def test_invalid_input_nonzero_exit(tmp_path, capsys):
    rc = run_cli(["ensemble", "luders", "--alpha2", "0.5",
                  "--weights", "0.5,0.5", "--energies", "1.0,1.0",
                  "--ntraj", "10", "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--weights", "nan,1"], ["--weights", "1,-1"],
                                   ["--weights", "0.5,0.5", "--dt", "0"],
                                   ["--weights", "0.5,0.5", "--sigma", "nan"],
                                   ["--weights", "0.5,0.5", "--sigma", "0"]])
def test_bad_ensemble_input_exits_2_fast(tmp_path, capsys, extra):
    t0 = time.monotonic()
    with np.errstate(all="ignore"):
        rc = run_cli(["ensemble", "born", "--dim", "2", "--ntraj", "64",
                      "--out-dir", str(tmp_path / "x")] + extra)
    assert rc == 2
    assert time.monotonic() - t0 < 5.0
    assert "ERROR" in capsys.readouterr().err


WEIGHTS = "weights must be finite and nonnegative with a positive sum, got -0.5,1.5"


@pytest.mark.parametrize("cmd, detail", [
    (["ensemble", "born", "--energies", "0,1", "--weights", "1"], "need one weight per energy"),
    (["phenom", "t-reduce", "--delta-e", "abc"], "cannot parse quantity 'abc'"),
    (["simulate", "--init", "weights:0.5,0.6"], "weights must sum to 1"),
    (["simulate", "--hamiltonian", "{vector}"], "does not hold a matrix"),
    (["simulate", "--init", "{matrix}"], "does not hold a vector"),
    (["ensemble", "born", "--weights=-0.5,1.5"], WEIGHTS),
    (["ensemble", "luders", "--branch", "weights:-0.5,1.5"], WEIGHTS),
    (["ensemble", "born", "--energies", "0,nan"],
     "--energies must be comma-separated finite numbers, got 0,nan"),
    (["ensemble", "statdist", "--beta", "nan"], "beta must be finite, got nan"),
    (["accretion", "coherent", "--kmax", "100000"],   # unchecked, a 75 GiB array
     "n = 400, k = -100000 and |z| = 0.05 need 100570 Fock levels, above the cap of 4096"),
    (["hartree", "compare", "--g-values", "0", "--workers", "1"],
     "--g-values needs two distinct positive couplings to fit an exponent, got 0"),
    (["accretion", "coherent", "--z", "inf"], "z must be finite, got (inf+0j)"),
    (["accretion", "coherent", "--z", "nan"], "z must be finite, got (nan+0j)"),
    (["accretion", "coherent", "--kmax", "-1"], "--kmax must be nonnegative, got -1"),
    (["accretion", "coherent", "--kmax", "1000000000"],   # an 8 GB k array if built first
     "k = -1000000000 and |z| = 0.05 need 1000016223 Fock levels, above the cap of 4096"),
    (["ensemble", "born", "--energies", "0,inf"],   # not "H is not finite", nor a warning
     "--energies must be comma-separated finite numbers, got 0,inf"),
    (["ensemble", "statdist", "--energies", "0,abc"],
     "--energies must be comma-separated finite numbers, got 0,abc"),
    (["ensemble", "luders", "--energies", "1,inf"],
     "--energies must be comma-separated finite numbers, got 1,inf"),
    (["accretion", "coherent", "--z", "1e200"],   # |z|² overflowed before the cap
     "|z| = 1e+200 needs more Fock levels than the cap of 4096"),
    (["accretion", "coherent", "--z", "abc"], "--z must be a complex number, got 'abc'"),
    (["ensemble", "luders", "--alpha2", "-1"], "--alpha2 must be in (0, 1], got -1.0"),
    (["ensemble", "luders", "--alpha2", "0"], "--alpha2 must be in (0, 1], got 0.0"),
    (["ensemble", "luders", "--alpha2", "1.5"], "--alpha2 must be in (0, 1], got 1.5"),
    (["simulate", "--density", "--scheme", "euler_maruyama"],
     "scheme 'euler_maruyama' steps state vectors only: the density step always "
     "renormalizes its trace"),
    (["phenom", "accretion", "--area=0cm2"],   # a ZeroDivisionError traceback
     "area must be finite and positive, got 0.0 cm2"),
    (["phenom", "accretion", "--area=-1cm2"],   # a negative molecule count
     "area must be finite and positive, got -1.0 cm2"),
    (["phenom", "accretion", "--area=1e400cm2"],   # t_r_s=0
     "area must be finite and positive, got inf cm2"),
    (["phenom", "t-reduce", "--delta-e=1e400eV"],   # t_r_s=0
     "energy spread must be finite and positive, got inf eV"),
    (["phenom", "accretion", "--area=1e300cm2"],   # t_r_s=0 molecules=nan
     "area 1e+300 cm2 gives t_R = 0.0 s and nan molecules, outside the float range"),
    (["phenom", "accretion", "--area=1e-300cm2"],   # t_r_s=inf molecules=inf
     "area 1e-300 cm2 gives t_R = inf s and inf molecules, outside the float range"),
    (["phenom", "t-reduce", "--delta-e=1e300eV"],   # t_r_s=0
     "energy spread 1e+300 eV gives t_R = 0.0 s, outside the float range"),
    (["phenom", "t-reduce", "--delta-e=1e-300eV"],   # t_r_s=inf
     "energy spread 1e-300 eV gives t_R = inf s, outside the float range"),
], ids=["born-weight-count", "quantity", "weights-sum", "vector-as-hamiltonian",
        "matrix-as-init", "born-negative-weight", "luders-negative-branch-weight",
        "born-nan-energy", "statdist-nan-beta", "coherent-kmax-past-the-cap",
        "hartree-one-coupling", "coherent-z-inf", "coherent-z-nan", "coherent-negative-kmax",
        "coherent-kmax-past-the-cap-before-allocating", "born-inf-energy",
        "statdist-unparsable-energy", "luders-inf-energy", "coherent-z-past-the-cap",
        "coherent-unparsable-z", "luders-negative-alpha2", "luders-zero-alpha2",
        "luders-alpha2-above-one", "simulate-density-euler-maruyama", "phenom-zero-area",
        "phenom-negative-area", "phenom-infinite-area", "t-reduce-infinite-delta-e",
        "phenom-area-past-the-float-range", "phenom-area-below-the-float-range",
        "t-reduce-delta-e-past-the-float-range", "t-reduce-delta-e-below-the-float-range"])
def test_bad_cli_input_exits_2_with_its_error_line(cmd, detail, tmp_path, capsys):
    (tmp_path / "vector.txt").write_text("2\n1 0\n0 0\n")
    (tmp_path / "matrix.txt").write_text("2\n1 0\n0 0\n0 0\n0 0\n")
    cmd = [a.format(vector=tmp_path / "vector.txt", matrix=tmp_path / "matrix.txt") for a in cmd]
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a RuntimeWarning on the way fails the test
        assert run_cli(cmd + ["--out-dir", str(tmp_path / "x")]) == 2
    assert time.monotonic() - t0 < 5.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR module=") and detail in err[0], err


def test_negative_population_exits_2_fast(tmp_path, capsys):
    # σ²ΔE²dt = 0.099 passes the hard stability bound; populations still go negative
    t0 = time.monotonic()
    with pytest.warns(RuntimeWarning, match="comfort bound"):
        rc = run_cli(["ensemble", "statdist", "--energies", "0,3", "--dt", "0.011",
                      "--ntraj", "64", "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert time.monotonic() - t0 < 5.0
    assert "negative population" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["born", "statdist"])
def test_unstable_dt_exits_2_fast(tmp_path, capsys, mode):
    # σ²ΔE²dt = 0.45, above the hard bound 0.1
    t0 = time.monotonic()
    rc = run_cli(["ensemble", mode, "--energies", "0,3", "--dt", "0.05", "--ntraj", "64",
                  "--out-dir", str(tmp_path / "x")]
                 + (["--weights", "0.5,0.5"] if mode == "born" else []))
    assert rc == 2
    assert time.monotonic() - t0 < 5.0
    assert "exceeds hard bound" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--hamiltonian", "diag:nan,1"], "H is not finite"),
    (["--init", "weights:-0.5,1.5"],
     "weights must be finite and nonnegative with a positive sum, got -0.5,1.5"),
    (["--hamiltonian", "{skew}"], "H is not Hermitian: relative defect 1.00e+00"),
    (["--hamiltonian", "{skew}", "--density"], "H is not Hermitian: relative defect 1.00e+00"),
    (["--hamiltonian", "diag:0,1,2"],
     "initial state has shape (2,), which does not match H's 3×3")],
    ids=["nan-hamiltonian", "negative-weight", "non-hermitian", "non-hermitian-density",
         "dimension-mismatch"])
def test_simulate_bad_input_exits_2_before_the_first_step(extra, message, tmp_path):
    # a million steps would take minutes: in a child process, with a timeout
    (tmp_path / "skew.txt").write_text("2\n0 0\n1 0\n0 0\n1 0\n")   # [[0, 1], [0, 1]]
    extra = [a.format(skew=tmp_path / "skew.txt") for a in extra]
    proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", "simulate", *extra,
                           "--steps", "1000000", "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=5.0)
    assert proc.returncode == 2
    assert f"ERROR module=simulate detail={message}" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("extra", [["--dt", "nan"], ["--dt", "inf", "--sigma", "0"]])
def test_simulate_non_finite_dt_exits_2_fast(tmp_path, capsys, extra):
    t0 = time.monotonic()
    rc = run_cli(["simulate", "--steps", "5", "--out-dir", str(tmp_path / "x")] + extra)
    assert rc == 2
    assert time.monotonic() - t0 < 5.0
    assert "dt must be finite and positive" in capsys.readouterr().err


def test_hartree_compare_matches_direct_calls(tmp_path, capsys):
    # the command's set-up at seed 0 and its defaults: sigma 1, g 0.1,0.2,0.4, and dt the
    # largest at which σ²ΔE²dt stays at the comfort bound over those g and g = 0
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert run_cli(["hartree", "compare", "--ntraj", "2", "--horizon", "0.01", "--seed",
                        "0", "--out-dir", str(tmp_path / "h")]) == 0
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
    system, rho1, rho2 = composite.hartree_instance(np.random.default_rng(101))
    dt = hartree_default_dt(0, 1.0)
    assert 1.5e-4 < dt < 1.6e-4
    assert hartree_default_dt(0, 0.0) == 1e-3
    resolved = json.loads((tmp_path / "h" / "config-resolved.json").read_text())
    assert resolved["dt"] == dt and "resolve" not in resolved
    args = (system, rho1, rho2, 1.0, dt, 0.01)
    direct = composite.hartree_vs_full(*args, [0.1, 0.2, 0.4], 2, 0)
    assert direct.dt == dt
    direct.csv(tmp_path / "direct.csv")
    assert ((tmp_path / "h" / "hartree-discrepancy.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())
    floor = composite.hartree_vs_full(*args, [0.0], 2, 0).mean_discrepancy[0]
    assert f"check=hartree-g0 status=PASS discrepancy={floor:.17g}" in capsys.readouterr().out


@pytest.mark.parametrize("seed,sigma", [(0, 1.0), (1, 1.0), (78, 1.0), (50, 0.7)])
def test_hartree_default_dt_is_the_largest_at_the_comfort_bound(seed, sigma):
    # at seeds 78 and 50 the division rounds the product above the bound by one ulp
    system, _, _ = composite.hartree_instance(np.random.default_rng(seed + 101))
    gv = [0.1, 0.2, 0.4, 0.0]
    dt = hartree_default_dt(seed, sigma)
    spectra = [np.linalg.eigh(system.total_hamiltonian(g))[0] for g in gv]
    h_range = max(e[-1] - e[0] for e in spectra)   # as hartree_vs_full forms it
    product = sigma * sigma * h_range * h_range   # as check_stability forms it
    assert product * dt <= dynamics.STABILITY_WARN < product * np.nextafter(dt, 1.0)
    assert (dynamics.STABILITY_WARN / product > dt) == (seed in (78, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamics.check_stability(sigma, dt, h_range)


def test_hartree_compare_horizon_above_the_step_budget_exits_2_fast(tmp_path):
    # a horizon of 10⁹ ran without end before the budget check: so in a child
    # process, and serial, so that the timeout leaves no forked worker running
    proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", "hartree", "compare",
                           "--ntraj", "4", "--horizon", "1e9", "--workers", "1",
                           "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=10.0)
    assert proc.returncode == 2
    assert (f"ERROR module=hartree-compare detail=horizon must be finite and round to between 1 "
            f"and {ensemble.MAX_STEPS} steps of dt = ") in proc.stderr
    assert "got 1000000000.0" in proc.stderr


def _running(pid):
    """Whether pid is a process that has not exited: /proc lists a zombie
    until whoever adopted it reaps it, which a container's init may never do."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _children(pid):
    """The running children of pid, from /proc."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except OSError:   # gone since the listing
            continue
        if ppid == pid and _running(int(stat.parent.name)):
            kids.append(int(stat.parent.name))
    return kids


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="workers die with their parent on Linux only; the test reads /proc")
def test_span_workers_die_with_a_killed_cli(tmp_path):
    # a CLI killed alone, as a timeout kills its child, left both workers running
    cli = subprocess.Popen([sys.executable, "-m", "reductionlab.cli", "ensemble", "born",
                            "--ntraj", "20000", "--workers", "2", "--out-dir", str(tmp_path / "b")],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and cli.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            workers = _children(cli.pid)
        assert len(workers) == 2, f"the CLI started {len(workers)} workers"
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, workers))
    finally:
        cli.kill()
        cli.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_hartree_compare_bad_sigma_records_no_dt(tmp_path, capsys):
    # sigma is rejected before a step is derived, so the config keeps dt null
    assert run_cli(["hartree", "compare", "--sigma", "inf", "--ntraj", "2", "--horizon", "0.01",
                    "--out-dir", str(tmp_path / "x")]) == 2
    assert "sigma must be finite and nonnegative, got inf" in capsys.readouterr().err
    assert json.loads((tmp_path / "x" / "config-resolved.json").read_text())["dt"] is None


def test_hartree_compare_identical_for_any_worker_count(tmp_path, capsys):
    # four trajectories: one span at --workers 1, two forked spans at --workers 2
    outs = []
    for workers in ("1", "2"):
        assert run_cli(["hartree", "compare", "--ntraj", "4", "--horizon", "0.01", "--seed", "3",
                        "--workers", workers, "--out-dir", str(tmp_path / workers)]) == 0
        results = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("RESULT")]
        outs.append(((tmp_path / workers / "hartree-discrepancy.csv").read_bytes(), results))
    assert len(outs[0][1]) == 2
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cmd", [["ensemble", "born", "--ntraj", "16"],
                                 ["hartree", "compare", "--ntraj", "4", "--horizon", "0.01"]],
                         ids=["born", "hartree"])
@pytest.mark.parametrize("workers", ["-3", "0"])
def test_bad_worker_count_exits_2(cmd, workers, tmp_path, capsys):
    assert run_cli(cmd + ["--workers", workers, "--out-dir", str(tmp_path / "w")]) == 2
    assert "workers must be None or an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["simulate", "--steps", "5"], ["cluster-check", "--instances", "2"],
                                 ["phenom", "table"], ["reproduce-paper"]],
                         ids=["simulate", "cluster-check", "phenom", "reproduce-paper"])
def test_commands_without_a_pool_take_no_workers_flag(cmd, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd + ["--workers", "-3", "--out-dir", str(tmp_path / "w")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers -3" in capsys.readouterr().err


def test_config_workers_key_ignored_where_no_pool_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 3, "steps": 5, "stride": 1}))
    assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
    resolved = json.loads((tmp_path / "s" / "config-resolved.json").read_text())
    assert resolved["steps"] == 5 and "workers" not in resolved
    assert len((tmp_path / "s" / "trajectory.csv").read_text().splitlines()) == 7


@pytest.mark.parametrize("extra", [["--dim", "1", "--energies", "0"],
                                   ["--sigma", "0", "--beta", "1000"]],
                         ids=["one-level", "sigma-zero"])
def test_statdist_of_a_reduced_state_exits_0(extra, tmp_path, capsys):
    rc = run_cli(["ensemble", "statdist", "--ntraj", "32", "--workers", "1",
                  "--out-dir", str(tmp_path / "s")] + extra)
    assert rc == 0
    assert "status=FAIL" not in capsys.readouterr().out


def test_statdist_mean_line_shows_its_worst_time(tmp_path, capsys):
    # one Gibbs weight is 1.9e-22: the line fails at the record time where
    # dev/allowed peaks, and must show dev above allowed there
    rc = run_cli(["ensemble", "statdist", "--beta", "-50", "--ntraj", "8", "--workers", "1",
                  "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "check=statdist-mean " in ln)
    assert "status=FAIL" in line
    info = dict(kv.split("=") for kv in line.split()[3:])
    assert set(info) == {"ratio", "t", "dev", "allowed"}
    ratio, t, dev, allowed = (float(info[k]) for k in ("ratio", "t", "dev", "allowed"))
    assert ratio > 1 and dev > allowed and t > 0
    assert ratio == dev / allowed


@pytest.mark.parametrize("extra", [["--energies", "1,1", "--weights", "0.5,0.5"],
                                   ["--energies", "1,1", "--weights", "1,0"],
                                   ["--weights", "1,0"],
                                   ["--energies", "0,1,2", "--weights", "0.5,0.5,0"]],
                         ids=["one-group", "one-group-zero-weight", "zero-weight",
                              "three-levels-zero-weight"])
def test_born_over_zero_weights_or_one_group_passes(extra, tmp_path, capsys):
    # a group's weight can sum to 1 + 2⁻⁵², and a zero-weight outcome has no χ² term
    rc = run_cli(["ensemble", "born", "--ntraj", "200", "--workers", "1",
                  "--out-dir", str(tmp_path / "b")] + extra)
    out = capsys.readouterr().out
    assert rc == 0
    assert "status=FAIL" not in out and "check=born-chi2 status=PASS" in out


def test_born_count_in_a_zero_weight_outcome_fails(tmp_path, capsys, monkeypatch):
    run = ensemble.EnsembleRun(n_traj=100, dt=1e-3, groups=((0,), (1,)),
                               outcomes=np.array([0] * 99 + [1]),
                               outcome_labels=["E=0", "E=1"], expected=np.array([1.0, 0.0]))
    monkeypatch.setattr(reduction, "born_statistics", lambda *a, **k: run)
    assert run_cli(["ensemble", "born", "--weights", "1,0", "--workers", "1",
                    "--out-dir", str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "check=born-chi2 status=FAIL p_value=0" in out
    assert "check=born[E=1] status=FAIL" in out


@pytest.mark.parametrize("command, csv", [
    (["ensemble", "born"], "born-frequencies.csv"),
    (["ensemble", "statdist", "--dim", "3"], "statdist-series.csv"),
    (["ensemble", "luders"], "luders-frequencies.csv"),
    (["hartree", "compare", "--horizon", "0.01"], "hartree-discrepancy.csv")],
    ids=["born", "statdist", "luders", "hartree"])
def test_ensemble_records_the_dt_its_run_took(command, csv, tmp_path, capsys):
    # without --dt the run derives the step; the config records it, and a
    # rerun from that config takes the same step and writes the same bytes
    argv = command + ["--ntraj", "50", "--workers", "1"]
    assert run_cli(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    config = tmp_path / "a" / "config-resolved.json"
    resolved = json.loads(config.read_text())
    assert resolved["dt"] is not None and resolved["dt"] > 0
    assert capsys.readouterr().out.count(f'"dt": {resolved["dt"]!r}') == 1
    assert run_cli(command[:2] + ["--config", str(config),
                                  "--out-dir", str(tmp_path / "b")]) == 0
    again = json.loads((tmp_path / "b" / "config-resolved.json").read_text())
    assert again == {**resolved, "out_dir": str(tmp_path / "b")}
    assert (tmp_path / "b" / csv).read_bytes() == (tmp_path / "a" / csv).read_bytes()


def test_ensemble_run_that_fails_still_writes_its_config(tmp_path, capsys):
    # the command stops before its run takes a dt: the config keeps dt null, as given
    assert run_cli(["ensemble", "luders", "--energies", "1.0,1.0", "--ntraj", "10",
                    "--out-dir", str(tmp_path / "x")]) == 2
    resolved = json.loads((tmp_path / "x" / "config-resolved.json").read_text())
    assert resolved["dt"] is None and resolved["energies"] == "1.0,1.0"
    assert capsys.readouterr().out.startswith("config: {")


@pytest.mark.parametrize("config", [{"dt": "0.001"}, {"ntraj": "64"}], ids=["dt", "ntraj"])
def test_config_values_parsed_as_their_flags(config, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ntraj": 64, "dt": 0.001, **config}))
    assert run_cli(["ensemble", "born", "--config", str(cfg), "--workers", "1",
                    "--out-dir", str(tmp_path / "c")]) == 0
    resolved = json.loads((tmp_path / "c" / "config-resolved.json").read_text())
    assert resolved["ntraj"] == 64 and resolved["dt"] == 0.001


@pytest.mark.parametrize("config, message", [({"dt": "fast"}, "invalid float value: 'fast'"),
                                             ({"ntraj": 64.5}, "invalid int value: '64.5'")])
def test_config_value_that_does_not_parse_exits_2(config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli(["ensemble", "born", "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_phenom_t_reduce_quantity_parsing(tmp_path, capsys):
    rc = run_cli(["phenom", "t-reduce", "--delta-e", "2.8MeV",
                  "--out-dir", str(tmp_path / "p")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_r_s=1" in out


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REDUCTIONLAB_SEED", "421")
    run_cli(["simulate", "--steps", "50", "--out-dir", str(tmp_path / "e")])
    resolved = json.loads((tmp_path / "e" / "config-resolved.json").read_text())
    assert resolved["seed"] == 421


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "reproduce-paper" in proc.stdout


@pytest.mark.parametrize("module", ["reductionlab", "reductionlab.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _p_value(out: str, check: str) -> float:
    line = next(ln for ln in out.splitlines() if f"check={check} " in ln)
    return float(line.split("p_value=")[1].split()[0])


def test_born_p_value_matches_scipy_chisquare(tmp_path, capsys):
    assert run_cli(["ensemble", "born", "--weights", "0.3,0.7", "--ntraj", "300",
                    "--dt", "0.001", "--seed", "5", "--out-dir", str(tmp_path / "b")]) == 0
    pval = _p_value(capsys.readouterr().out, "born-chi2")
    st = reduction.born_statistics(np.diag([0.0, 1.0]).astype(complex),
                                   np.sqrt([0.3, 0.7]).astype(complex), 1.0, 300, 5, dt=0.001)
    counts = np.round(st.frequencies * (st.n_traj - st.n_unreduced))
    ref = sstats.chisquare(counts, st.expected * counts.sum()).pvalue
    assert abs(pval - ref) <= 1e-12 * ref


@pytest.mark.parametrize("horizon", ["20"])
def test_occupancy_with_fewer_than_two_bins_exits_2(horizon, tmp_path, capsys):
    # 20 time units give 3 samples: no bin expects 5 counts
    with pytest.warns(RuntimeWarning, match="horizon may be too short"):
        rc = run_cli(["accretion", "occupancy", "--horizon", horizon,
                      "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "occupancy-binomial" not in out
    assert "ERROR module=accretion-occupancy detail=the chi-squared test needs two bins" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "inf", "horizon must be finite and positive, got inf"),
    ("--horizon", "0", "horizon must be finite and positive, got 0.0"),
    ("--horizon", "-5", "horizon must be finite and positive, got -5.0"),
    ("--horizon", "1e7", "horizon 10000000.0 takes 2e+06 samples, one every 5/(s + e), "
                         "above the budget of 1000000"),
    ("--stick", "inf", "rates must be finite and nonnegative, got sticking rate inf"),
    ("--stick", "nan", "rates must be finite and nonnegative, got sticking rate nan"),
    ("--evap", "inf", "rates must be finite and nonnegative, got sticking rate 0.005 and "
                      "evaporation rate inf")],
    ids=["horizon-inf", "horizon-0", "horizon--5", "horizon-over-the-sample-budget", "stick-inf",
         "stick-nan", "evap-inf"])
def test_occupancy_bad_input_exits_2(flag, value, message, tmp_path):
    # in a child process, so that input which would hang the chain fails the test instead
    proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", "accretion", "occupancy",
                           flag, value, "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=5.0)
    assert proc.returncode == 2
    assert f"ERROR module=accretion-occupancy detail={message}" in proc.stderr


def _child_cli(argv, tmp_path, timeout):
    """Run the CLI in a child process, so that a run that would hang fails the test."""
    return subprocess.run([sys.executable, "-m", "reductionlab.cli", *argv,
                           "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=timeout)


def test_occupancy_of_1e8_sites_without_samples_exits_2_fast(tmp_path):
    # the burn-in of ten relaxation times outlasts the horizon: no sample, and
    # no histogram or pmf over the 10⁸ + 1 occupancies
    proc = _child_cli(["accretion", "occupancy", "--sites", "100000000", "--horizon", "1"],
                      tmp_path, timeout=5.0)
    assert proc.returncode == 2
    assert ("ERROR module=accretion-occupancy detail=the chi-squared test needs two bins of 5 "
            "expected counts; 0 samples fill 0; raise --horizon") in proc.stderr


def test_occupancy_of_1e8_sites_writes_only_the_occupied_range(tmp_path):
    proc = _child_cli(["accretion", "occupancy", "--sites", "100000000", "--horizon", "2000"],
                      tmp_path, timeout=10.0)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT check=occupancy-binomial status=PASS" in proc.stdout
    mean = float(proc.stdout.split(" mean=")[1].split()[0])
    assert abs(mean - 5e5) < 300   # 399 samples of standard deviation 705
    rows = (tmp_path / "o" / "occupancy-histogram.csv").read_text().splitlines()
    assert rows[0] == "count,samples" and len(rows) < 20_000


def test_hartree_over_the_work_budget_exits_2_fast(tmp_path):
    # 400 trajectories × 6.5·10⁶ steps × 4 couplings: each trajectory's steps pass MAX_STEPS
    proc = _child_cli(["hartree", "compare", "--ntraj", "400", "--horizon", "1e3"],
                      tmp_path, timeout=5.0)
    assert proc.returncode == 2
    assert "ERROR module=hartree-compare detail=n_traj = 400 trajectories" in proc.stderr
    assert "(horizon 1000.0," in proc.stderr and "above the budget of 1e+08" in proc.stderr


def test_coherent_wide_kmax_exits_0_fast(tmp_path):
    # in a child process: one matrix exponential per k took minutes here
    proc = subprocess.run([sys.executable, "-m", "reductionlab.cli", "accretion", "coherent",
                           "--kmax", "200", "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=10.0)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "o" / "coherent-spectrum.csv").read_text().splitlines()
    assert rows[1].startswith("-200,") and rows[-1].startswith("200,")


@pytest.mark.parametrize("kmax", ["20", "200"])
def test_coherent_builds_at_most_three_matrices(kmax, tmp_path, monkeypatch):
    calls = []
    build = accretion.displacement_matrix
    monkeypatch.setattr(accretion, "displacement_matrix",
                        lambda z, n_max: calls.append(n_max) or build(z, n_max))
    assert run_cli(["accretion", "coherent", "--kmax", kmax,
                    "--out-dir", str(tmp_path / "o")]) == 0
    assert len(calls) <= 3, calls


@pytest.mark.parametrize("n", ["2", "0"])
def test_coherent_below_the_crosscheck_range_passes(n, tmp_path, capsys):
    # the crosscheck's k reaches 5, past n: it runs over k ≤ n only
    assert run_cli(["accretion", "coherent", "--n", n, "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "RESULT check=coherent-sum status=PASS" in out
    assert "RESULT check=coherent-crosscheck status=PASS" in out


def test_occupancy_default_run_passes(tmp_path, capsys):
    assert run_cli(["accretion", "occupancy", "--out-dir", str(tmp_path / "o")]) == 0
    assert "RESULT check=occupancy-binomial status=PASS" in capsys.readouterr().out


def test_occupancy_takes_no_mass_but_loads_a_config_that_has_one(tmp_path, capsys):
    # the occupancy law has no mass in it; a config written while --mass was a flag still loads
    with pytest.raises(SystemExit) as exc:
        run_cli(["accretion", "occupancy", "--mass", "2", "--out-dir", str(tmp_path / "m")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mass 2" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass": 1.0, "horizon": 4000.0, "seed": 3}))
    assert run_cli(["accretion", "occupancy", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "o")]) == 0
    resolved = json.loads((tmp_path / "o" / "config-resolved.json").read_text())
    assert resolved["horizon"] == 4000.0 and "mass" not in resolved


def test_occupancy_p_value_matches_scipy_chi2(tmp_path, capsys):
    sites, stick, evap = 1000, 0.005, 0.995   # the command's defaults
    assert run_cli(["accretion", "occupancy", "--horizon", "4000", "--seed", "3",
                    "--out-dir", str(tmp_path / "o")]) == 0
    pval = _p_value(capsys.readouterr().out, "occupancy-binomial")
    n, hist = np.loadtxt(tmp_path / "o" / "occupancy-histogram.csv", delimiter=",",
                         skiprows=1).T
    law = sstats.binom(sites, stick / (stick + evap))
    expected = law.pmf(n)
    expected[0] += law.cdf(n[0] - 1)   # the mass outside the rows goes to the end bins
    expected[-1] += law.sf(n[-1])
    obs, exp = _merge_bins(hist, expected * hist.sum())
    ref = sstats.chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1)
    assert abs(pval - ref) <= 1e-12 * ref
