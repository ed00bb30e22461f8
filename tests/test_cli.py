import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sstats

from reductionlab import composite, phenomenology as ph, reduction
from reductionlab.cli import _merge_bins, main


def run_cli(args):
    return main(args)


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


@pytest.mark.parametrize("extra", [["--dt", "nan"], ["--dt", "inf", "--sigma", "0"]])
def test_simulate_non_finite_dt_exits_2_fast(tmp_path, capsys, extra):
    t0 = time.monotonic()
    rc = run_cli(["simulate", "--steps", "5", "--out-dir", str(tmp_path / "x")] + extra)
    assert rc == 2
    assert time.monotonic() - t0 < 5.0
    assert "dt must be finite and positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:sigma²·ΔE²·dt:RuntimeWarning")
def test_hartree_compare_matches_direct_calls(tmp_path, capsys):
    # the command's set-up at seed 0 and its defaults: sigma 1, dt 2e-4, g 0.1,0.2,0.4
    assert run_cli(["hartree", "compare", "--ntraj", "2", "--horizon", "0.01", "--seed", "0",
                    "--out-dir", str(tmp_path / "h")]) == 0
    args = (*composite.hartree_instance(np.random.default_rng(101)), 1.0, 2e-4, 0.01)
    composite.hartree_vs_full(*args, [0.1, 0.2, 0.4], 2, 0).csv(tmp_path / "direct.csv")
    assert ((tmp_path / "h" / "hartree-discrepancy.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())
    floor = composite.hartree_vs_full(*args, [0.0], 2, 0).mean_discrepancy[0]
    assert f"check=hartree-g0 status=PASS discrepancy={floor:.17g}" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:sigma²·ΔE²·dt:RuntimeWarning")
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


def test_occupancy_p_value_matches_scipy_chi2(tmp_path, capsys):
    sites, stick, evap = 1000, 0.005, 0.995   # the command's defaults
    assert run_cli(["accretion", "occupancy", "--horizon", "4000", "--seed", "3",
                    "--out-dir", str(tmp_path / "o")]) == 0
    pval = _p_value(capsys.readouterr().out, "occupancy-binomial")
    hist = np.loadtxt(tmp_path / "o" / "occupancy-histogram.csv", delimiter=",",
                      skiprows=1)[:, 1]
    expected = sstats.binom.pmf(np.arange(hist.size), sites, stick / (stick + evap))
    obs, exp = _merge_bins(hist, expected * hist.sum())
    ref = sstats.chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1)
    assert abs(pval - ref) <= 1e-12 * ref
