"""Every CSV artifact is written by `linalg.write_csv` and reads back exactly.

The README promises one format for all artifacts: a header row, LF line
endings and 17 significant digits, which is enough to round-trip any
float64.  The round-trip test holds each record writer, and the CLI's noise
dump, to that promise; the AST test keeps file writing out of every module
but `linalg` and `cli`.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from reductionlab import phenomenology as ph
from reductionlab.cli import main
from reductionlab.composite import HartreeReport
from reductionlab.dynamics import Trajectory
from reductionlab.ensemble import EnsembleRun
from reductionlab.noise import wiener_path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reductionlab"
WRITERS = ("linalg.py", "cli.py")


def _floats(n, seed):
    """n float64 values over the whole exponent range, with awkward ones first."""
    rng = np.random.default_rng(seed)
    awkward = [0.1, 1 / 3, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               2.0 ** 53 + 2, -123456789.12345679]
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.concatenate([awkward, wide])[:n]


def _trajectory(n):
    cols = [_floats(n, s) for s in range(4)]
    rec = Trajectory(times=cols[0], states=[], energy_mean=cols[1], variance=cols[2],
                     purity_residual=cols[3])
    return rec.to_csv, "t,reH_exp,V,purity_residual", list(zip(*cols))


def _noise(n):
    # the table `simulate --dump-noise` writes, run in process: the increments
    # of wiener_path for the run's seed, dt and step count
    def write(path):
        out = path.parent / "simulate"
        assert main(["simulate", "--steps", str(n), "--dt", "1e-3", "--seed", "11",
                     "--dump-noise", "--out-dir", str(out)]) == 0
        (out / "noise.csv").replace(path)
    return write, "step,dW", list(enumerate(wiener_path(11, 1e-3, n)))


def _outcomes(n):
    # n outcome groups over 7n trajectories, a few unreduced: the frequencies
    # and their bands are derived from the outcomes
    outcomes = np.random.default_rng(5).integers(-1, n, 7 * n)
    run = EnsembleRun(n_traj=7 * n, dt=1e-3, groups=tuple((k,) for k in range(n)),
                      outcomes=outcomes,
                      outcome_labels=[f"E={k}" for k in range(n)])
    return run.outcome_csv, "outcome,frequency,ci_lo,ci_hi", list(
        zip(run.outcome_labels, run.frequencies, run.ci_lo, run.ci_hi))


def _series(n):
    cols = [_floats(n, s) for s in range(8, 12)]
    run = EnsembleRun(n_traj=n, dt=1e-3, groups=((0,),), times=cols[0], mean_v=cols[1],
                      sem_v=cols[2], mean_v2=cols[3])
    return run.series_csv, "t,EV,EV_sem,EV2", list(zip(*cols))


def _hartree(n):
    cols = [_floats(n, s) for s in range(12, 15)]
    rec = HartreeReport(g_values=cols[0], mean_discrepancy=cols[1], sem=cols[2], exponent=2.0,
                        dt=1e-3)
    return rec.csv, "g,mean_discrepancy,sem", list(zip(*cols))


def _scenario_table(n):
    rows = ph.scenario_table()
    expected = [(r.preset, r.area_fast.to("cm2"), r.molecules_fast, r.area_relaxed.to("cm2"),
                 r.molecules_relaxed, r.t_r_at_1cm2.to("s"), r.molecules_at_1cm2)
                for r in rows]
    header = ("preset,area_fast_cm2,molecules_fast,area_relaxed_cm2,molecules_relaxed,"
              "t_r_1cm2_s,molecules_1cm2")
    return (lambda path: ph.scenario_table_csv(path, rows)), header, expected


@pytest.mark.parametrize("record", [_trajectory, _noise, _outcomes, _series, _hartree,
                                    _scenario_table],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_artifact_round_trips_exactly(record, tmp_path):
    write, header, expected = record(40)
    path = tmp_path / "artifact.csv"
    write(path)
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().split("\n")[:-1]
    assert lines[0] == header
    assert len(lines) == len(expected) + 1
    for line, row in zip(lines[1:], expected):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, v in zip(cells, row):
            if isinstance(v, str):
                assert cell == v
            else:   # bit for bit: -0.0 must stay -0.0
                assert np.float64(float(cell)).tobytes() == np.float64(v).tobytes(), (cell, v)


def _file_calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("open", "write_text", "write_bytes"):
                yield f"{path.name}:{node.lineno} calls {name}"


def test_only_linalg_and_cli_write_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= set(WRITERS)
    found = [c for p in modules if p.name not in WRITERS for c in _file_calls(p)]
    assert not found, "write artifacts through linalg.write_csv: " + "; ".join(found)
    assert any(_file_calls(PACKAGE / "linalg.py"))    # the guard sees what it looks for
