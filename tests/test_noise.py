import math

import numpy as np
import pytest

from reductionlab.cli import main
from reductionlab.noise import (
    trajectory_generator,
    wiener_path,
)


def test_same_seed_identical():
    a = wiener_path(7, 1e-3, 1000)
    b = wiener_path(7, 1e-3, 1000)
    assert np.array_equal(a, b)


def test_variance_within_four_sigma():
    dt = 1e-3
    n = 1_000_000
    path = wiener_path(123, dt, n)
    s2 = path.var(ddof=1)
    # chi-square variance test: Var(s²) = 2·dt²/(n−1)
    band = 4.0 * dt * math.sqrt(2.0 / (n - 1))
    assert abs(s2 - dt) <= band


def test_mean_within_four_sigma():
    dt = 1e-3
    n = 200_000
    path = wiener_path(5, dt, n)
    sem = math.sqrt(dt / n)
    assert abs(path.mean()) <= 4.0 * sem


def test_distinct_seeds_uncorrelated():
    dt, n = 1e-3, 200_000
    a = wiener_path(1, dt, n)
    b = wiener_path(2, dt, n)
    r = float(np.dot(a, b) / n / dt)
    assert abs(r) <= 4.0 / math.sqrt(n)


def test_chunked_matches_oneshot_prefix():
    # a single path of seed s is ensemble member 0 of seed s, drawn as the
    # ensemble draws it: 256 normals per chunk, each chunk scaled by √dt.
    # 2**96 is the first seed whose entropy fills SeedSequence's 4-word pool,
    # so that s and (s, 0) no longer hash alike
    dt, n = 0.01, 700
    for seed in (3, 2**96):
        gen = trajectory_generator(seed, 0)
        member = np.concatenate([gen.standard_normal(min(256, n - k)) * np.sqrt(dt)
                                 for k in range(0, n, 256)])
        assert wiener_path(seed, dt, n).tobytes() == member.tobytes()


def test_trajectory_streams_independent_of_order():
    later = trajectory_generator(9, 57).standard_normal(8)
    # generating stream 3 first must not perturb stream 57
    trajectory_generator(9, 3).standard_normal(100)
    again = trajectory_generator(9, 57).standard_normal(8)
    assert np.array_equal(later, again)


def test_parameter_validation():
    with pytest.raises(ValueError):
        wiener_path(0, -1.0, 10)
    with pytest.raises(ValueError):
        wiener_path(0, 1.0, 0)


def test_csv_dump(tmp_path):
    # the noise dump is written by `simulate --dump-noise`
    assert main(["simulate", "--steps", "3", "--dt", "0.01", "--seed", "11",
                 "--dump-noise", "--out-dir", str(tmp_path)]) == 0
    p = wiener_path(11, 0.01, 3)
    lines = (tmp_path / "noise.csv").read_text().splitlines()
    assert lines[0] == "step,dW"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == p[0]


def test_wiener_path_is_read_only():
    p = wiener_path(0, 1.0, 4)
    assert p.shape == (4,) and p.dtype == float
    with pytest.raises(ValueError):
        p[0] = 5.0
