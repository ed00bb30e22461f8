import contextlib
import dataclasses
import math
import os
import signal
import tracemalloc

import numpy as np
import pytest

from reductionlab import ensemble, noise


def _complex_step(c, e, sigma, dt, dw):
    """Reference: one Euler step of the eigenbasis amplitudes c, shape (b, d),
    then renormalization; the population kernel must reproduce |c|²."""
    pop = c.real**2 + c.imag**2
    eh = pop @ e
    k = e[None, :] - eh[:, None]
    drift = 1.0 + dt * (-1j * e[None, :] - 0.125 * sigma * sigma * k * k)
    c *= drift + (0.5 * sigma) * k * dw[:, None]
    c /= np.sqrt((c.real**2 + c.imag**2).sum(1))[:, None]


def test_population_kernel_matches_complex_step():
    e = np.array([0.0, 1.0, 1.0, 2.5])
    c0 = np.array([0.4, 0.5 * np.exp(0.3j), 0.5 * np.exp(1.1j), 0.3 * np.exp(-2.0j)])
    c0 /= np.linalg.norm(c0)
    sigma, dt, b, n_steps = 1.0, 1e-3, 64, 2000
    dws = np.random.default_rng(3).standard_normal((n_steps, b)) * math.sqrt(dt)
    kern = ensemble._StateKernel(e, c0, sigma, dt)
    p = kern.start(b)
    c = np.tile(c0, (b, 1))
    worst = 0.0
    for dw in dws:
        _complex_step(c, e, sigma, dt, dw)
        kern.advance(p, kern.half_sigma * dw)
        worst = max(worst, float(np.abs(p.T - (c.real**2 + c.imag**2)).max()))
    assert worst <= 1e-12
    final = kern.final(p, n_steps * dt)
    assert np.abs(np.abs(final) - np.abs(c)).max() <= 1e-12
    # the degenerate pair keeps its initial relative phase
    rel0 = np.angle(c0[2] / c0[1])
    assert np.abs(np.angle(final[:, 2] / final[:, 1]) - rel0).max() <= 1e-12
    assert np.abs(np.angle(c[:, 2] / c[:, 1]) - rel0).max() <= 1e-9


@pytest.mark.parametrize("b", [1, 2, 24])
@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stacked"])
def test_colsum_adds_strided_rows_in_index_order(stack, d, b):
    # the populations of a complex kernel are the strided view x[:d].real
    rng = np.random.default_rng(d * b)
    shape = (d,) + stack + (b,)
    z = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
         + 1j * rng.standard_normal(shape))
    pop = z.real
    assert not pop.flags.c_contiguous
    ref = pop[0].copy()
    for row in pop[1:]:
        ref = ref + row
    got = ensemble._colsum(pop)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _dense_density_step(r, e, sigma, dt, dw):
    """Reference: the elementwise eigenbasis update of full density matrices,
    shape (b, d, d); the support kernel must reproduce every entry."""
    ei, ej = e[:, None], e[None, :]
    drift = 1.0 + dt * (-1j * (ei - ej) - 0.125 * sigma * sigma * (ei - ej) ** 2)
    tr_h = np.einsum("bii,i->b", r.real, e)
    r *= drift[None] + 0.5 * sigma * dw[:, None, None] * ((ei + ej)[None] - 2.0 * tr_h[:, None, None])


def _hermitize_renorm(r):
    herm = 0.5 * (r + np.conj(np.transpose(r, (0, 2, 1))))
    r[:] = herm / np.einsum("bii->b", herm).real[:, None, None]


def _coherent_rho0():
    rho0 = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
    rho0[1, 2] = 0.1 * np.exp(0.4j)   # inside the degenerate pair
    rho0[0, 3] = 0.05                 # across levels
    return rho0 + np.triu(rho0, 1).conj().T


@pytest.mark.parametrize("rho0, dtype", [(_coherent_rho0(), np.complex128),
                                         (np.diag([0.3, 0.25, 0.25, 0.2]), np.float64)])
def test_support_kernel_matches_dense_density_step(rho0, dtype):
    rho0 = np.asarray(rho0, complex)
    e = np.array([0.0, 1.0, 1.0, 2.5])
    sigma, dt, b, n_steps = 1.0, 1e-3, 64, 2000
    dws = np.random.default_rng(4).standard_normal((n_steps, b)) * math.sqrt(dt)
    kern = ensemble._DensityKernel(e, rho0, sigma, dt)
    x = kern.start(b)
    assert x.dtype == dtype
    r = np.tile(rho0, (b, 1, 1))
    worst = 0.0
    for step, dw in enumerate(dws, 1):
        _dense_density_step(r, e, sigma, dt, dw)
        kern.advance(x, kern.half_sigma * dw)
        if step % ensemble.CHECK_STRIDE == 0:
            _hermitize_renorm(r)
            kern.renorm(x)
        worst = max(worst, float(np.abs(kern.dense(x.T) - r).max()))
    assert worst <= 1e-12
    final = kern.final(x, n_steps * dt)
    off = rho0 == 0
    assert np.all(final[:, off] == 0) and np.all(r[:, off] == 0)
    assert np.abs(final - r).max() <= 1e-12


@pytest.mark.parametrize("e, rho0, dtype", [
    (np.array([0.0, 1.0, 1.0, 2.5]), _coherent_rho0(), np.complex128),
    (np.array([0.0, 1.0, 1.0, 2.5]), np.diag([0.3, 0.25, 0.25, 0.2]), np.float64),
    # a stack whose first matrix is diagonal: its coherences stay exact zeros
    (np.array([[0.0, 0.7, 1.2, 2.0], [0.0, 1.0, 1.0, 2.5]]),
     np.stack([np.diag([0.3, 0.25, 0.25, 0.2]), _coherent_rho0()]), np.complex128),
], ids=["complex", "float64", "stacked"])
def test_renorm_is_division_by_the_population_sum(e, rho0, dtype):
    kern = ensemble._DensityKernel(e, np.asarray(rho0, complex), 1.0, 1e-3)
    x = kern.start(24)
    assert x.dtype == dtype
    dws = np.random.default_rng(5).standard_normal((300, 24)) * math.sqrt(1e-3)
    for dw in dws:
        kern.advance(x, kern.half_sigma * dw)
        ref = x / ensemble._colsum(kern.populations(x))
        kern.renorm(x)
        assert x.tobytes() == ref.tobytes()


def _state_run(workers):
    e = np.array([0.0, 1.0, 1.0, 2.0])
    c0 = np.sqrt(np.array([0.3, 0.2, 0.2, 0.3], complex))
    return ensemble.run_state_ensemble(
        e, c0, sigma=2.0, dt=2e-3, base_seed=31, n_traj=1100,
        groups=((0,), (1, 2), (3,)), horizon_steps=120, record_stride=40,
        max_steps=20_000, workers=workers)


def _density_run(workers):
    e = np.array([0.0, 1.0, 2.0])
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 0.1
    return ensemble.run_density_ensemble(
        e, rho0, sigma=2.0, dt=2e-3, base_seed=32, n_traj=1100,
        horizon_steps=120, record_stride=40, max_steps=20_000, workers=workers)


def _gibbs_run(workers):
    # diagonal ρ0 with a degenerate pair: the float64 support kernel
    e = np.array([0.0, 1.0, 1.0, 2.0])
    rho0 = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
    return ensemble.run_density_ensemble(
        e, rho0, sigma=2.0, dt=2e-3, base_seed=33, n_traj=1100,
        groups=((0,), (1, 2), (3,)), horizon_steps=120, record_stride=40,
        max_steps=20_000, workers=workers)


@pytest.mark.parametrize("run", [_state_run, _density_run, _gibbs_run])
def test_results_identical_for_any_worker_count(run, monkeypatch):
    # 1100 trajectories: one full block and one partial block
    runs = [run(w) for w in (1, 2, 3)]
    monkeypatch.setattr(ensemble, "_fork_context", lambda: None)
    runs.append(run(2))  # serial fallback without fork
    assert runs[0].times is not None and runs[0].n_unreduced < 1100
    for other in runs[1:]:
        for field in dataclasses.fields(ensemble.EnsembleRun):
            a, b = getattr(runs[0], field.name), getattr(other, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


BAD_STATES = [
    ([0.0, 1.0], [math.nan, 1.0], 1e-3),          # non-finite
    ([0.0, 1.0], [1.0, 0.0, 0.0], 1e-3),          # wrong dimension
    ([0.0, 1.0], [1.0, 1.0], 1e-3),               # not normalized
    ([0.0, math.inf], [1.0, 0.0], 1e-3),          # non-finite energy
    ([0.0, 1.0], [1.0, 0.0], 0.0),                # dt ≤ 0
]


@pytest.mark.parametrize("energies, amps, dt", BAD_STATES)
def test_bad_input_rejected_up_front(energies, amps, dt):
    c0 = np.asarray(amps, complex)
    with pytest.raises(ValueError):
        ensemble.run_state_ensemble(energies, c0, 1.0, dt, 0, 8)
    with pytest.raises(ValueError):
        ensemble.run_density_ensemble(energies, np.diag(c0), 1.0, dt, 0, 8)


@pytest.mark.parametrize("option, value", [("horizon_steps", -5), ("record_stride", -10),
                                           ("max_steps", 0), ("max_steps", -1)])
def test_bad_step_counts_rejected_up_front(option, value):
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError, match=option):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, 1e-3, 0, 8, **{option: value})
    with pytest.raises(ValueError, match=option):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]), 1.0, 1e-3, 0, 8,
                                      **{option: value})


def test_max_steps_below_horizon_rejected_up_front():
    # with stop_on_reduction the first-passage phase would get no step
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    rho0 = np.diag([0.5, 0.5])
    steps = {"horizon_steps": 100, "max_steps": 50}
    with pytest.raises(ValueError, match="max_steps = 50 < horizon_steps = 100"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, 1e-3, 0, 8, **steps)
    with pytest.raises(ValueError, match="max_steps = 50 < horizon_steps = 100"):
        ensemble.run_density_ensemble([0.0, 1.0], rho0, 1.0, 1e-3, 0, 8, **steps)
    # without it the run ends at the horizon and max_steps bounds nothing
    run = ensemble.run_density_ensemble([0.0, 1.0], rho0, 1.0, 1e-3, 0, 8,
                                        stop_on_reduction=False, **steps)
    assert run.n_unreduced == 8


@pytest.mark.parametrize("density", [False, True], ids=["state", "density"])
def test_sigma_zero_rejected_when_nothing_can_reduce(density, monkeypatch):
    def run(p, **options):
        if density:
            return ensemble.run_density_ensemble([0.0, 1.0], np.diag(p), 0.0, 1e-3, 0, 8,
                                                 **options)
        return ensemble.run_state_ensemble([0.0, 1.0], np.sqrt(p), 0.0, 1e-3, 0, 8, **options)

    # accepted: V(0) = 0 is reduced at once, and a fixed horizon ends by itself
    assert list(run([0.0, 1.0]).outcomes) == [1] * 8
    fixed = run([0.5, 0.5], horizon_steps=100, stop_on_reduction=False)
    assert fixed.n_unreduced == 8 and np.isnan(fixed.reduction_times).all()

    def no_run(*args):
        raise AssertionError("a span started")

    monkeypatch.setattr(ensemble, "_run_spans", no_run)
    with pytest.raises(ValueError, match=r"sigma = 0 never reduces .* V\(0\) = 0.25 > 0"):
        run([0.5, 0.5], max_steps=200_000)


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_non_finite_dt_rejected_up_front(dt, monkeypatch):
    def no_run(*args):
        raise AssertionError("a span started")

    monkeypatch.setattr(ensemble, "_run_spans", no_run)
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, dt, 0, 8)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]), 1.0, dt, 0, 8)


def test_one_level_runs_reduce_at_once():
    # d = 1: V = 0 from the start, so every trajectory retires at step 0
    runs = [ensemble.run_state_ensemble([2.5], np.ones(1, complex), 1.0, 1e-3, 0, 5,
                                        workers=1),
            ensemble.run_density_ensemble([2.5], [[1.0]], 1.0, 1e-3, 0, 5, horizon_steps=16,
                                          record_stride=8, workers=1)]
    for run in runs:
        assert run.outcomes.tolist() == [0] * 5
    assert runs[0].reduction_times.tolist() == [0.0] * 5
    assert runs[1].mean_rho.tolist() == [[[1.0]]] * 3


def test_recording_phase_hits_keep_their_first_hit_step():
    args = ([0.0, 1.0], np.sqrt(np.array([0.5, 0.5], complex)), 2.0, 2e-3, 7, 64)
    horizon = 1000
    run = ensemble.run_state_ensemble(*args, horizon_steps=horizon, record_stride=100,
                                      workers=1)
    fixed = ensemble.run_state_ensemble(*args, horizon_steps=horizon, record_stride=100,
                                        stop_on_reduction=False, workers=1)
    assert run.mean_v.tobytes() == fixed.mean_v.tobytes()
    steps = np.round(run.reduction_times / run.dt)
    assert run.n_unreduced == 0 and fixed.n_unreduced == 64
    assert (run.reduction_times == steps * run.dt).all()
    assert (steps % ensemble.CHECK_STRIDE == 0).all()
    # a first hit while recording is the reduction time, with or without a first-passage phase
    early = steps <= horizon
    assert run.reduction_times[early].tobytes() == fixed.reduction_times[early].tobytes()
    assert np.isnan(fixed.reduction_times[~early]).all()
    # one that meets the rule at the horizon retires there, with the outcome of its state
    # there; one that has left it since retires at a later check
    pop = np.abs(fixed.final_states) ** 2
    v, v0 = pop[:, 0] * pop[:, 1], 0.25   # V of two levels at energies 0 and 1
    there = early & (v <= ensemble.REDUCTION_EPS * v0) & (pop.max(1) >= ensemble.POPULATION_MIN)
    assert 0 < there.sum() < early.sum()
    assert run.final_states[there].tobytes() == fixed.final_states[there].tobytes()
    assert (run.outcomes[there] == pop[there].argmax(1)).all()
    later = np.abs(run.final_states[early & ~there]) ** 2
    assert (later.max(1) >= ensemble.POPULATION_MIN).all()
    assert not np.allclose(later, pop[early & ~there])


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_bad_sigma_rejected_up_front(sigma):
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError, match="sigma"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, sigma, 1e-3, 0, 8)
    with pytest.raises(ValueError, match="sigma"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]), sigma, 1e-3, 0, 8)


@pytest.mark.parametrize("rho0", [[[0.5, 0.3], [0.1, 0.5]],    # not Hermitian
                                  [[0.5, 0.9], [0.9, 0.5]]])   # eigenvalue −0.4
def test_bad_density_rejected_up_front(rho0):
    with pytest.raises(ValueError, match="Hermitian and positive"):
        ensemble.run_density_ensemble([0.0, 1.0], rho0, 1.0, 1e-3, 0, 8)


@pytest.mark.parametrize("workers", [0, -2, 2.5, True, "2"])
def test_bad_worker_count_rejected_up_front(workers, monkeypatch):
    def no_run(*args):
        raise AssertionError("a span started")

    monkeypatch.setattr(ensemble, "_run_spans", no_run)
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, 1e-3, 0, 8, workers=workers)
    with pytest.raises(ValueError, match="workers must be None or an integer >= 1"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]), 1.0, 1e-3, 0, 8,
                                      workers=workers)


def test_runners_default_to_every_cpu(monkeypatch):
    # two blocks of trajectories: workers=None runs them as two spans on two CPUs
    n, widths, run_spans = ensemble.BATCH_SIZE + 8, [], ensemble._run_spans

    def spy(work, spans):
        widths.append(len(spans))
        return run_spans(work, spans)

    monkeypatch.setattr(ensemble, "_run_spans", spy)
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    runs = [ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, 1e-3, 0, n, horizon_steps=40,
                                        record_stride=20, stop_on_reduction=False, workers=w)
            for w in (None, 1)]
    assert widths == [min(2, os.cpu_count() or 1), 1]
    assert runs[0].mean_v.tobytes() == runs[1].mean_v.tobytes()
    assert runs[0].final_states.tobytes() == runs[1].final_states.tobytes()


def test_numpy_integer_worker_count_accepted():
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    run = ensemble.run_state_ensemble([0.0, 1.0], c0, 1.0, 1e-3, 0, 8, workers=np.int64(2))
    assert run.n_unreduced == 0


def _needs_fork():
    if ensemble._fork_context() is None:
        pytest.skip("no fork start method")


@contextlib.contextmanager
def _deadline(seconds):
    """Raise in the test, rather than hang it, if the pool blocks for seconds."""
    def fail(*_):
        raise AssertionError(f"the pool still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_exit_raises_instead_of_hanging():
    _needs_fork()

    def dies(lo, hi):
        os._exit(3)

    with _deadline(60), pytest.raises(RuntimeError,
                                      match="worker exited with code 3 before sending"):
        ensemble._run_spans(dies, [(0, 1), (1, 2)])


def test_forked_workers_run_blas_after_a_threaded_matmul():
    _needs_fork()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((800, 800))
    expected = a @ a   # large enough for a threaded BLAS to start its threads
    with _deadline(120):
        rows = ensemble._run_spans(lambda lo, hi: (a[lo:hi] @ a).tobytes(),
                                   [(0, 400), (400, 800)])
    got = np.frombuffer(b"".join(rows)).reshape(800, 800)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-9)


def test_spans_results_in_span_order():
    spans = ensemble._split(10, 3)
    assert spans == [(0, 4), (4, 7), (7, 10)]
    assert ensemble._run_spans(lambda lo, hi: (lo, hi), spans) == spans


@pytest.mark.parametrize("workers", [1, 2])
def test_negative_populations_raise(workers):
    # σ²ΔE²dt = 0.45: the Euler factor turns negative within the first checks
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative population"):
        ensemble.run_density_ensemble([0.0, 3.0], rho0, 1.0, 0.05, 0, 2048, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_populations_raise(workers):
    c0 = np.sqrt(np.array([0.5, 0.5], complex))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        ensemble.run_state_ensemble([0.0, 1.0], c0, 1e200, 1e-3, 0, 2048, workers=workers)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        ensemble.run_density_ensemble([0.0, 1.0], np.diag([0.5, 0.5]).astype(complex),
                                      1e200, 1e-3, 0, 16)


KERNELS = {
    "state": lambda: ensemble._StateKernel(
        np.array([0.0, 1.0, 1.0, 2.5]),
        np.sqrt(np.array([0.3, 0.25, 0.25, 0.2])) * np.exp(1j * np.arange(4)), 1.0, 1e-3),
    "float64": lambda: ensemble._DensityKernel(
        np.array([0.0, 1.0, 1.0, 2.5]), np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex),
        1.0, 1e-3),
    "complex": lambda: ensemble._DensityKernel(
        np.array([0.0, 1.0, 1.0, 2.5]), _coherent_rho0(), 1.0, 1e-3),
    "stacked": lambda: ensemble._DensityKernel(
        np.array([[0.0, 0.7, 1.2, 2.0], [0.0, 1.0, 1.0, 2.5]]),
        np.stack([np.diag([0.3, 0.25, 0.25, 0.2]), _coherent_rho0()]).astype(complex),
        1.0, 1e-3),
}


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("name", KERNELS)
def test_compacted_kernel_matches_a_fresh_one(name, width):
    # after a compaction every step and check equals, byte for byte, that of a
    # fresh kernel of the compacted width and the kept columns of an
    # uncompacted run
    b = 12
    rng = np.random.default_rng(7)
    us = 0.5 * rng.standard_normal((60, b)) * math.sqrt(1e-3)
    keep = np.zeros(b, bool)
    keep[rng.choice(b, width, replace=False)] = True
    kern, full = KERNELS[name](), KERNELS[name]()
    x, z = kern.start(b), full.start(b)
    for u in us[:20]:
        kern.advance(x, u)
        full.advance(z, u)
        kern.renorm(x)
        full.renorm(z)
    x = kern.compact(x, keep)
    fresh = KERNELS[name]()
    y = fresh.start(width)
    y[...] = x
    for u in us[20:]:
        kern.advance(x, u[keep])
        fresh.advance(y, u[keep])
        full.advance(z, u)
        assert x.tobytes() == y.tobytes() == np.compress(keep, z, axis=-1).tobytes()
        kern.renorm(x)
        fresh.renorm(y)
        full.renorm(z)
        assert x.tobytes() == y.tobytes() == np.compress(keep, z, axis=-1).tobytes()
        for a, c, f in zip(kern.moments(x), fresh.moments(y), full.moments(z)):
            assert a.tobytes() == c.tobytes() == np.compress(keep, f, axis=-1).tobytes()


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("groups", [((0,), (1, 2), (3,)), ((0, 1, 2), (3,)),
                                    ((0, 2), (1,), (3,)), ((3, 1, 0), (2,))])
@pytest.mark.parametrize("strided", [False, True], ids=["float64", "complex"])
def test_group_sums_add_levels_in_row_order(strided, groups, b):
    rng = np.random.default_rng(b * len(groups))
    z = (rng.standard_normal((4, b)) * 10.0 ** rng.integers(-8, 8, (4, b))
         + 1j * rng.standard_normal((4, b)))
    pop = z.real if strided else z.real.copy()
    index = ensemble._group_index(groups, 4)
    got = ensemble._group_sums(pop, index, np.empty((len(groups) + 1, b))[:len(groups)])
    for g, row in zip(groups, got):
        ref = pop[g[0]].copy()
        for i in g[1:]:
            ref = ref + pop[i]
        assert row.tobytes() == ref.tobytes(), g


def test_group_index_of_levels_in_order_is_none():
    assert ensemble._group_index(((0,), (1,), (2,)), 3) is None
    assert ensemble._group_index(((0,), (1,)), 3) == [slice(0, 1), slice(1, 2)]


def _capture_plan(run, monkeypatch):
    plans, run_spans = [], ensemble._run_spans

    def spy(work, spans):
        assert work.func is ensemble._run_span and not work.keywords
        (plan,) = work.args
        plans.append(plan)
        return run_spans(work, spans)

    monkeypatch.setattr(ensemble, "_run_spans", spy)
    out = run()
    return out, plans[0]


MEMBER_RUNS = {
    "state": lambda: ensemble.run_state_ensemble(
        [0.0, 1.0, 1.0, 2.0], np.sqrt(np.array([0.3, 0.2, 0.2, 0.3], complex)), 2.0, 2e-3, 41,
        150, groups=((0,), (1, 2), (3,)), workers=1),
    "float64": lambda: ensemble.run_density_ensemble(
        [0.0, 1.0, 2.0], np.diag([0.5, 0.3, 0.2]), 2.0, 2e-3, 42, 150, workers=1),
    "complex": lambda: ensemble.run_density_ensemble(
        [0.0, 1.0, 2.0], _coherent_rho0()[1:, 1:] / 0.7, 2.0, 2e-3, 43, 150,
        groups=((0, 2), (1,)), workers=1),
}


@pytest.mark.parametrize("name", MEMBER_RUNS)
def test_member_equals_its_one_member_span(name, monkeypatch):
    # 150 trajectories: two full noise groups of 64 and a partial one.  A
    # member that retires after others retired earlier in the same noise
    # chunk reads its increments through the compacted column index, so its
    # solo run only matches when that index is right.
    run, plan = _capture_plan(MEMBER_RUNS[name], monkeypatch)
    assert run.n_unreduced == 0
    steps = np.round(run.reduction_times / plan.dt).astype(int)
    chunk = (steps - 1) // ensemble.CHUNK
    later = [i for i in range(run.n_traj) if np.any((chunk == chunk[i]) & (steps < steps[i]))]
    picked = {}
    for i in later:  # the last member to retire in each chunk, after others
        picked[chunk[i]] = max(picked.get(chunk[i], i), i, key=lambda k: (steps[k], k))
    assert len(picked) >= 2
    for i in picked.values():
        _, outcomes, tred, finals = ensemble._run_span(plan, i, i + 1)
        assert outcomes[0] == run.outcomes[i]
        assert tred.tobytes() == run.reduction_times[i:i + 1].tobytes()
        assert finals.tobytes() == run.final_states[i:i + 1].tobytes()


def test_serial_span_holds_one_noise_chunk(monkeypatch):
    # every chunk of a span is drawn into one reused buffer, so a serial span
    # at b = 1024 holds one 2 MB (CHUNK, b) chunk, never the next beside it
    b = 1024
    chunk_bytes = ensemble.CHUNK * b * 8
    _, plan = _capture_plan(lambda: ensemble.run_state_ensemble(
        [0.0, 1.0], np.sqrt(np.array([0.5, 0.5], complex)), 1.0, 1e-3, 5, 2,
        horizon_steps=3 * ensemble.CHUNK, stop_on_reduction=False, workers=1), monkeypatch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gens = [noise.trajectory_generator(plan.base_seed, i) for i in range(b)]
        generators = tracemalloc.get_traced_memory()[0] - before
        del gens
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, _, tred, _ = ensemble._run_span(plan, 0, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert tred.size == b and generators > 0
    assert peak - generators < 1.5 * chunk_bytes, (peak, generators)


def _coherent_run(n_traj):
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 0.1
    return ensemble.run_density_ensemble([0.0, 1.0, 2.0], rho0, 1.0, 1e-3, 3, n_traj, workers=1)


BAD_RUNS = [
    (ensemble._StateKernel, lambda n: ensemble.run_state_ensemble(
        [0.0, 1.0, 2.0], np.sqrt(np.array([0.5, 0.3, 0.2], complex)), 1.0, 1e-3, 1, n,
        workers=1)),
    (ensemble._DensityKernel, lambda n: ensemble.run_density_ensemble(
        [0.0, 1.0, 2.0], np.diag([0.5, 0.3, 0.2]), 1.0, 1e-3, 2, n, workers=1)),
    (ensemble._DensityKernel, _coherent_run),
]


@pytest.mark.parametrize("value, message", [
    (math.nan, "non-finite populations"), (math.inf, "non-finite populations"),
    (-math.inf, "non-finite populations"), (-0.25, "negative population")])
@pytest.mark.parametrize("n_traj", [1, 64])
@pytest.mark.parametrize("cls, run", BAD_RUNS, ids=["state", "float64", "complex"])
def test_bad_population_stops_the_run(cls, run, n_traj, value, message, monkeypatch):
    # one population of one column turns bad just before the first check,
    # which must raise
    advance, calls = cls.advance, []

    def spoiled(self, x, u):
        advance(self, x, u)
        calls.append(None)
        if len(calls) == ensemble.CHECK_STRIDE:
            x[0, x.shape[-1] // 2] = value

    monkeypatch.setattr(cls, "advance", spoiled)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        run(n_traj)
    assert len(calls) == ensemble.CHECK_STRIDE
