import re
import warnings

import numpy as np
import pytest

from reductionlab import ensemble, linalg
from reductionlab.composite import CompositeSystem, hartree_vs_full, partial_expectation
from reductionlab.dynamics import SdeConfig, evolve_trajectory
from reductionlab.linalg import (
    LinalgError,
    eig_hermitian,
    hermitize,
    load_array,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    save_array,
)

# The partial trace over a factor is composite.partial_expectation against
# that factor's identity: over=2 keeps the first factor, over=1 the second.


def test_partial_trace_product_state(rng):
    r1 = random_density_matrix(3, rng)
    r2 = random_density_matrix(2, rng)
    red = partial_expectation(np.kron(r1, r2), np.eye(2), (3, 2), over=2)
    assert np.allclose(red, r1, atol=1e-12)
    red2 = partial_expectation(np.kron(r1, r2), np.eye(3), (3, 2), over=1)
    assert np.allclose(red2, r2, atol=1e-12)


def test_partial_trace_maximally_entangled():
    bell = np.zeros(4, complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = partial_expectation(rho, np.eye(2), (2, 2), over=1)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_index_loop_oracle(rng):
    rho = random_density_matrix(4, rng)
    red = partial_expectation(rho, np.eye(2), (2, 2), over=2)
    oracle = np.zeros((2, 2), complex)
    r4 = rho.reshape(2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            oracle[i, j] = sum(r4[i, k, j, k] for k in range(2))
    assert np.allclose(red, oracle, atol=1e-14)


def test_partial_trace_linear_and_trace_preserving(rng):
    a = random_density_matrix(6, rng)
    b = random_density_matrix(6, rng)
    lam = 0.37

    def red(m):
        return partial_expectation(m, np.eye(3), (2, 3), over=2)

    mix = lam * a + (1 - lam) * b
    red_mix = red(mix)
    red_split = lam * red(a) + (1 - lam) * red(b)
    assert np.allclose(red_mix, red_split, atol=1e-13)
    assert abs(np.trace(red_mix) - 1.0) < 1e-12


def test_partial_trace_bad_factorization():
    with pytest.raises(ValueError):
        partial_expectation(np.eye(6) / 6, np.eye(2), (4, 2), over=2)


def test_eig_sorted_and_degenerate():
    spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    spec2 = eig_hermitian(np.diag([0.0, 1.0, 1.0, 2.0]))
    assert spec2.degeneracy_groups == ((0,), (1, 2), (3,))


def test_eig_reconstruction(rng):
    h = random_hermitian(6, rng)
    spec = eig_hermitian(h)
    u, w = spec.eigenvectors, spec.eigenvalues
    assert np.linalg.norm((u * w) @ u.conj().T - h) <= 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-10
    # U†HU = Λ
    assert np.linalg.norm(u.conj().T @ h @ u - np.diag(w)) <= 1e-10 * np.linalg.norm(h)


def test_eig_rejects_non_hermitian(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(LinalgError):
        eig_hermitian(m)


# Each entry point that takes an initial state runs linalg.check_state on it,
# naming the input; dt = 1e-10 gives evolve_trajectory the runner's 1e-8.
STATE_ENTRY_POINTS = {
    "run_ensemble": ("initial state",
                     lambda s: ensemble.run_ensemble([0.0, 1.0], s, 1.0, 1e-3, 0, 4, workers=1)),
    "evolve_trajectory": ("initial state", lambda s: evolve_trajectory(
        s, np.diag([0.0, 1.0]), SdeConfig(sigma=1.0, dt=1e-10, n_steps=1), seed=0)),
    "hartree_vs_full": ("rho1_0", lambda s: hartree_vs_full(
        CompositeSystem(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), np.zeros((4, 4))), s,
        np.diag([1.0, 0.0]), 1.0, 1e-3, 1e-3, [0.1], 2, workers=1)),
}


@pytest.mark.parametrize("state, detail", [
    ([[np.nan, 0.0], [0.0, 1.0]], " is not finite"),
    (np.eye(3) / 3, " has shape (3, 3), which does not match H's 2×2"),
    ([[0.5, 0.3], [0.1, 0.5]],
     ": trace drift 0.00e+00, hermiticity 2.00e-01, eigmin 3.00e-01 outside ±1.00e-08"),
    ([[0.5, 0.9], [0.9, 0.5]],
     ": trace drift 0.00e+00, hermiticity 0.00e+00, eigmin -4.00e-01 outside ±1.00e-08"),
    (np.diag([0.6, 0.6]),
     ": trace drift 2.00e-01, hermiticity 0.00e+00, eigmin 6.00e-01 outside ±1.00e-08")],
    ids=["nan", "shape", "non-hermitian", "negative-eigenvalue", "trace"])
@pytest.mark.parametrize("entry", STATE_ENTRY_POINTS)
def test_every_entry_point_rejects_a_bad_state_with_one_message(entry, state, detail):
    label, call = STATE_ENTRY_POINTS[entry]
    with pytest.raises(LinalgError, match=f"^{re.escape(label + detail)}$"):
        call(np.asarray(state, complex))


HAMILTONIAN_ENTRY_POINTS = {
    "eig_hermitian": ("H", eig_hermitian),
    "CompositeSystem": ("h1", lambda h: CompositeSystem(h, np.eye(2), np.eye(4))),
    "evolve_trajectory": ("H", lambda h: evolve_trajectory(
        np.array([1.0, 0.0]), h, SdeConfig(sigma=1.0, dt=1e-3, n_steps=1), seed=0)),
}


@pytest.mark.parametrize("h, detail", [
    (np.diag([np.nan, 1.0]), " is not finite"),
    (np.diag([np.inf, 1.0]), " is not finite"),
    ([[0.0, 1.0], [0.0, 1.0]], " is not Hermitian: relative defect 1.00e+00")],
    ids=["nan", "inf", "skew"])
@pytest.mark.parametrize("entry", HAMILTONIAN_ENTRY_POINTS)
def test_every_entry_point_rejects_a_bad_hamiltonian_with_one_message(entry, h, detail):
    name, call = HAMILTONIAN_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # inf − inf in the defect would warn
        with pytest.raises(LinalgError, match=f"^{re.escape(name + detail)}$"):
            call(np.asarray(h, complex))


@pytest.mark.parametrize("call, value, message", [
    (HAMILTONIAN_ENTRY_POINTS["CompositeSystem"][1], np.ones((2, 3)),
     "h1 must be a square matrix, got shape (2, 3)"),
    (STATE_ENTRY_POINTS["hartree_vs_full"][1], np.array([1.0, 0.0]),
     "rho1_0 must be a density matrix, got shape (2,)")],
    ids=["CompositeSystem-h1", "hartree_vs_full-rho1_0"])
def test_a_shape_error_names_its_input(call, value, message):
    with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
        call(value)


def test_hermitize_defect(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.hermiticity_defect(hermitize(m)) < 1e-15


def test_serialization_roundtrip(tmp_path, rng):
    m = random_hermitian(3, rng)
    save_array(tmp_path / "op.txt", m)
    back = load_array(tmp_path / "op.txt")
    assert np.array_equal(back, m)
    first = (tmp_path / "op.txt").read_text().splitlines()[0]
    assert first == "3"

    v = random_pure_state(5, rng)
    save_array(tmp_path / "vec.txt", v)
    vb = load_array(tmp_path / "vec.txt")
    assert vb.ndim == 1 and np.array_equal(vb, v)
    with pytest.raises(LinalgError, match="square"):
        save_array(tmp_path / "wide.txt", np.ones((2, 3)))     # load_array could not read it
