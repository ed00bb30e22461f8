"""Dense complex Hermitian linear algebra at small dimension.

Every function takes array-likes and returns plain complex ndarrays.  All
simulation-side quantities are dimensionless (hbar = 1, energies in an
arbitrary unit); physical units live in `phenomenology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "LinalgError",
    "Spectrum",
    "hermitize",
    "hermiticity_defect",
    "check_hermitian",
    "check_state",
    "eig_hermitian",
    "random_hermitian",
    "random_pure_state",
    "random_density_matrix",
    "save_array",
    "load_array",
    "write_csv",
]

# Largest relative Hermiticity defect that check_hermitian accepts.
HERMITIAN_RTOL = 1e-12

# Largest dense dimension a truncated space may take (accretion.pnk_exact).
MAX_DIM = 4096


class LinalgError(ValueError):
    """Raised when an operator or state violates its contract."""


def as_matrix(op) -> np.ndarray:
    """Coerce an array-like to a complex square matrix."""
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(state) -> np.ndarray:
    """Coerce an array-like to a complex 1-D array."""
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1:
        raise LinalgError(f"expected a vector, got shape {v.shape}")
    return v


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def hermiticity_defect(a: np.ndarray) -> float:
    """max|A − A†| relative to max|A| (0 for the zero matrix)."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - a.conj().T).max() / scale)


def check_hermitian(h, name: str = "H") -> np.ndarray:
    """h as a complex square matrix.  Raises LinalgError naming it unless h is
    square, finite and its hermiticity_defect is at most HERMITIAN_RTOL."""
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise LinalgError(f"{name} is not finite")
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_RTOL:
        raise LinalgError(f"{name} is not Hermitian: relative defect {defect:.2e}")
    return m


def check_state(s, d: int, tol: float, label: str) -> np.ndarray:
    """s as a complex vector (d,) or density matrix (d, d).  Raises LinalgError
    naming `label` unless s has one of those shapes, is finite and keeps its
    invariants within tol: |norm² − 1| for a vector; |trace − 1|, max|s − s†|
    and −λ_min(hermitize(s)) for a matrix."""
    s = np.asarray(s, dtype=complex)
    if s.shape not in ((d,), (d, d)):
        raise LinalgError(f"{label} has shape {s.shape}, which does not match H's {d}×{d}")
    if not np.isfinite(s).all():
        raise LinalgError(f"{label} is not finite")
    if s.ndim == 1:
        drift = abs(float(np.vdot(s, s).real) - 1.0)
        if drift > tol:
            raise LinalgError(f"{label}: norm² drift {drift:.2e} > {tol:.2e}")
        return s
    tr_drift = abs(np.trace(s).real - 1.0)
    herm = np.abs(s - s.conj().T).max()
    low = np.linalg.eigvalsh(hermitize(s))[0]
    if tr_drift > tol or herm > tol or low < -tol:
        raise LinalgError(f"{label}: trace drift {tr_drift:.2e}, hermiticity {herm:.2e}, "
                          f"eigmin {low:.2e} outside ±{tol:.2e}")
    return s


def purity_residual(rho) -> float:
    """Frobenius norm of ρ² − ρ."""
    m = as_matrix(rho)
    return float(np.linalg.norm(m @ m - m))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator with degeneracy bookkeeping.

    eigenvalues ascend; eigenvectors are orthonormal columns aligned with
    them; degeneracy_groups partitions the index range into runs of
    eigenvalues closer than the tolerance used at construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degeneracy_groups: tuple = field(default=())

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        u = np.array(self.eigenvectors, dtype=complex)
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", u)

    def group_energies(self) -> np.ndarray:
        return np.array([self.eigenvalues[list(g)].mean() for g in self.degeneracy_groups])


def eig_hermitian(h) -> Spectrum:
    """Eigendecomposition with degeneracy groups, of an h that passes
    check_hermitian.

    Consecutive eigenvalues within 1e-9 × the spectral range (1e-15 when the
    range is 0) are chained into one group.
    """
    w, u = np.linalg.eigh(check_hermitian(h))
    spread = float(w[-1] - w[0])
    tol = 1e-9 * spread if spread > 0 else 1e-15
    groups = []
    cur = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= tol:
            cur.append(i)
        else:
            groups.append(tuple(cur))
            cur = [i]
    groups.append(tuple(cur))
    return Spectrum(w, u, tuple(groups))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(a)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank mixed state from a Wishart-style construction."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


# Plain-text serialization: first line is the dimension, then one "re im"
# pair per entry — dim lines for a vector, dim² lines (row-major) for a
# square matrix.

def save_array(path, arr) -> None:
    a = np.asarray(arr, dtype=complex)
    if a.ndim not in (1, 2) or a.shape[0] != a.shape[-1]:
        raise LinalgError("can only serialize vectors and square matrices")
    write_csv(path, str(a.shape[0]),
              ([f"{_format(x.real)} {_format(x.imag)}"] for x in a.reshape(-1)))


def load_array(path) -> np.ndarray:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    dim = int(lines[0])
    vals = np.array(
        [complex(float(p[0]), float(p[1])) for p in (ln.split() for ln in lines[1:])]
    )
    if vals.size == dim:
        return vals
    if vals.size == dim * dim:
        return vals.reshape(dim, dim)
    raise LinalgError(f"file holds {vals.size} entries; expected {dim} or {dim*dim}")


def _format(v) -> str:
    """A CSV cell or RESULT value: an int or float at 17 significant digits,
    which round-trips a float64, anything else by str."""
    return f"{float(v):.17g}" if isinstance(v, (int, float, np.floating)) else str(v)


def write_csv(path, header: str, rows) -> None:
    """Write every artifact table: the header line, then one line of
    comma-joined cells per row, each line ending in LF."""
    lines = [header] + [",".join(map(_format, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
