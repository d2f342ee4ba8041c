"""Dense complex linear algebra: Hermitian operators, eigendecompositions,
operator exponentials and the spectral norm used by the perturbation bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM_CAP = 4096
HERMITIAN_TOL = 1e-12


class NonHermitianError(ValueError):
    pass


def as_operator(H) -> np.ndarray:
    """Validate and return a square complex matrix within the dimension cap."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] > DIM_CAP:
        raise ValueError(f"dimension {H.shape[0]} exceeds cap {DIM_CAP}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix contains NaN or Inf")
    return H


def check_hermitian(H, tol: float = HERMITIAN_TOL) -> np.ndarray:
    H = as_operator(H)
    dev = np.max(np.abs(H - H.conj().T))
    scale = max(1.0, np.max(np.abs(H)))
    if dev > tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e} (tol {tol:.1e})"
        )
    return (H + H.conj().T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column n is the eigenvector of eigenvalues[n]


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above threshold is real
    positive, making decompositions reproducible.  A column with no such
    component is rotated by its first one, and left as it is when that is
    0."""
    pivot = V[(np.abs(V) > 1e-9).argmax(axis=0), np.arange(V.shape[1])]
    live = pivot != 0
    phase = np.ones_like(pivot)
    # numpy scalar division: the complex ufunc divide rounds differently
    phase[live] = [abs(p) / p for p in pivot[live]]
    return np.multiply(V, phase, out=V.copy(), where=live)


def eig_hermitian(H) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues,
    deterministic eigenvector phases. Rejects input that is not Hermitian
    within HERMITIAN_TOL."""
    H = check_hermitian(H)
    vals, vecs = np.linalg.eigh(H)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def operator_exp(H, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via exact eigendecomposition."""
    dec = eig_hermitian(H)
    V = dec.eigenvectors
    return (V * np.exp(-1j * dec.eigenvalues * t)) @ V.conj().T


def norm(A) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.svd(as_operator(A), compute_uv=False).max())


def trace_distance(rho, sigma) -> float:
    """Tr|rho - sigma| for Hermitian matrices (twice the usual metric)."""
    diff = check_hermitian(as_operator(rho) - as_operator(sigma), tol=1e-9)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
