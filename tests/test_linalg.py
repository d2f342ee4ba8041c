"""Dense linear algebra: eigendecomposition, operator exponentials, norms."""

import math

import numpy as np
import pytest

from aqml import linalg
from aqml.util import stream

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2.0


def test_eig_identity():
    dec = linalg.eig_hermitian(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0, atol=1e-14)


def test_eig_pauli_z():
    dec = linalg.eig_hermitian(Z)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [0.0, 1.0], atol=1e-14)
    assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [1.0, 0.0], atol=1e-14)


def test_eig_random_residuals_and_orthonormality():
    H = random_hermitian(stream(0, "la", "eig"), 8)
    dec = linalg.eig_hermitian(H)
    hnorm = linalg.norm(H, "spectral")
    for n in range(8):
        v = dec.eigenvectors[:, n]
        assert np.linalg.norm(H @ v - dec.eigenvalues[n] * v) <= 1e-10 * hnorm
    G = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.max(np.abs(G - np.eye(8))) <= 1e-10
    V = dec.eigenvectors
    recon = (V * dec.eigenvalues) @ V.conj().T
    assert np.max(np.abs(recon - H)) <= 1e-10 * max(1.0, hnorm)


def test_eig_deterministic():
    H = random_hermitian(stream(0, "la", "det"), 6)
    d1 = linalg.eig_hermitian(H)
    d2 = linalg.eig_hermitian(H.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eig_rejects_non_hermitian():
    with pytest.raises(linalg.NonHermitianError):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_exp_zero_time():
    H = random_hermitian(stream(0, "la", "exp0"), 4)
    assert np.allclose(linalg.operator_exp(H, 0.0), np.eye(4), atol=1e-12)


def test_operator_exp_pauli_z_pi():
    U = linalg.operator_exp(Z, math.pi)
    assert np.allclose(U, np.diag([-1.0, -1.0]), atol=1e-12)


def test_operator_exp_matches_taylor_series():
    H = random_hermitian(stream(0, "la", "taylor"), 4)
    t = 0.7
    S = np.zeros((4, 4), dtype=np.complex128)
    power = np.eye(4, dtype=np.complex128)
    for q in range(21):
        S += power
        power = power @ (-1j * t * H) / (q + 1)
    assert np.max(np.abs(linalg.operator_exp(H, t) - S)) <= 1e-9


def test_operator_exp_inverse_property():
    H = random_hermitian(stream(0, "la", "inv"), 5)
    for t in (0.3, 1.0, 2.5):
        prod = linalg.operator_exp(H, t) @ linalg.operator_exp(H, -t)
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-9


def test_norms_identity():
    assert linalg.norm(np.eye(3), "spectral") == pytest.approx(1.0)
    assert linalg.norm(np.eye(3), "trace") == pytest.approx(3.0)
    assert linalg.norm(np.eye(3), "max-entry") == pytest.approx(1.0)


def test_norms_zero_matrix():
    for kind in ("spectral", "trace", "max-entry"):
        assert linalg.norm(np.zeros((4, 4)), kind) == 0.0


def test_trace_norm_of_pure_state_difference():
    # rank-2 difference of two pure states with overlap c has trace norm
    # 2 sqrt(1 - |c|^2)
    rng = stream(0, "la", "pure")
    for _ in range(5):
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        b = rng.normal(size=6)
        b /= np.linalg.norm(b)
        c = float(a @ b)
        diff = np.outer(a, a) - np.outer(b, b)
        assert linalg.norm(diff, "trace") == pytest.approx(
            2.0 * math.sqrt(1.0 - c * c), abs=1e-10
        )
        assert linalg.trace_distance(np.outer(a, a), np.outer(b, b)) == pytest.approx(
            2.0 * math.sqrt(1.0 - c * c), abs=1e-10
        )


def test_dimension_cap():
    with pytest.raises(ValueError):
        linalg.as_operator(np.zeros((5000, 5000)))


def test_sparse_pattern_norm_bound():
    # ||A - B|| <= (d + 2) ||A - B||_max for same-pattern d-sparse pairs
    rng = stream(0, "la", "sparse")
    for _ in range(20):
        dim, d = 12, 3
        mask = np.zeros((dim, dim), dtype=bool)
        for p in range(dim):
            cols = rng.choice(dim, size=d, replace=False)
            mask[p, cols] = True
        mask = mask | mask.T
        # cap row degree at d by dropping excess entries symmetrically
        for p in range(dim):
            cols = np.flatnonzero(mask[p])
            for c in cols[d:]:
                mask[p, c] = mask[c, p] = False
        A = rng.normal(size=(dim, dim)) * mask
        B = rng.normal(size=(dim, dim)) * mask
        A = (A + A.T) / 2.0
        B = (B + B.T) / 2.0
        diff = A - B
        d_eff = int(np.max(np.sum(np.abs(diff) > 1e-12, axis=1)))
        assert linalg.norm(diff, "spectral") <= (d_eff + 2) * linalg.norm(
            diff, "max-entry"
        ) + 1e-12
