"""Dense linear algebra: eigendecomposition, operator exponentials, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    hnorm = linalg.norm(H)
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
    assert linalg.norm(np.eye(3)) == pytest.approx(1.0)


def test_norms_zero_matrix():
    assert linalg.norm(np.zeros((4, 4))) == 0.0


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
        assert linalg.trace_distance(np.outer(a, a), np.outer(b, b)) == pytest.approx(
            2.0 * math.sqrt(1.0 - c * c), abs=1e-10
        )


def test_dimension_cap():
    with pytest.raises(ValueError):
        linalg.as_operator(np.zeros((5000, 5000)))


@pytest.mark.parametrize("A", [np.zeros((2, 3)), np.array([[np.nan]])],
                         ids=["non-square", "nan"])
def test_norm_rejects(A):
    # linalg.norm checks its input through as_operator, as test_dimension_cap
    # does for a matrix over the cap
    with pytest.raises(ValueError):
        linalg.norm(A)


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
        assert linalg.norm(diff) <= (d_eff + 2) * np.max(np.abs(diff)) + 1e-12


def fix_phases_loop(V):
    """The former column loop of linalg._fix_phases, kept as the reference."""
    V = V.copy()
    for n in range(V.shape[1]):
        col = V[:, n]
        idx = np.argmax(np.abs(col) > 1e-9)
        pivot = col[idx]
        if pivot != 0:
            V[:, n] = col * (abs(pivot) / pivot)
    return V


def same_bits(a, b):
    """Equal values with equal signs of zero, in both parts."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 7),
    kind=st.sampled_from(["real", "complex", "grid", "identity"]),
    seed=st.integers(0, 2**32 - 1),
    faint=st.booleans(),
)
def test_array_phase_fix_matches_the_column_loop(dim, kind, seed, faint):
    # grid and identity matrices have degenerate spectra; a faint column has
    # no component above the threshold, and its pivot is its first entry
    rng = np.random.default_rng(seed)
    if kind == "identity":
        H = np.eye(dim)
    elif kind == "grid":
        A = rng.integers(-1, 2, size=(dim, dim)) + 1j * rng.integers(-1, 2, size=(dim, dim))
        H = A + A.conj().T
    else:
        A = rng.normal(size=(dim, dim))
        if kind == "complex":
            A = A + 1j * rng.normal(size=(dim, dim))
        H = A + A.conj().T
    V = np.linalg.eigh(linalg.check_hermitian(H))[1]
    assert same_bits(linalg.eig_hermitian(H).eigenvectors, fix_phases_loop(V))
    if faint:
        V[:, 0] = 1e-10 * V[:, 0]
        V[:, -1] = 0.0
        V[-1, -1] = -1e-12j
    assert same_bits(linalg._fix_phases(V), fix_phases_loop(V))
    V[:, 0] = 0.0  # a zero pivot leaves the column as it is
    assert same_bits(linalg._fix_phases(V), fix_phases_loop(V))


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-6, 6), complex_=st.booleans())
def test_spectral_norm_matches_numpy_norm(dim, seed, scale, complex_):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) * 10.0**scale
    if complex_:
        A = A + 1j * rng.normal(size=(dim, dim))
    assert linalg.norm(A) == float(np.linalg.norm(A.astype(complex), 2))
