"""One-sparse decomposition, sign discretization, truncated-Taylor segments,
and noisy-oracle simulation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqml import lcu, linalg
from aqml.util import stream

Z = np.diag([1.0, -1.0]).astype(np.complex128)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def random_sparse_symmetric(rng, dim, d):
    A = np.zeros((dim, dim))
    for i in range(dim):
        cols = rng.choice(dim, size=d, replace=False)
        for j in cols:
            v = rng.uniform(-1, 1)
            A[i, j] = v
            A[j, i] = v
    # trim rows that exceed d nonzeros after symmetrization
    for i in range(dim):
        nz = np.flatnonzero(A[i])
        while len(nz) > d:
            j = nz[-1]
            A[i, j] = 0.0
            A[j, i] = 0.0
            nz = np.flatnonzero(A[i])
    m = np.abs(A).max()
    return A / m if m > 1 else A


def test_decompose_diagonal_single_term():
    dec = lcu.one_sparse_decompose(np.diag([0.3, -0.2, 0.5, 0.1]))
    assert dec.n_terms == 1
    assert np.allclose(dec.terms[0], np.diag([0.3, -0.2, 0.5, 0.1]))


def test_decompose_pauli_x_single_term():
    dec = lcu.one_sparse_decompose(X)
    assert dec.n_terms == 1
    assert np.allclose(dec.terms[0], X)


def test_decompose_reconstruction_and_one_sparsity():
    rng = stream(0, "lcu", "dec")
    for trial in range(20):
        A = random_sparse_symmetric(rng, 16, 3)
        dec = lcu.one_sparse_decompose(A)
        assert dec.n_terms <= 6  # 2d layers suffice for d-sparse symmetric
        assert np.abs(dec.reconstruct() - A).max() <= 1e-12
        for t in dec.terms:
            nz = np.abs(t) > 1e-12
            assert nz.sum(axis=0).max() <= 1
            assert nz.sum(axis=1).max() <= 1


def test_one_sparse_norm_is_max_entry():
    # spectral norm of a one-sparse Hermitian equals its largest |entry|
    rng = stream(0, "lcu", "norm")
    for trial in range(25):
        A = random_sparse_symmetric(rng, 8, 2)
        for t in lcu.one_sparse_decompose(A).terms:
            assert abs(
                linalg.norm(t, "spectral") - np.abs(t).max()
            ) <= 1e-12


def test_sign_average_examples():
    # entry at max_norm -> exact; entry 0 -> within 1/M; generic entry 2/M
    assert lcu.sign_count_average(np.array([1.0]), 1.0, 1000)[0] == (
        pytest.approx(1.0, abs=1e-12)
    )
    assert abs(lcu.sign_count_average(np.array([0.0]), 1.0, 1000)[0]) <= (
        1.0 / 1000
    )
    assert lcu.sign_count_average(np.array([0.37]), 1.0, 1000)[0] == (
        pytest.approx(0.37, abs=2.0 / 1000)
    )


@given(
    numerators=st.lists(st.integers(-300, 300), min_size=1, max_size=20),
    norm_exp=st.integers(-4, 4),
    m_disc=st.integers(1, 64),
)
def test_sign_count_average_matches_explicit_sum(numerators, norm_exp, m_disc):
    # values j/64 * max_norm with a power-of-two max_norm: every product in
    # the closed form and in the indicator |v| m_disc < m max_norm is exact
    max_norm = 2.0**norm_exp
    values = np.array(numerators, dtype=np.float64) / 64.0 * max_norm
    got = lcu.sign_count_average(values, max_norm, m_disc)
    for v, g in zip(values, got):
        total = sum(
            (-1) ** (m * int(abs(v) * m_disc < m * max_norm))
            for m in range(1, m_disc + 1)
        )
        assert g == total / m_disc


def test_sign_decompose_average_reproduces_term():
    term = np.array([[0.0, 0.37], [0.37, 0.0]])
    parts = lcu.sign_decompose(term, m_disc=1000, max_norm=1.0)
    avg = np.mean(parts, axis=0)
    assert np.abs(avg - term / 1.0).max() <= 2.0 / 1000


def test_sign_decompose_zero_norm_empty():
    assert lcu.sign_decompose(np.zeros((2, 2)), m_disc=10, max_norm=0.0) == []


def test_sign_summands_self_inverse():
    term = np.array([[0.0, 0.6], [0.6, 0.0]])
    for U in lcu.sign_decompose(term, m_disc=200, max_norm=1.0):
        assert np.allclose(U @ U, np.eye(2), atol=1e-12)


def test_taylor_segment_identity_at_zero():
    S, smin = lcu.taylor_segment(Z, 0.0, K=5)
    assert np.allclose(S, np.eye(2), atol=1e-14)
    assert smin == pytest.approx(1.0)


def test_taylor_segment_remainder_bound():
    S, _ = lcu.taylor_segment(Z, 0.5, K=10)
    exact = linalg.operator_exp(Z, 0.5)
    bound = lcu.taylor_remainder_bound(1.0, 0.5, 10)
    assert bound == pytest.approx(0.5**11 / math.factorial(11) * math.e**0.5)
    err = linalg.norm(S - exact, "spectral")
    assert err <= max(bound, 1e-12)


def test_taylor_segment_order_one_closed_form():
    S, _ = lcu.taylor_segment(Z, 0.1, K=1)
    assert np.allclose(S, np.eye(2) - 0.1j * Z, atol=1e-14)
    exact = linalg.operator_exp(Z, 0.1)
    err = linalg.norm(S - exact, "spectral")
    assert err <= 0.1**2 / 2.0 * math.e**0.1


def test_taylor_segment_rejects_long_time():
    with pytest.raises(ValueError):
        lcu.taylor_segment(Z, 2.0, K=5)


def test_config_delta_invariant():
    lcu.TaylorConfig(order=6, m_disc=10000, delta=1e-2)
    with pytest.raises(ValueError):
        lcu.TaylorConfig(order=6, m_disc=10000, delta=0.05)


def test_simulate_noiseless_matches_exact():
    rng = stream(0, "lcu", "clean")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=8, m_disc=10**6, eta=0.0, delta=0.0,
                           n_trials=1, time=0.7)
    rep = lcu.simulate_noisy(A, cfg, rng)
    exact = linalg.operator_exp(A, 0.7)
    h = linalg.norm(A, "spectral")
    trunc = rep.segments * lcu.taylor_remainder_bound(
        h, 0.7 / rep.segments, cfg.order
    )
    disc = A.shape[0] ** 2 / cfg.m_disc * rep.segments
    err = linalg.norm(rep.effective_channel - exact, "spectral")
    assert err <= trunc + disc + 1e-10


def test_simulate_noisy_deviation_within_linear_bound():
    rng = stream(0, "lcu", "noisy")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.01, delta=0.0,
                           n_trials=300, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    assert rep.bound_scale == pytest.approx(
        lcu.SparseHermitian(A).sparsity * 0.01
    )
    assert rep.deviation_spectral <= 4.0 * rep.bound_scale


def test_simulate_noisy_failure_bound():
    rng = stream(0, "lcu", "fail")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.0, delta=0.005,
                           n_trials=300, failure_mode="worst-case", time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    assert rep.deviation_spectral <= 4.0 * rep.bound_scale


def test_simulate_rejects_complex():
    H = np.array([[0.0, 1j], [-1j, 0.0]])
    cfg = lcu.TaylorConfig(order=4, m_disc=1000, time=0.1)
    with pytest.raises(ValueError):
        lcu.simulate_noisy(H, cfg, stream(0, "lcu", "cx"))


def test_unitarity_drift_budget():
    rng = stream(0, "lcu", "drift")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.0, delta=0.0,
                           n_trials=50, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    h = linalg.norm(A, "spectral")
    trunc = rep.segments * lcu.taylor_remainder_bound(
        h, 0.5 / rep.segments, cfg.order
    )
    budget = 2.0 * (trunc + A.shape[0] ** 2 / cfg.m_disc * rep.segments)
    assert rep.unitarity_drift <= max(budget, 1e-10)


def test_extract_hamiltonian_examples():
    Q = linalg.operator_exp(Z, 0.3)
    H = lcu.extract_effective_hamiltonian(Q, 0.3)
    assert np.abs(H - Z).max() <= 1e-10
    H0 = lcu.extract_effective_hamiltonian(np.eye(4, dtype=complex), 1.0)
    assert np.abs(H0).max() <= 1e-12


def test_extract_hamiltonian_rejects_wrap():
    Q = linalg.operator_exp(Z, 3.1)  # eigenphase inside the branch-cut guard
    with pytest.raises(ValueError):
        lcu.extract_effective_hamiltonian(Q, 3.1)


def test_query_accounting():
    rng = stream(0, "lcu", "qc")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, n_trials=10, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    charges = rep.queries.charges
    assert charges["lcu_segment_queries"] == 10 * rep.segments * cfg.order
    assert "matrix_element_oracle" in charges
