"""One-sparse decomposition, sign discretization, truncated-Taylor segments,
and noisy-oracle simulation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    terms = lcu.one_sparse_decompose(np.diag([0.3, -0.2, 0.5, 0.1]))
    assert len(terms) == 1
    assert np.allclose(terms[0], np.diag([0.3, -0.2, 0.5, 0.1]))


def test_decompose_pauli_x_single_term():
    terms = lcu.one_sparse_decompose(X)
    assert len(terms) == 1
    assert np.allclose(terms[0], X)


def test_decompose_reconstruction_and_one_sparsity():
    rng = stream(0, "lcu", "dec")
    for trial in range(20):
        A = random_sparse_symmetric(rng, 16, 3)
        terms = lcu.one_sparse_decompose(A)
        assert len(terms) <= 6  # 2d layers suffice for d-sparse symmetric
        assert np.abs(np.sum(terms, axis=0) - A).max() <= 1e-12
        for t in terms:
            nz = np.abs(t) > 1e-12
            assert nz.sum(axis=0).max() <= 1
            assert nz.sum(axis=1).max() <= 1


@st.composite
def _sparse_hermitian(draw):
    """A Hermitian matrix of dim 1-10 with a random support pattern (any
    sparsity, empty rows and a zero or full diagonal included), real or
    complex entries, each exactly 0, above the sparsity threshold or, in
    some draws, below it."""
    dim = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    support = np.triu(rng.random((dim, dim)) < density)
    values = rng.uniform(0.001, 1.0, (dim, dim)) * rng.choice([-1.0, 1.0], (dim, dim))
    if draw(st.booleans()):
        values = values * np.exp(1j * rng.uniform(0, 2 * np.pi, (dim, dim)))
    if draw(st.booleans()):
        # magnitudes in [1e-15, 1e-12): structural zeros to the decomposition
        values[rng.random((dim, dim)) < 0.3] *= lcu.SPARSITY_THRESHOLD
    A = np.where(support, values, 0.0)
    A = np.triu(A, 1) + np.triu(A, 1).conj().T + np.diag(np.real(np.diag(A)))
    return A


@settings(max_examples=150, deadline=None)
@given(A=_sparse_hermitian())
# a sub-threshold diagonal entry beside a stored diagonal entry, and beside
# none: both are dropped
@example(A=np.array([[1e-13, 0.5], [0.5, 0.3]]))
@example(A=np.array([[1e-13, 0.5], [0.5, 0.0]]))
def test_decomposition_layers_are_one_sparse_and_sum_to_the_matrix(A):
    terms = lcu.one_sparse_decompose(A)
    for term in terms:
        nz = np.abs(term) > lcu.SPARSITY_THRESHOLD
        assert nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1
        assert np.array_equal(term, term.conj().T)
    # every stored entry lands in exactly one layer, so the sum is exact
    total = np.sum(terms, axis=0) if terms else np.zeros_like(A)
    assert np.array_equal(total, np.where(np.abs(A) > lcu.SPARSITY_THRESHOLD, A, 0.0))


def test_one_sparse_norm_is_max_entry():
    # spectral norm of a one-sparse Hermitian equals its largest |entry|
    rng = stream(0, "lcu", "norm")
    for trial in range(25):
        A = random_sparse_symmetric(rng, 8, 2)
        for t in lcu.one_sparse_decompose(A):
            assert abs(
                linalg.norm(t) - np.abs(t).max()
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


def sign_decompose(term, m_disc, max_norm=None):
    """Reference for the quantization of `lcu.sign_count_average`: the
    self-inverse signed unitary summands of a one-sparse Hermitian term.

    Averaging the returned matrices over m reproduces term / max_norm within
    O(1/m_disc) per entry.  Magnitudes are encoded by the discretized sign
    count; entry phases ride along so negative and complex entries decompose
    too (the nonnegative case reduces to the plain (-1)^(...) rule).
    """
    term = np.asarray(term, dtype=np.complex128)
    if max_norm is None:
        max_norm = float(np.max(np.abs(term)))
    if max_norm == 0:
        return []
    if m_disc < 1:
        raise ValueError("m_disc must be >= 1")
    support = np.abs(term) > 1e-15
    mag = np.abs(term)
    phase = np.where(support, np.where(mag > 0, term / np.where(mag == 0, 1, mag), 0), 0)
    # permutation-with-phases pattern on the support; unit entries
    base = np.where(support, phase, 0).astype(np.complex128)
    n_plus = np.minimum(np.floor(mag * m_disc / max_norm).astype(np.int64), m_disc)
    out = []
    for m in range(1, m_disc + 1):
        signs = np.where(m <= n_plus, 1.0, (-1.0) ** m)
        out.append(base * signs)
    return out


def test_sign_decompose_average_reproduces_term():
    term = np.array([[0.0, 0.37], [0.37, 0.0]])
    parts = sign_decompose(term, m_disc=1000, max_norm=1.0)
    avg = np.mean(parts, axis=0)
    assert np.abs(avg - term / 1.0).max() <= 2.0 / 1000


def test_sign_decompose_zero_norm_empty():
    assert sign_decompose(np.zeros((2, 2)), m_disc=10, max_norm=0.0) == []


def test_sign_summands_self_inverse():
    term = np.array([[0.0, 0.6], [0.6, 0.0]])
    for U in sign_decompose(term, m_disc=200, max_norm=1.0):
        assert np.allclose(U @ U, np.eye(2), atol=1e-12)


@given(
    numerators=st.lists(st.integers(-64, 64), min_size=1, max_size=6),
    norm_exp=st.integers(-4, 4),
    m_disc=st.integers(1, 64),
)
def test_sign_count_average_is_the_summand_average(numerators, norm_exp, m_disc):
    # a real one-sparse term, 2x2 blocks [[0, v], [v, 0]] with v = j/64 *
    # max_norm: simulate_noisy's quantization sign(v) sign_count_average(v)
    # is the average of the signed summands (whose unit phases v/|v| are
    # complex quotients, exact only to rounding)
    max_norm = 2.0**norm_exp
    values = np.array(numerators, dtype=np.float64) / 64.0 * max_norm
    term = np.kron(np.diag(values), [[0.0, 1.0], [1.0, 0.0]])
    avg = np.mean(sign_decompose(term, m_disc, max_norm), axis=0)
    quantized = np.sign(term) * lcu.sign_count_average(term, max_norm, m_disc)
    assert np.abs(avg - quantized).max() <= 1e-14


def test_taylor_segment_identity_at_zero():
    S, smin = lcu.taylor_segment(Z, 0.0, K=5)
    assert np.allclose(S, np.eye(2), atol=1e-14)
    assert smin == pytest.approx(1.0)


def test_taylor_segment_remainder_bound():
    S, _ = lcu.taylor_segment(Z, 0.5, K=10)
    exact = linalg.operator_exp(Z, 0.5)
    bound = lcu.taylor_remainder_bound(1.0, 0.5, 10)
    assert bound == pytest.approx(0.5**11 / math.factorial(11) * math.e**0.5)
    err = linalg.norm(S - exact)
    assert err <= max(bound, 1e-12)


def test_taylor_segment_order_one_closed_form():
    S, _ = lcu.taylor_segment(Z, 0.1, K=1)
    assert np.allclose(S, np.eye(2) - 0.1j * Z, atol=1e-14)
    exact = linalg.operator_exp(Z, 0.1)
    err = linalg.norm(S - exact)
    assert err <= 0.1**2 / 2.0 * math.e**0.1


def test_taylor_segment_rejects_long_time():
    with pytest.raises(ValueError):
        lcu.taylor_segment(Z, 2.0, K=5)


def test_config_delta_invariant():
    lcu.TaylorConfig(order=6, m_disc=10000, delta=1e-2)
    with pytest.raises(ValueError):
        lcu.TaylorConfig(order=6, m_disc=10000, delta=0.05)
    with pytest.raises(ValueError):
        lcu.TaylorConfig(n_trials=0)


@pytest.mark.parametrize("field", [
    {"time": 0.0}, {"time": -0.0}, {"time": math.inf}, {"time": -math.inf},
    {"time": math.nan}, {"eta": math.inf}, {"eta": math.nan},
], ids=["time-0", "time-neg-0", "time-inf", "time-neg-inf", "time-nan",
        "eta-inf", "eta-nan"])
def test_config_rejects_zero_or_nonfinite_time_and_nonfinite_eta(field):
    # rejected by the config, before simulate_noisy draws anything
    with pytest.raises(ValueError):
        lcu.TaylorConfig(**field)


def test_segment_count_rejects_a_nonfinite_budget():
    # time * max_norm * layers overflows to inf: ValueError, not OverflowError
    with pytest.raises(ValueError):
        lcu.segment_count(1.0, lcu.TaylorConfig(time=1e308), 3)
    assert lcu.segment_count(1.0, lcu.TaylorConfig(time=1e9), 3) == 4328085123


def test_simulate_noisy_refuses_too_many_oracle_reads(monkeypatch):
    # time 1e9 asks for 4 328 085 123 segments: refused before any draw
    A = random_sparse_symmetric(np.random.default_rng(0), 4, 2)
    nnz = int(np.sum(np.abs(np.triu(A)) > lcu.SPARSITY_THRESHOLD))
    rng = stream(0, "lcu", "cap")
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        lcu.simulate_noisy(A, lcu.TaylorConfig(time=1e9, n_trials=1), rng)
    assert rng.bit_generator.state == before
    # the cap itself is allowed, one read more is not
    cfg = lcu.TaylorConfig(order=4, m_disc=10**4, n_trials=3, time=0.5)
    r = lcu.segment_count(float(np.max(np.abs(A))), cfg,
                          len(lcu.one_sparse_decompose(A)))
    monkeypatch.setattr(lcu, "MAX_ORACLE_READS", 3 * r * nnz)
    lcu.simulate_noisy(A, cfg, rng)
    monkeypatch.setattr(lcu, "MAX_ORACLE_READS", 3 * r * nnz - 1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        lcu.simulate_noisy(A, cfg, rng)
    assert rng.bit_generator.state == before


def test_config_accepts_only_worst_case_failures():
    assert lcu.TaylorConfig().failure_mode == "worst-case"
    with pytest.raises(ValueError):
        lcu.TaylorConfig(failure_mode="uniform")


def test_row_sparsity_matches_inline_count():
    # the row count written out, with the 1e-12 structural-zero threshold
    def inline(M):
        return int(np.max(np.sum(np.abs(M) > 1e-12, axis=1)))

    real = np.array([[0.0, 0.5, -0.5, 0.2],
                     [0.5, 0.1, 0.0, 0.0],
                     [-0.5, 0.0, 0.0, 0.0],
                     [0.2, 0.0, 0.0, 0.0]])
    cplx = np.array([[1.0, 1j, 1e-13],
                     [-1j, 0.0, 0.0],
                     [1e-13, 0.0, 2.0]])
    for M, want in ((np.zeros((3, 3)), 0), (real, 3), (cplx, 2)):
        assert lcu.row_sparsity(M) == inline(M) == want


def test_config_order_cap():
    # the power stack of simulate_noisy holds K//2 + 1 stacks per block
    lcu.TaylorConfig(order=lcu.MAX_ORDER)
    with pytest.raises(ValueError):
        lcu.TaylorConfig(order=lcu.MAX_ORDER + 1)
    # past the cap the next term is far below double rounding
    assert lcu.taylor_remainder_bound(1.0, math.log(2.0), lcu.MAX_ORDER) < 1e-40


def test_simulate_noiseless_matches_exact():
    rng = stream(0, "lcu", "clean")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=8, m_disc=10**6, eta=0.0, delta=0.0,
                           n_trials=1, time=0.7)
    rep = lcu.simulate_noisy(A, cfg, rng)
    exact = linalg.operator_exp(A, 0.7)
    h = linalg.norm(A)
    trunc = rep.segments * lcu.taylor_remainder_bound(
        h, 0.7 / rep.segments, cfg.order
    )
    disc = A.shape[0] ** 2 / cfg.m_disc * rep.segments
    err = linalg.norm(rep.effective_channel - exact)
    assert err <= trunc + disc + 1e-10


def test_simulate_noisy_deviation_within_linear_bound():
    rng = stream(0, "lcu", "noisy")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.01, delta=0.0,
                           n_trials=300, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    assert rep.bound_scale == pytest.approx(
        lcu.row_sparsity(A) * 0.01
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


def test_simulate_noisy_zero_matrix_is_identity():
    # no stored entry: the channel is e^{-i 0 t} = I, nothing is read, charged
    # or drawn
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.01, delta=0.005,
                           n_trials=20, time=0.5)
    rng = stream(0, "lcu", "zero")
    before = rng.bit_generator.state
    rep = lcu.simulate_noisy(np.zeros((4, 4)), cfg, rng)
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(rep.effective_channel, np.eye(4))
    np.testing.assert_array_equal(rep.effective_hamiltonian, np.zeros((4, 4)))
    assert rep.deviation_spectral == 0.0
    assert rep.bound_scale == 0.0
    assert rep.unitarity_drift == 0.0
    assert rep.segments == 0 and rep.achieved_layers == 0
    assert rep.queries.total == 0


def test_unitarity_drift_budget():
    rng = stream(0, "lcu", "drift")
    A = random_sparse_symmetric(rng, 8, 2)
    cfg = lcu.TaylorConfig(order=6, m_disc=10000, eta=0.0, delta=0.0,
                           n_trials=50, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, rng)
    h = linalg.norm(A)
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


NOISE_GRID = [0.0, 1e-3, 1e-2]  # the eta and delta values of criterion 6


@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_noisy_entry_samples_match_uniform_draws(delta):
    # the reads written with rng.uniform(-1.0, 1.0, ...): the same values bit
    # for bit, and the generator ends in the same state
    vals = np.array([0.3, -0.7, 1.0, 0.0, -1.0, 0.999])
    cfg = lcu.TaylorConfig(order=6, m_disc=10**4, eta=1e-2, delta=delta)
    size = 2000
    ref_rng = np.random.default_rng(7)
    want = ref_rng.uniform(-1.0, 1.0, (size, len(vals))) * cfg.eta + vals
    if delta > 0.0:
        want = np.where(ref_rng.random((size, len(vals))) < delta, -vals, want)
    want = np.clip(want, -1.0, 1.0)
    rng = np.random.default_rng(7)
    got = lcu._noisy_entry_samples(vals, cfg, 1.0, rng, size)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def complex_loop_channel(A, cfg, rng):
    """Reference for the real C - iS loop of simulate_noisy: the noisy
    segment loop in complex arithmetic, with the layer count from the built
    decomposition, the same oracle draws, a complex series per segment and a
    complex running product started from the identity.  Returns (Q, r)."""
    H = linalg.check_hermitian(A)
    max_norm = float(np.max(np.abs(H)))
    r = lcu.segment_count(max_norm, cfg, len(lcu.one_sparse_decompose(H)))
    t_seg = cfg.time / r
    dim = H.shape[0]
    rows, cols = np.nonzero(np.abs(np.triu(H)) > lcu.SPARSITY_THRESHOLD)
    base_vals = np.real(H[rows, cols])
    T = cfg.n_trials
    reads = lcu._noisy_entry_samples(base_vals, cfg, max_norm, rng, T * r).reshape(
        T, r, len(rows)
    )
    quant = (np.sign(reads) * lcu.sign_count_average(reads, max_norm, cfg.m_disc)
             * max_norm)
    eye = np.eye(dim, dtype=np.complex128)
    prod = np.tile(eye, (T, 1, 1))
    for s in range(r):
        Ms = np.zeros((T, dim, dim), dtype=np.complex128)
        Ms[:, rows, cols] = quant[:, s, :]
        Ms[:, cols, rows] = quant[:, s, :]
        A_s = (-1j * t_seg) * Ms
        S = np.tile(eye, (T, 1, 1))
        power = np.tile(eye, (T, 1, 1))
        for q in range(1, cfg.order + 1):
            power = np.matmul(power, A_s) / q
            S = S + power
        prod = np.matmul(S, prod)
    return prod.mean(axis=0), r


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 10),
    d=st.integers(1, 3),
    order=st.integers(1, 12),
    n_trials=st.integers(1, 20),
    eta=st.sampled_from(NOISE_GRID),
    delta=st.sampled_from(NOISE_GRID),
    failure_mode=st.just("worst-case"),
    time=st.sampled_from([0.05, 0.5]),
)
@example(seed=0, dim=1, d=1, order=6, n_trials=5, eta=0.0, delta=0.0,
         failure_mode="worst-case", time=0.05)  # r = 1
@example(seed=3, dim=8, d=2, order=1, n_trials=10, eta=1e-3, delta=0.0,
         failure_mode="worst-case", time=0.05)  # stack holds only I; S = A
@example(seed=4, dim=16, d=3, order=7, n_trials=150, eta=1e-2, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # odd K over 3 blocks of <= 64
@example(seed=5, dim=32, d=3, order=12, n_trials=40, eta=1e-3, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # 7 powers, blocks of 16 trials
@example(seed=0, dim=10, d=3, order=12, n_trials=20, eta=1e-2, delta=1e-2,
         failure_mode="worst-case", time=0.5)  # r > 1
@example(seed=1, dim=16, d=3, order=6, n_trials=150, eta=1e-2, delta=1e-2,
         failure_mode="worst-case", time=0.5)  # blocks of 64 trials, 150 = 2*64 + 22
@example(seed=2, dim=32, d=3, order=6, n_trials=40, eta=1e-3, delta=1e-2,
         failure_mode="worst-case", time=0.5)  # blocks of 16 trials, 40 = 2*16 + 8
@example(seed=3, dim=16, d=1, order=6, n_trials=20, eta=1e-2, delta=0.0,
         failure_mode="worst-case", time=0.5)  # r = 2: the last segment is also the first product
@example(seed=2, dim=16, d=2, order=5, n_trials=70, eta=1e-3, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # r = 2 over blocks of 64 trials, 70 = 64 + 6
@example(seed=6, dim=32, d=3, order=8, n_trials=17, eta=1e-2, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # r = 3, blocks of 16 trials, 17 = 16 + 1
@example(seed=0, dim=16, d=3, order=7, n_trials=150, eta=0.0, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # 12 failed trials and 138 clean ones sharing one product
@example(seed=0, dim=8, d=2, order=6, n_trials=70, eta=0.0, delta=1e-2,
         failure_mode="worst-case", time=0.5)  # 15 failed trials, 55 clean
@example(seed=0, dim=8, d=2, order=6, n_trials=20, eta=0.0, delta=1e-3,
         failure_mode="worst-case", time=0.5)  # all 20 clean: no failed trial to run
@example(seed=4, dim=16, d=3, order=6, n_trials=6, eta=0.0, delta=1e-2,
         failure_mode="worst-case", time=0.5)  # exactly one clean: 5 failed trials, then the shared one
def test_simulate_noisy_matches_complex_loop(
    seed, dim, d, order, n_trials, eta, delta, failure_mode, time
):
    A = random_sparse_symmetric(np.random.default_rng(seed), dim, min(d, dim))
    cfg = lcu.TaylorConfig(order=order, m_disc=10**4, eta=eta, delta=delta,
                           n_trials=n_trials, failure_mode=failure_mode,
                           time=time)
    ref_rng = np.random.default_rng([seed, 1])
    Q_ref, r_ref = complex_loop_channel(A, cfg, ref_rng)
    rng = np.random.default_rng([seed, 1])
    try:
        rep = lcu.simulate_noisy(A, cfg, rng)
    except ValueError:
        # a low-order channel too far from unitary: the reference is refused too
        with pytest.raises(ValueError):
            lcu.extract_effective_hamiltonian(Q_ref, time)
    else:
        assert rep.segments == r_ref
        assert np.abs(rep.effective_channel - Q_ref).max() <= 1e-13
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed, dim, d, n_trials, delta, n_clean", [
    (0, 16, 3, 1600, 1e-4, 1583),
    (0, 8, 2, 20, 1e-3, 20),
    (4, 16, 3, 6, 1e-2, 1),
])
def test_simulate_noisy_runs_the_clean_trials_once(
    monkeypatch, seed, dim, d, n_trials, delta, n_clean
):
    # at eta = 0 a trial none of whose reads failed repeats the noiseless
    # product: the trial loop sees the failed trials plus one clean trial
    # (every trial when none is clean), and the oracle charges are those of
    # every trial
    A = random_sparse_symmetric(np.random.default_rng(seed), dim, d)
    cfg = lcu.TaylorConfig(order=6, m_disc=10**4, eta=0.0, delta=delta,
                           n_trials=n_trials, failure_mode="worst-case", time=0.5)
    seen = []
    trial_sums = lcu._trial_sums

    def spy(quant, *args):
        seen.append(len(quant))
        return trial_sums(quant, *args)

    monkeypatch.setattr(lcu, "_trial_sums", spy)
    rep = lcu.simulate_noisy(A, cfg, np.random.default_rng([seed, 1]))
    r = rep.segments
    rows, cols = np.nonzero(np.abs(np.triu(A)) > lcu.SPARSITY_THRESHOLD)
    base_vals = A[rows, cols]
    reads = lcu._noisy_entry_samples(base_vals, cfg, float(np.max(np.abs(A))),
                                     np.random.default_rng([seed, 1]), n_trials * r)
    # no entry is below max_norm / m_disc, so a failed read quantizes apart
    assert (reads.reshape(n_trials, r, -1) == base_vals).all(axis=(1, 2)).sum() == n_clean
    assert seen == ([n_trials - n_clean, 1] if n_clean else [n_trials])
    assert rep.queries.charges == {
        "matrix_element_oracle": n_trials * r * len(rows),
        "lcu_segment_queries": n_trials * r * cfg.order,
    }


def test_simulate_noisy_memory_is_blocked():
    # the trial stacks are blocks of BLOCK_BYTES each: at T 2000 and dim 32
    # the peak stays below two (T, dim, dim) float64 stacks, where holding
    # every trial's series and product at once takes several of them
    dim, T = 32, 2000
    assert lcu.BLOCK_BYTES // (8 * dim * dim) < T
    A = random_sparse_symmetric(np.random.default_rng(3), dim, 3)
    cfg = lcu.TaylorConfig(order=6, m_disc=10**4, eta=1e-2, delta=1e-2,
                           n_trials=T, failure_mode="worst-case", time=0.5)
    tracemalloc.start()
    try:
        rep = lcu.simulate_noisy(A, cfg, stream(0, "lcu", "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.deviation_spectral <= 4.0 * rep.bound_scale
    assert peak < 2 * T * dim * dim * 8


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 16),
    d=st.integers(1, 5),
    zero_diagonal=st.booleans(),
    tiny_diagonal=st.booleans(),
)
@example(seed=0, dim=8, d=3, zero_diagonal=False,
         tiny_diagonal=True)  # A[0, 0] = 1e-13 beside stored diagonal and row-0 entries
@example(seed=0, dim=1, d=1, zero_diagonal=False, tiny_diagonal=False)  # dim 1
@example(seed=0, dim=1, d=1, zero_diagonal=True,
         tiny_diagonal=True)  # only 1e-13, no stored entry: 0 layers, bound_scale 0
def test_layer_count_matches_decomposition(seed, dim, d, zero_diagonal, tiny_diagonal):
    # the report's layer count and bound scale come from simulate_noisy's one
    # pass over the stored entries; they must agree with the built layers and
    # with the row sparsity, at the same structural-zero threshold
    A = random_sparse_symmetric(np.random.default_rng(seed), dim, min(d, dim))
    if zero_diagonal:
        np.fill_diagonal(A, 0.0)
    if tiny_diagonal:
        A[0, 0] = 1e-13
    cfg = lcu.TaylorConfig(order=2, eta=1e-3, n_trials=1, time=0.5)
    rep = lcu.simulate_noisy(A, cfg, np.random.default_rng(seed))
    assert rep.achieved_layers == len(lcu.one_sparse_decompose(A))
    assert (rep.achieved_layers == 0) == (lcu.row_sparsity(A) == 0)
    max_norm = float(np.max(np.abs(A)))
    assert rep.bound_scale == lcu.row_sparsity(A) * (max_norm * cfg.delta + cfg.eta)


def polar_unitary(Q):
    """Closest unitary to Q (polar factor via SVD)."""
    u, _, vh = np.linalg.svd(np.asarray(Q, dtype=np.complex128))
    return u @ vh


def eig_effective_hamiltonian(Q, t):
    """Reference for the Cayley extraction: the principal log through eig
    and an eigenvector inverse."""
    U = polar_unitary(Q)
    vals, vecs = np.linalg.eig(U)
    return vecs @ np.diag(-np.angle(vals) / t) @ np.linalg.inv(vecs)


def random_orthogonal(rng, dim):
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return V


def test_cayley_extraction_on_degenerate_spectrum():
    # the criterion-7 spectrum: +-0.25, +-0.75, each with multiplicity 2
    evals = np.array([-0.75, -0.75, -0.25, -0.25, 0.25, 0.25, 0.75, 0.75])
    for seed in range(10):
        rng = stream(seed, "lcu", "cayley")
        V = random_orthogonal(rng, 8)
        M = V @ np.diag(evals) @ V.T
        for t in (0.5, 1.0, 3.0):
            Q = linalg.operator_exp(M, t)
            H = lcu.extract_effective_hamiltonian(Q, t)
            assert np.abs(H - eig_effective_hamiltonian(Q, t)).max() <= 1e-12
            assert np.abs(H - M).max() <= 1e-12


def test_cayley_branch_cut_guard_edges():
    rng = stream(0, "lcu", "cut")
    V = random_orthogonal(rng, 4)
    t = 2.0
    for eps, refused in [(-1e-6, False), (1e-6, True)]:
        phases = np.array([math.pi - 0.1 + eps, 0.3, -0.2, 0.0])
        U = V @ np.diag(np.exp(-1j * phases)) @ V.T
        if refused:
            with pytest.raises(ValueError):
                lcu.extract_effective_hamiltonian(U, t)
        else:
            H = lcu.extract_effective_hamiltonian(U, t)
            expected = V @ np.diag(phases / t) @ V.T
            assert np.abs(H - expected).max() <= 1e-10


def test_cayley_rejects_eigenvalue_minus_one():
    # I + U is singular (exactly, then up to rounding): the documented
    # ValueError, not numpy's LinAlgError (itself a ValueError subclass)
    V = random_orthogonal(stream(0, "lcu", "minus-one"), 4)
    for U in (np.diag([-1.0, 1.0]), V @ np.diag([-1.0, 1.0, 1j, -1j]) @ V.T):
        with pytest.raises(ValueError) as info:
            lcu.extract_effective_hamiltonian(U, 1.0)
        assert not isinstance(info.value, np.linalg.LinAlgError)


def test_extraction_norms_match_svd_norms():
    # simulate_noisy reads the drift ||Q^dag Q - I|| as max |sigma^2 - 1| from
    # its one SVD of Q and the deviation from eigvalsh of a Hermitian
    # difference; extraction reads ||Q - U|| from the singular values
    for seed in range(4):
        rng = stream(seed, "lcu", "norms")
        A = random_sparse_symmetric(rng, 8 + 4 * seed, 2)
        cfg = lcu.TaylorConfig(order=6, m_disc=10**4, eta=1e-2, delta=1e-3,
                               n_trials=60, failure_mode="worst-case", time=0.5)
        rep = lcu.simulate_noisy(A, cfg, rng)
        Q = rep.effective_channel
        drift = linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[0]))
        assert abs(rep.unitarity_drift - drift) <= 1e-12
        dev = linalg.norm(A - rep.effective_hamiltonian)
        assert abs(rep.deviation_spectral - dev) <= 1e-13 * dev
    # distance to unitary: 0.85 U is 0.15 away and refused, 0.95 U is 0.05
    # away and kept
    U = linalg.operator_exp(random_sparse_symmetric(stream(0, "lcu", "scaled"), 6, 2), 0.4)
    with pytest.raises(ValueError):
        lcu.extract_effective_hamiltonian(0.85 * U, 0.4)
    lcu.extract_effective_hamiltonian(0.95 * U, 0.4)
