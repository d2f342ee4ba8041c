"""Hadamard test, amplitude and phase estimation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqml import statevec
from aqml.util import QueryCounter, stream


def test_hadamard_test_perfect_overlap():
    vectors = np.eye(4)
    assert statevec.hadamard_test(vectors, 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_orthogonal():
    vectors = np.eye(4)
    assert statevec.hadamard_test(vectors, 1, 3) == pytest.approx(0.5, abs=1e-12)


def test_hadamard_test_specific_component():
    v = np.array([0.36, math.sqrt(1.0 - 0.36**2), 0.0, 0.0])
    p0 = statevec.hadamard_test(v[None, :], 0, 0)
    assert p0 == pytest.approx(0.68, abs=1e-10)


def test_hadamard_test_rejects_complex():
    v = np.array([1j, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        statevec.hadamard_test(v[None, :], 0, 0)


def test_hadamard_test_random_vectors():
    # every dim from 1 to 16: a vector is zero-padded to 2^n >= 2 entries, a
    # padding index reads overlap 0, and an index past the padding is rejected
    rng = stream(0, "sv", "ht")
    for dim in range(1, 17):
        padded = next(p for p in (2, 4, 8, 16) if p >= dim)
        for _ in range(5):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            k = int(rng.integers(0, dim))
            p0 = statevec.hadamard_test(v[None, :], 0, k)
            assert abs(p0 - (1.0 + v[k]) / 2.0) <= 1e-10
        for k in range(dim, padded):
            assert abs(statevec.hadamard_test(v[None, :], 0, k) - 0.5) <= 1e-12
        for k in (padded, padded + 3, -1):
            with pytest.raises(ValueError):
                statevec.hadamard_test(v[None, :], 0, k)


def test_amplitude_estimate_zero_success_prob():
    rng = stream(0, "sv", "ae0")
    for _ in range(50):
        val = statevec.amplitude_estimate(0.0, epsilon0=0.05, delta0=0.0, rng=rng)
        assert 0.0 <= val <= 0.05


def test_amplitude_estimate_always_within_window_when_delta_zero():
    rng = stream(0, "sv", "ae-win")
    for _ in range(200):
        val = statevec.amplitude_estimate(0.5, epsilon0=0.01, delta0=0.0, rng=rng)
        assert 0.49 <= val <= 0.51


def test_amplitude_estimate_failure_rate():
    rng = stream(0, "sv", "ae-fail")
    trials = 10**5
    delta0 = 0.1
    fails = 0
    for _ in range(trials):
        val = statevec.amplitude_estimate(0.3, epsilon0=0.01, delta0=delta0, rng=rng)
        if abs(val - 0.3) > 0.01:
            fails += 1
    sigma = math.sqrt(delta0 * (1 - delta0) / trials)
    assert fails / trials <= delta0 + 3.0 * sigma


class _AlwaysFails:
    """Generator stand-in whose uniform draw 0.0 selects the failure branch
    for every delta0 > 0."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("p,far", [(1.0, 0.0), (0.7, 0.0), (0.5 + 1e-12, 0.0),
                                   (0.5, 1.0), (0.3, 1.0), (0.0, 1.0)])
def test_amplitude_estimate_failure_returns_far_endpoint(p, far):
    val = statevec.amplitude_estimate(p, epsilon0=0.01, delta0=0.1, rng=_AlwaysFails())
    assert val == far


def test_amplitude_estimate_query_charge():
    counter = QueryCounter()
    statevec.amplitude_estimate(
        0.5, epsilon0=0.1, delta0=0.01, rng=stream(0, "sv", "q"), counter=counter
    )
    assert counter.charges["amplitude_estimation"] == math.ceil(8 / (0.1 * 0.01))


def _ae_readout(success_prob, epsilon0, failed, noise):
    """Reference: amplitude_estimate on arrays, with its randomness drawn
    beforehand by ae_draws: success_prob + epsilon0 (2 noise - 1) clipped to
    [0, 1], or, where failed, the end point of [0, 1] farthest from
    success_prob."""
    value = np.minimum(1.0, np.maximum(0.0, success_prob + epsilon0 * (2.0 * noise - 1.0)))
    return np.where(failed, np.where(success_prob > 0.5, 0.0, 1.0), value)


@settings(max_examples=100, deadline=None)
@given(probs=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.5 + 1e-12, 0.7, 1.0]), max_size=60),
       delta0=st.one_of(st.sampled_from([0.0, 1e-3, 0.5, 0.9]), st.floats(0.0, 0.99)),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_readouts_match_sequential_calls(probs, delta0, seed):
    # drawing ahead and reading out on arrays gives the values, and leaves
    # the generator in the state, of one amplitude_estimate call per entry
    rng, ahead = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [statevec.amplitude_estimate(p, epsilon0=0.01, delta0=delta0, rng=rng)
            for p in probs]
    failed, noise = statevec.ae_draws(len(probs), delta0, ahead)
    got = _ae_readout(np.array(probs, dtype=np.float64), 0.01, failed, noise)
    assert got.tolist() == want
    assert ahead.bit_generator.state == rng.bit_generator.state


def _circuit_distribution(U, psi, bits):
    """Reference: textbook QPE by state-vector simulation.  `bits` control
    qubits in |+>, controlled-U^(2^m) powers, inverse QFT on the control
    register (applied as the DFT along the control axis, the same unitary).
    Entry y is the probability of reading the phase y / 2^bits."""
    U = np.asarray(U, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    assert np.max(np.abs(U @ U.conj().T - np.eye(len(psi)))) <= 1e-9
    n_ctrl = 2**bits
    # joint state, control register as the leading axis, all controls in |+>
    joint = np.tile(psi, (n_ctrl, 1)) / math.sqrt(n_ctrl)
    U_pow = U
    for m in range(bits):  # controlled-U^(2^m) on control bit of weight 2^m
        rows = np.arange(n_ctrl) & (1 << m) != 0
        joint[rows] = joint[rows] @ U_pow.T
        if m + 1 < bits:
            U_pow = U_pow @ U_pow
    # inverse QFT on the control register: y-amplitudes sum_x e^{-2pi i xy/N}
    joint = np.fft.fft(joint, axis=0) / math.sqrt(n_ctrl)
    dist = np.sum(np.abs(joint) ** 2, axis=1)
    return dist / np.sum(dist)


def _diagonal_qpe(phis, weights, bits):
    # U = diag(e^{2 pi i phi}) = e^{-iH} with H = diag(-2 pi phi)
    return statevec.phase_estimate_distribution(
        -2.0 * math.pi * np.asarray(phis), np.asarray(weights, dtype=float), bits
    )


def amplitude_estimate_circuit(success_prob: float, bits: int) -> np.ndarray:
    """Exact outcome distribution of circuit-level amplitude estimation:
    QPE on the Grover iterate applied to A|0>.  Entry y of the result is the
    probability of reading y, whose estimate is sin^2(pi * y / 2^bits).

    The Grover iterate is the rotation by 2 theta, sin^2(theta) = p, which is
    e^{-i 2 theta sigma_y}; A|0> = (cos theta, sin theta) has overlap 1/2
    with each eigenvector (1, +-i)/sqrt(2) of sigma_y.
    """
    theta = math.asin(math.sqrt(success_prob))
    return statevec.phase_estimate_distribution(
        np.array([2 * theta, -2 * theta]), np.array([0.5, 0.5]), bits
    )


def test_amplitude_estimate_circuit_contract():
    # circuit-level mode: modal estimate sin^2(pi y / 2^bits) lands near p
    for p in (0.0, 0.25, 0.7):
        dist = amplitude_estimate_circuit(p, bits=8)
        y = int(np.argmax(dist))
        est = math.sin(math.pi * y / 2**8) ** 2
        assert abs(est - p) <= 2e-2


@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
def test_amplitude_estimate_circuit_matches_grover_circuit(p):
    # QPE of the Grover iterate, a rotation by 2 theta, on A|0>
    theta = math.asin(math.sqrt(p))
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    G = np.array([[c, -s], [s, c]])
    amp = np.array([math.cos(theta), math.sin(theta)])
    for bits in (1, 5, 8):
        want = _circuit_distribution(G, amp, bits)
        got = amplitude_estimate_circuit(p, bits)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_phase_estimate_representable_phase():
    dist = _diagonal_qpe([0.0, 0.25], [0.0, 1.0], bits=2)
    assert dist[1] == pytest.approx(1.0, abs=1e-12)  # phase 1/4 = y / 2^2


def test_phase_estimate_identity():
    dist = statevec.phase_estimate_distribution(np.zeros(4), np.full(4, 0.25), 3)
    assert dist[0] == pytest.approx(1.0, abs=1e-12)


def test_phase_estimate_fejer_distribution():
    # non-representable phase 0.3 at 4 bits: closed-form QPE distribution
    phi = 0.3
    bits = 4
    dist = _diagonal_qpe([0.0, phi], [0.0, 1.0], bits)
    n = 2**bits
    for y in range(n):
        delta = phi - y / n
        if abs(math.sin(math.pi * delta)) < 1e-15:
            expected = 1.0
        else:
            expected = (
                math.sin(math.pi * n * delta) / (n * math.sin(math.pi * delta))
            ) ** 2
        assert abs(dist[y] - expected) <= 1e-10
    assert int(np.argmax(dist)) == 5  # modal outcome 5/16


def test_phase_estimate_superposition_linearity():
    rng = stream(0, "sv", "lin")
    phis = [0.1, 0.4, 0.8]
    amps = rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    dist = _diagonal_qpe(phis, amps**2, bits=5)
    combo = np.zeros(2**5)
    for k, a in enumerate(amps):
        combo += a**2 * _diagonal_qpe(phis, np.eye(3)[k], bits=5)
    assert np.max(np.abs(dist - combo)) <= 1e-10


@pytest.mark.parametrize("energies,weights", [
    (np.zeros(2), np.array([0.5, 0.4])),  # does not sum to 1
    (np.zeros(2), np.array([1.5, -0.5])),  # negative weight
    (np.zeros(2), np.array([1.0])),  # one weight per energy
    (np.array([np.nan, 0.0]), np.array([0.5, 0.5])),
])
def test_phase_estimate_rejects_bad_spectrum(energies, weights):
    with pytest.raises(ValueError):
        statevec.phase_estimate_distribution(energies, weights, 4)


def _wrap(E):
    return E + 2.0 * math.pi if E <= -math.pi else E


@st.composite
def _qpe_instances(draw):
    """(bits, energies, seed): a spectrum of 1-8 eigenvalues (at most 2 above
    12 bits), with repeats, representable phases E = -2 pi j / 2^bits and
    energies at and near +-pi among the draws."""
    bits = draw(st.integers(1, 16))
    dim = draw(st.integers(1, 8 if bits <= 12 else 2))
    n = 2**bits
    energy = st.one_of(
        st.floats(-math.pi, math.pi),
        st.integers(0, n - 1).map(lambda j: _wrap(-2.0 * math.pi * j / n)),
        st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                         math.nextafter(-math.pi, 0.0), math.pi - 1e-9,
                         -math.pi + 1e-6, 0.0]),
    )
    drawn = draw(st.lists(energy, min_size=1, max_size=dim))
    repeats = [draw(st.sampled_from(drawn)) for _ in range(dim - len(drawn))]
    return bits, np.array(drawn + repeats), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(instance=_qpe_instances())
@example(instance=(16, np.array([math.pi - 1e-9, -2.0 * math.pi * 3 / 2**16]), 0))
@example(instance=(12, np.array([0.3, 0.3, 0.3, -0.3, 1.0, 1.0, -3.0, math.pi]), 1))
@example(instance=(1, np.array([-math.pi + 1e-6]), 2))
def test_spectral_distribution_matches_circuit(instance):
    # H = V diag(E) V^dag for a random unitary V, complex psi; the spectral
    # form and the simulated circuit agree per outcome
    bits, E, seed = instance
    rng = np.random.default_rng(seed)
    dim = len(E)
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    U = (V * np.exp(-1j * E)) @ V.conj().T
    want = _circuit_distribution(U, psi, bits)
    weights = np.abs(V.conj().T @ psi) ** 2
    got = statevec.phase_estimate_distribution(E, weights, bits)
    assert got.shape == (2**bits,)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_phase_to_eigenvalue_wrap():
    # eigenvalue E maps to phase (-E / 2 pi) mod 1 and back
    for E in (-3.0, -0.5, 0.0, 0.5, 3.0):
        phase = (-E / (2 * math.pi)) % 1.0
        assert statevec.phase_to_eigenvalue(phase) == pytest.approx(E, abs=1e-12)
    # scale division
    assert statevec.phase_to_eigenvalue(0.25, scale=0.5) == pytest.approx(
        -math.pi, abs=1e-12
    )


@pytest.mark.parametrize("bits", [1, 4, 10, 16])
@pytest.mark.parametrize("scale", [1.0, 0.37, 1.0 / 3.0])
def test_phase_to_eigenvalue_on_arrays_matches_scalar_wrap(bits, scale):
    # the array form is bit-identical to wrapping one phase at a time
    phases = np.arange(2**bits) / 2**bits
    want = []
    for phase in phases.tolist():
        E = -2.0 * math.pi * phase
        while E <= -math.pi:
            E += 2.0 * math.pi
        want.append(E / scale)
    assert statevec.phase_to_eigenvalue(phases, scale).tolist() == want


@given(
    phase=st.floats(0.0, 1.0, exclude_max=True),
    scale_exp=st.integers(-10, 10),
)
@example(phase=0.5, scale_exp=0)
@example(phase=0.0, scale_exp=0)
@example(phase=math.nextafter(0.5, 0.0), scale_exp=0)
@example(phase=math.nextafter(1.0, 0.0), scale_exp=0)
def test_phase_to_eigenvalue_lands_in_principal_branch(phase, scale_exp):
    # a power-of-two scale divides exactly, so the interval test is exact
    scale = 2.0**scale_exp
    E = statevec.phase_to_eigenvalue(phase, scale)
    assert -math.pi / scale < E <= math.pi / scale
    # e^{-iE scale} is the eigenphase factor e^{2 pi i phase}
    assert abs(np.exp(-1j * E * scale) - np.exp(2j * math.pi * phase)) <= 1e-12


def test_phase_estimate_bits_cap():
    with pytest.raises(ValueError):
        statevec.phase_estimate_distribution(np.zeros(2), np.array([1.0, 0.0]), 17)
