"""Small state-vector simulator: gates, the Hadamard-test inner-product
circuit, the amplitude-estimation contract, and phase estimation read from
the spectrum of the evolved Hamiltonian.

Qubit 0 is the most significant bit of a basis index, so |10> means qubit 0
in state 1 and qubit 1 in state 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import QueryCounter

QUBIT_CAP = 24
PHASE_BITS_CAP = 16

H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)


@dataclass
class QuantumRegister:
    state: np.ndarray
    n_qubits: int

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=np.complex128)
        if self.n_qubits < 1 or self.n_qubits > QUBIT_CAP:
            raise ValueError(f"n_qubits must be in [1, {QUBIT_CAP}]")
        if self.state.shape != (2**self.n_qubits,):
            raise ValueError("state length does not match qubit count")
        nrm = np.linalg.norm(self.state)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {nrm}")

    @classmethod
    def zeros(cls, n_qubits: int) -> "QuantumRegister":
        state = np.zeros(2**n_qubits, dtype=np.complex128)
        state[0] = 1.0
        return cls(state, n_qubits)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "QuantumRegister":
        state = np.zeros(2**n_qubits, dtype=np.complex128)
        state[index] = 1.0
        return cls(state, n_qubits)

    @classmethod
    def from_vector(cls, vec) -> "QuantumRegister":
        vec = np.asarray(vec, dtype=np.complex128)
        n = int(round(math.log2(len(vec))))
        if 2**n != len(vec):
            raise ValueError("state vector length must be a power of two")
        return cls(vec, n)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2


def apply_unitary(reg: QuantumRegister, U, targets, controls=()) -> QuantumRegister:
    """Apply U on `targets`, conditioned on every qubit in `controls` being 1."""
    targets = list(targets)
    controls = list(controls)
    n = reg.n_qubits
    if len(set(targets + controls)) != len(targets) + len(controls):
        raise ValueError("targets and controls must be disjoint")
    for q in targets + controls:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (2 ** len(targets), 2 ** len(targets)):
        raise ValueError("unitary dimension does not match target count")

    psi = reg.state.reshape((2,) * n)
    rest = [q for q in range(n) if q not in targets and q not in controls]
    perm = controls + targets + rest
    psi = psi.transpose(perm).reshape(2 ** len(controls), 2 ** len(targets), -1)
    out = psi.copy()
    out[-1] = U @ psi[-1]  # block where all controls are 1
    out = out.reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)
    nrm = np.linalg.norm(out)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("gate application broke normalization; U not unitary?")
    return QuantumRegister(out / nrm, n)


def _n_qubits_for(dim: int) -> int:
    n = max(1, int(math.ceil(math.log2(dim))))
    if 2**n < dim:
        n += 1
    return n


def _pad_to_power_of_two(vec: np.ndarray) -> np.ndarray:
    n = _n_qubits_for(len(vec))
    if 2**n == len(vec):
        return vec
    out = np.zeros(2**n, dtype=vec.dtype)
    out[: len(vec)] = vec
    return out


def state_prep_unitary(vec: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix mapping |0> to `vec` (a real unit vector),
    built from a Householder reflection."""
    vec = np.asarray(vec, dtype=np.float64)
    e0 = np.zeros_like(vec)
    e0[0] = 1.0
    w = e0 - vec
    nw2 = np.dot(w, w)
    if nw2 < 1e-24:
        return np.eye(len(vec))
    return np.eye(len(vec)) - 2.0 * np.outer(w, w) / nw2


def xor_permutation(n_qubits: int, k: int) -> np.ndarray:
    """Permutation matrix |x> -> |x XOR k> on an n-qubit register."""
    dim = 2**n_qubits
    P = np.zeros((dim, dim))
    for x in range(dim):
        P[x ^ k, x] = 1.0
    return P


def hadamard_test(vectors, j: int, k: int) -> float:
    """Exact P(0) of the one-ancilla inner-product circuit.

    `vectors` is the state-preparation oracle: row j is the real unit vector
    |v_j>.  The circuit is: H on the ancilla, controlled preparation of
    |v_j>, controlled XOR against the basis index k, H on the ancilla.
    Returns P(ancilla = 0) = (1 + <k|v_j>) / 2.
    """
    vectors = np.asarray(vectors)
    if np.max(np.abs(np.imag(vectors.astype(np.complex128)))) > 1e-12:
        raise ValueError("hadamard_test requires real-valued training vectors")
    v = np.real(vectors[j]).astype(np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("training vector must be unit norm")
    v = _pad_to_power_of_two(v)
    if not 0 <= k < len(v):
        raise ValueError("basis index out of range")
    n_data = int(round(math.log2(len(v))))

    reg = QuantumRegister.zeros(1 + n_data)
    data = list(range(1, 1 + n_data))
    reg = apply_unitary(reg, H_GATE, [0])
    reg = apply_unitary(reg, state_prep_unitary(v), data, controls=[0])
    reg = apply_unitary(reg, xor_permutation(n_data, k), data, controls=[0])
    reg = apply_unitary(reg, H_GATE, [0])
    probs = reg.probabilities()
    return float(np.sum(probs[: 2**n_data]))


# --- amplitude estimation -------------------------------------------------

AE_COST_CONSTANT = 8  # constant inside the O(1/(eps0*delta0)) query charge
_DELTA_FLOOR = 1e-9  # avoids a divide-by-zero charge when delta0 = 0


def ae_query_charge(epsilon0: float, delta0: float) -> int:
    return int(math.ceil(AE_COST_CONSTANT / (epsilon0 * max(delta0, _DELTA_FLOOR))))


def check_ae_precision(epsilon0: float, delta0: float) -> None:
    """Reject a precision or failure probability outside the contract's
    ranges."""
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError("epsilon0 must lie in (0, 1)")
    if not 0.0 <= delta0 < 1.0:
        raise ValueError("delta0 must lie in [0, 1)")


def amplitude_estimate(
    success_prob: float,
    epsilon0: float,
    delta0: float,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
) -> float:
    """Contract-level amplitude estimation.

    With probability >= 1 - delta0 the returned value is uniform within
    epsilon0 of success_prob, clipped to [0, 1].  Otherwise it is
    adversarial: the end point of [0, 1] farthest from the truth (0.0 when
    success_prob > 1/2, else 1.0).  Charges
    ceil(AE_COST_CONSTANT / (epsilon0 * delta0)) oracle queries.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError("success_prob must lie in [0, 1]")
    check_ae_precision(epsilon0, delta0)
    if counter is not None:
        counter.charge("amplitude_estimation", ae_query_charge(epsilon0, delta0))
    if delta0 > 0.0 and rng.random() < delta0:
        return 0.0 if success_prob > 0.5 else 1.0
    value = success_prob + epsilon0 * (2.0 * rng.random() - 1.0)
    return float(min(1.0, max(0.0, value)))


def ae_draws(count: int, delta0: float, rng: np.random.Generator) -> tuple:
    """The randomness of `count` amplitude_estimate calls made one after
    another, drawn ahead of the values they read out.

    Each call takes a failure test u < delta0 (none when delta0 = 0) and,
    if the test passes, one noise draw.  Neither depends on the success
    probability, so (failed, noise) arrays can be taken from rng in the
    calls' order; rng ends in the state the calls leave it in.  noise is 0
    where failed.
    """
    failed = np.zeros(count, dtype=bool)
    noise = np.zeros(count)
    if delta0 <= 0.0:
        noise[:] = rng.random(count)
        return failed, noise
    done = 0
    while done < count:
        # every remaining call takes at least one draw, so none is wasted
        buf = rng.random(count - done)
        pos = 0  # offset of the next failure test in buf
        for c in np.flatnonzero(buf < delta0):
            if (c - pos) % 2:
                continue  # a noise draw, not a test
            passed = (c - pos) // 2
            noise[done:done + passed] = buf[pos + 1:c:2]
            failed[done + passed] = True
            done += passed + 1
            pos = c + 1
        passed = (len(buf) - pos) // 2
        noise[done:done + passed] = buf[pos + 1:pos + 2 * passed:2]
        done += passed
        if (len(buf) - pos) % 2:
            # the last draw was a passed test whose noise is still to come
            noise[done] = rng.random()
            done += 1
    return failed, noise


def ae_readout(success_prob: np.ndarray, epsilon0: float, failed: np.ndarray,
               noise: np.ndarray) -> np.ndarray:
    """amplitude_estimate on arrays, with its randomness drawn beforehand
    by ae_draws: success_prob + epsilon0 (2 noise - 1) clipped to [0, 1],
    or, where failed, the end point of [0, 1] farthest from success_prob."""
    value = np.minimum(1.0, np.maximum(0.0, success_prob + epsilon0 * (2.0 * noise - 1.0)))
    return np.where(failed, np.where(success_prob > 0.5, 0.0, 1.0), value)


# eigenvalues transformed per FFT batch, so a batch holds at most this many
# complex entries or one row of 2^bits
_QPE_BATCH_ENTRIES = 2**16


def phase_estimate_distribution(energies, weights, bits: int) -> np.ndarray:
    """Exact outcome distribution of textbook QPE on U = e^{-iH}, read from
    the spectrum of H.

    energies[k] is an eigenvalue E_k of H and weights[k] = |<v_k|psi>|^2 the
    input state's mass on its eigenvector.  The circuit (`bits` controls in
    |+>, controlled-U^(2^m) powers, inverse QFT on the controls) leaves
    sum_x |x> U^x |psi> / sqrt(N), N = 2^bits, before the QFT, so entry y,
    the probability of reading the phase y / N, is

        P(y) = sum_k w_k |N^-1 sum_x e^{-i x E_k} e^{-2 pi i x y / N}|^2,

    one length-N FFT per eigenvalue of nonzero weight.  As the controlled
    powers do, the factors e^{-i x E} are built by doubling: x < 2^(m+1)
    from x - 2^m and e^{-i E 2^m}, whose argument E 2^m is exact.
    """
    if bits < 1 or bits > PHASE_BITS_CAP:
        raise ValueError(f"bits must be in [1, {PHASE_BITS_CAP}]")
    E = np.asarray(energies, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if E.ndim != 1 or w.shape != E.shape:
        raise ValueError("energies and weights must be 1-D with one weight each")
    if not np.all(np.isfinite(E)):
        raise ValueError("energies must be finite")
    if np.any(w < 0) or abs(np.sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    keep = w > 0
    E, w = E[keep], w[keep]
    n = 2**bits
    batch = max(1, _QPE_BATCH_ENTRIES // n)
    dist = np.zeros(n)
    for i in range(0, len(E), batch):
        doubling = np.exp(-1j * np.multiply.outer(E[i:i + batch],
                                                  2.0 ** np.arange(bits)))
        factors = np.empty((len(doubling), n), dtype=np.complex128)
        factors[:, 0] = 1.0
        for m in range(bits):
            np.multiply(factors[:, :2**m], doubling[:, m:m + 1],
                        out=factors[:, 2**m:2**(m + 1)])
        # |FFT|^2 is N^2 P_k(y); the normalization below divides N^2 out
        amp = np.fft.fft(factors, axis=1)
        dist += w[i:i + batch] @ (amp.real**2 + amp.imag**2)
    return dist / np.sum(dist)


def phase_to_eigenvalue(phase, scale: float = 1.0):
    """Recover the H-eigenvalue from a QPE phase of U = e^{-iH}, elementwise
    over an array of phases.

    The eigenphase phi in [0, 1) satisfies e^{-iE} = e^{2 pi i phi}; E is
    -2*pi*phi wrapped to (-pi, pi], then divided by `scale`.
    """
    E = -2.0 * math.pi * np.asarray(phase, dtype=np.float64)
    return np.where(E <= -math.pi, E + 2.0 * math.pi, E) / scale
