"""The quantum steps read out in closed or branch form: the Hadamard-test
inner-product circuit on its two ancilla branches, the amplitude-estimation
contract, and phase estimation read from the spectrum of the evolved
Hamiltonian.
"""

from __future__ import annotations

import math

import numpy as np

from .util import QueryCounter

PHASE_BITS_CAP = 16

H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


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


def hadamard_test(vectors, j: int, k: int) -> float:
    """Exact P(0) of the one-ancilla inner-product circuit.

    `vectors` is the state-preparation oracle: row j is the real unit vector
    |v_j>, zero-padded to 2^n >= 2 entries.  The circuit is: H on the
    ancilla, controlled preparation of |v_j>, controlled XOR against the
    basis index k, H on the ancilla.  Returns P(ancilla = 0) =
    (1 + <k|v_j>) / 2.

    The register is held as two rows, the data register on ancilla branch 0
    and on branch 1; H mixes the rows and each controlled gate acts on row 1.
    """
    vectors = np.asarray(vectors)
    if np.max(np.abs(np.imag(vectors.astype(np.complex128)))) > 1e-12:
        raise ValueError("hadamard_test requires real-valued training vectors")
    v = np.real(vectors[j]).astype(np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("training vector must be unit norm")
    dim = max(2, 1 << (len(v) - 1).bit_length())
    if not 0 <= k < dim:
        raise ValueError("basis index out of range")
    padded = np.zeros(dim)
    padded[: len(v)] = v

    reg = np.zeros((2, dim))
    reg[0, 0] = 1.0
    reg = H_GATE @ reg
    reg[1] = state_prep_unitary(padded) @ reg[1]
    reg[1] = reg[1, np.arange(dim) ^ k]  # |x> -> |x XOR k>
    reg = H_GATE @ reg
    return float(np.sum(reg[0] ** 2))


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
    # every call takes at most two draws, so 2 count cover them all; the
    # failures are walked in that buffer, then the generator is put back and
    # advanced by exactly the draws the calls take
    state = rng.bit_generator.state
    buf = rng.random(2 * count)
    done = 0
    pos = 0  # offset of the next failure test in buf
    for c in np.flatnonzero(buf < delta0):
        if (c - pos) % 2:
            continue  # a noise draw, not a test
        passed = (c - pos) // 2
        if done + passed >= count:
            break  # the remaining calls all pass before this draw
        noise[done:done + passed] = buf[pos + 1:c:2]
        failed[done + passed] = True
        done += passed + 1
        pos = c + 1
    passed = count - done
    noise[done:] = buf[pos + 1:pos + 2 * passed:2]
    rng.bit_generator.state = state
    rng.random(pos + 2 * passed)
    return failed, noise


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
