"""Truncated-Taylor simulation of e^{-iM} for sparse Hermitian M whose
entries arrive through noisy probabilistic oracles: one-sparse decomposition
by greedy edge coloring, sign discretization, segmented evolution, and
recovery of the effective (average) Hamiltonian."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .util import QueryCounter

# entries at or below this magnitude count as structural zeros
SPARSITY_THRESHOLD = 1e-12


def row_sparsity(A: np.ndarray) -> int:
    """Max count of entries above SPARSITY_THRESHOLD in any row."""
    return int(np.max(np.sum(np.abs(A) > SPARSITY_THRESHOLD, axis=1)))


# simulate_noisy runs its Monte Carlo trials in blocks whose (block, dim, dim)
# float64 stacks hold at most this many bytes each, so the scratch stacks
# stay in cache and are reused by every segment of every block
BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class SparseHermitian:
    """Dense storage of a d-sparse Hermitian matrix with its sparsity
    metadata."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.check_hermitian(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def sparsity(self) -> int:
        """Max nonzeros in any row."""
        return row_sparsity(self.matrix)

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrix)))


@dataclass
class OneSparseDecomposition:
    """Sum of one-sparse Hermitian terms reconstructing the source matrix;
    the diagonal term, when present, comes first."""

    terms: list  # list of (dim, dim) arrays, each one-sparse Hermitian

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def reconstruct(self) -> np.ndarray:
        return np.sum(self.terms, axis=0)


def _greedy_edge_coloring(A: np.ndarray) -> tuple:
    """Diagonal flag, upper-triangle support edges (ps[k], qs[k]) in row-major
    order, and the greedy color of each edge (smallest color free at both
    endpoints; at most 2d-1 colors for max off-diagonal degree d)."""
    has_diag = bool(np.any(np.abs(np.diag(A)) > SPARSITY_THRESHOLD))
    ps, qs = np.nonzero(np.abs(np.triu(A, 1)) > SPARSITY_THRESHOLD)
    colors = np.empty(len(ps), dtype=np.int64)
    used_at = [set() for _ in range(A.shape[0])]
    for k, (p, q) in enumerate(zip(ps.tolist(), qs.tolist())):
        c = 1
        while c in used_at[p] or c in used_at[q]:
            c += 1
        colors[k] = c
        used_at[p].add(c)
        used_at[q].add(c)
    return has_diag, ps, qs, colors


def _layer_count(A: np.ndarray) -> int:
    """Number of one-sparse layers `one_sparse_decompose(A)` builds, without
    building them."""
    has_diag, _, _, colors = _greedy_edge_coloring(A)
    return int(has_diag) + len(np.unique(colors))


def one_sparse_decompose(H: SparseHermitian | np.ndarray) -> OneSparseDecomposition:
    """Split a sparse Hermitian matrix into one-sparse Hermitian layers.

    The diagonal gets a dedicated term; the off-diagonal support graph is
    edge-colored greedily (at most 2d-1 colors for max off-diagonal degree
    d), each color class being a matching and hence one-sparse.
    """
    if not isinstance(H, SparseHermitian):
        H = SparseHermitian(np.asarray(H))
    A = H.matrix
    has_diag, ps, qs, colors = _greedy_edge_coloring(A)
    terms = []
    if has_diag:
        terms.append(np.diag(np.diag(A)).astype(np.complex128))
    for c in np.unique(colors):
        p, q = ps[colors == c], qs[colors == c]
        term = np.zeros_like(A)
        term[p, q] = A[p, q]
        term[q, p] = A[q, p]
        terms.append(term)
    dec = OneSparseDecomposition(terms=terms)
    # one-sparse guarantee: every term has at most one nonzero per row
    for term in dec.terms:
        if row_sparsity(term) > 1:
            raise AssertionError("edge coloring produced a non-matching layer")
    return dec


def sign_count_average(values: np.ndarray, max_norm: float, m_disc: int) -> np.ndarray:
    """Average over m = 1..m_disc of the discretized sign
    (-1)^(m * [|v| m_disc < m max_norm]); equals |v|/max_norm within
    O(1/m_disc).  Vectorized closed form of the sum over m, in float64
    (every intermediate is an integer below 2^53, so it is exact)."""
    count = np.abs(np.asarray(values, dtype=np.float64))
    # n = number of m with indicator false, i.e. m <= |v| m_disc / max_norm
    count *= m_disc
    count /= max_norm
    np.floor(count, out=count)
    np.minimum(count, m_disc, out=count)
    # the n terms +1 plus the remaining m = n+1 .. m_disc, which alternate
    # (-1)^m: together 2 ceil(n / 2) - (m_disc mod 2)
    count *= 0.5
    np.ceil(count, out=count)
    count *= 2.0
    count -= m_disc % 2
    count /= m_disc
    return count


# noisy-oracle mode requires delta <= DELTA_MDISC_CONSTANT / m_disc so the
# failure rate stays within the sign-discretization resolution
DELTA_MDISC_CONSTANT = 100.0

# largest truncation order K: simulate_noisy keeps K//2 + 1 stacked powers
# per trial block, and at a segment norm of ln 2 the next term
# (ln 2)^(K+1)/(K+1)! is below double rounding long before K = 40
MAX_ORDER = 40


@dataclass
class TaylorConfig:
    """Parameters of the segmented truncated-Taylor simulation.

    Each oracle read lands within eta of the entry except with probability
    delta, when it returns -value, the worst case for the simulated
    evolution.  `failure_mode` names that one failure model; it stays a
    field only because the benchmark passes it."""

    order: int = 12  # truncation order K per segment
    m_disc: int = 10**4  # sign-discretization count M
    eta: float = 0.0  # per-entry oracle error bound
    delta: float = 0.0  # per-entry oracle failure probability
    failure_mode: str = "worst-case"  # the only model; perfbench passes it
    n_trials: int = 400  # Monte Carlo averages defining the effective channel
    time: float = 1.0

    def __post_init__(self):
        if self.failure_mode != "worst-case":
            raise ValueError("failure_mode must be 'worst-case'")
        if self.order < 1 or self.m_disc < 1 or self.n_trials < 1:
            raise ValueError("order, m_disc and n_trials must be >= 1")
        if self.order > MAX_ORDER:
            raise ValueError("order must be <= %d" % MAX_ORDER)
        if not (0.0 <= self.delta < 1.0 and self.eta >= 0.0):
            raise ValueError("invalid oracle noise parameters")
        if self.delta > 0.0 and self.delta > DELTA_MDISC_CONSTANT / self.m_disc:
            raise ValueError("delta must satisfy delta <= %g / m_disc" % DELTA_MDISC_CONSTANT)


def segment_count(H: SparseHermitian, cfg: TaylorConfig, n_layers: int) -> int:
    """Segments r that keep each segment's norm budget within ln 2."""
    budget = abs(cfg.time) * H.max_norm * max(1, n_layers)
    return max(1, int(math.ceil(budget / math.log(2.0))))


def taylor_segment(H, t: float, K: int):
    """Truncated series S = sum_{q<=K} (-iHt)^q / q! and the worst-case
    success amplitude min_psi ||S psi||.

    The segment must satisfy ||H|| |t| <= ln 2; the analytic remainder bound
    (||H|| t)^(K+1)/(K+1)! e^(||H|| t) applies to ||S - e^{-iHt}||.
    """
    H = linalg.check_hermitian(H)
    hnorm = linalg.norm(H, "spectral")
    if hnorm * abs(t) > math.log(2.0) + 1e-9:
        raise ValueError("segment too long: ||H|| |t| must be <= ln 2")
    dim = H.shape[0]
    S = np.eye(dim, dtype=np.complex128)
    power = np.eye(dim, dtype=np.complex128)
    for q in range(1, K + 1):
        power = power @ (-1j * t * H) / q
        S = S + power
    smin = float(np.min(np.linalg.svd(S, compute_uv=False)))
    return S, smin


def _series_coefficients(K: int) -> np.ndarray:
    """(2, K//2 + 1) coefficients of the truncated series in B = A^2: row 0
    is (-1)^j / (2j)! (the even part C), row 1 is (-1)^j / (2j+1)! (the odd
    part S / A), zero where 2j + 1 > K."""
    coef = np.zeros((2, K // 2 + 1))
    for j in range(K // 2 + 1):
        coef[0, j] = (-1) ** j / math.factorial(2 * j)
        if 2 * j + 1 <= K:
            coef[1, j] = (-1) ** j / math.factorial(2 * j + 1)
    return coef


def taylor_remainder_bound(h_norm: float, t: float, K: int) -> float:
    x = h_norm * abs(t)
    return x ** (K + 1) / math.factorial(K + 1) * math.exp(x)


def _noisy_entry_samples(
    values: np.ndarray,
    cfg: TaylorConfig,
    max_norm: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw `size` oracle readouts for each entry value: within eta except
    with probability delta, when the read returns -value."""
    vals = np.asarray(values, dtype=np.float64)
    out = rng.uniform(-1.0, 1.0, (size, len(vals)))
    out *= cfg.eta
    out += vals
    if cfg.delta > 0.0:
        fail = rng.random((size, len(vals))) < cfg.delta
        np.copyto(out, -vals, where=fail)
    return np.clip(out, -max_norm, max_norm, out=out)


@dataclass
class NoisySimulationReport:
    effective_channel: np.ndarray
    effective_hamiltonian: np.ndarray
    deviation_spectral: float
    bound_scale: float  # d * (max_norm * delta + eta)
    achieved_layers: int
    order: int
    segments: int
    unitarity_drift: float
    queries: QueryCounter


def simulate_noisy(
    H: SparseHermitian | np.ndarray,
    cfg: TaylorConfig,
    rng: np.random.Generator,
) -> NoisySimulationReport:
    """Simulate e^{-iM t} with every matrix-element read drawn from the
    noisy oracle and pushed through the sign-discretized one-sparse
    decomposition; the averaged channel realizes the average Hamiltonian.

    Returns the Monte Carlo average Q of the segmented truncated-Taylor
    product, the effective Hamiltonian extracted from Q, and the measured
    deviation against the bound scale d (max_norm * delta + eta).

    Each segment matrix A = t_seg M_s is real symmetric, so the truncated
    series is evaluated in real arithmetic:
    sum_{q<=K} (-iA)^q / q! = C - iS with
    C = sum_{q even} (-1)^(q/2) A^q / q! and
    S = sum_{q odd} (-1)^((q-1)/2) A^q / q!,
    and the running product is carried as a real pair Pr + iPi, using
    (C - iS)(Pr + iPi) = (C Pr + S Pi) + i(C Pi - S Pr).  Both sums are
    polynomials in B = A^2: a stack holds the powers I, B, ..., B^(K//2),
    one coefficient product (2, K//2 + 1) @ (K//2 + 1, block dim^2) writes
    C and S / A together, and S = A (S / A).

    All T * r * nnz oracle reads are drawn first, so the generator stream
    does not depend on how the trials are grouped.  The trials then run in
    blocks of max(1, BLOCK_BYTES // (8 dim^2)); every block reuses one
    buffer of K//2 + 9 (block, dim, dim) stacks, and its Pr and Pi are
    summed into Q.  Memory is O(K block dim^2 + T r nnz) rather than
    O(T dim^2).
    """
    if not isinstance(H, SparseHermitian):
        H = SparseHermitian(np.asarray(H))
    layers = _layer_count(H.matrix)
    r = segment_count(H, cfg, layers)
    t_seg = cfg.time / r
    max_norm = H.max_norm
    counter = QueryCounter()
    dim = H.dim

    # sparse entry bookkeeping: positions of upper-triangle + diagonal support
    rows, cols = np.nonzero(np.abs(np.triu(H.matrix)) > SPARSITY_THRESHOLD)
    if len(rows) == 0:
        # no stored entry: e^{-i 0 t} = I exactly, with no oracle read or draw
        return NoisySimulationReport(
            effective_channel=np.eye(dim, dtype=np.complex128),
            effective_hamiltonian=np.zeros((dim, dim), dtype=np.complex128),
            deviation_spectral=linalg.norm(H.matrix, "spectral"),
            bound_scale=0.0,
            achieved_layers=0,
            order=cfg.order,
            segments=0,
            unitarity_drift=0.0,
            queries=counter,
        )
    base_vals = np.real(H.matrix[rows, cols])
    if np.max(np.abs(np.imag(H.matrix[rows, cols]))) > 1e-12:
        raise ValueError("noisy simulation path assumes real symmetric input")

    n_slots = len(rows)
    T = cfg.n_trials
    # one oracle read per entry per segment per trial
    reads = _noisy_entry_samples(base_vals, cfg, max_norm, rng, T * r).reshape(
        T, r, n_slots
    )
    counter.charge("matrix_element_oracle", T * r * n_slots)
    # sign discretization quantizes each read to a multiple of max_norm/m_disc;
    # only the scaled, quantized reads are used from here on
    quant = sign_count_average(reads, max_norm, cfg.m_disc)
    quant *= np.sign(reads, out=reads)
    quant *= max_norm
    quant *= t_seg
    del reads

    # real arithmetic: the segment series is C - iS, the running product
    # Pr + iPi starts from the first segment, (C_0, -S_0).  Trials run in
    # blocks over one buffer of stacks: the powers P[j] = B^j of B = A^2
    # (P[0] = I), the pair CS = (C, S / A) and six more stacks.
    n_powers = cfg.order // 2 + 1
    coef = _series_coefficients(cfg.order)
    # segment 0 writes (C_0, -S_0 / A) so that Pi = -S_0 is one matmul
    coef_first = coef * np.array([[1.0], [-1.0]])
    block = min(T, max(1, BLOCK_BYTES // (8 * dim * dim)))
    buf = np.empty((n_powers + 8) * block * dim * dim)
    Q_re = np.zeros((dim, dim))
    Q_im = np.zeros((dim, dim))
    P = None
    for start in range(0, T, block):
        n = min(block, T - start)
        if P is None or P.shape[1] != n:
            # lay the stacks out for n trials (again for a short last block),
            # so the power stack and the pair CS are contiguous
            stacks = buf[: (n_powers + 8) * n * dim * dim].reshape(-1, n, dim, dim)
            P, CS = stacks[:n_powers], stacks[n_powers : n_powers + 2]
            A, S, *prod = stacks[n_powers + 2 :]
            P[0] = np.eye(dim)
            # A's off-support entries stay 0
            A.fill(0.0)
        Pr, Pi, X, Y = prod
        for s in range(r):
            vals = quant[start : start + n, s, :]
            A[:, rows, cols] = vals
            A[:, cols, rows] = vals
            if n_powers > 1:
                np.matmul(A, A, out=P[1])
            for j in range(2, n_powers):
                np.matmul(P[j - 1], P[1], out=P[j])
            np.matmul(coef_first if s == 0 else coef, P.reshape(n_powers, -1),
                      out=CS.reshape(2, -1))
            C = CS[0]
            if s == 0:
                np.copyto(Pr, C)
                np.matmul(A, CS[1], out=Pi)
                continue
            np.matmul(A, CS[1], out=S)
            # (C - iS)(Pr + iPi) = (C Pr + S Pi) + i(C Pi - S Pr); CS[1] is
            # free once S is built
            Z = CS[1]
            np.matmul(C, Pr, out=X)
            X += np.matmul(S, Pi, out=Z)
            np.matmul(C, Pi, out=Y)
            Y -= np.matmul(S, Pr, out=Z)
            # the old Pr and Pi stacks become scratch
            Pr, Pi, X, Y = X, Y, Pr, Pi
        Q_re += Pr.sum(axis=0)
        Q_im += Pi.sum(axis=0)
    counter.charge("lcu_segment_queries", T * r * cfg.order)
    Q = Q_re / T + 1j * (Q_im / T)

    M_eff = extract_effective_hamiltonian(Q, cfg.time)
    # both differences are Hermitian: their spectral norms are the largest
    # |eigenvalue|
    deviation = _hermitian_norm(H.matrix - M_eff)
    drift = _hermitian_norm(Q.conj().T @ Q - np.eye(dim))
    d = H.sparsity
    return NoisySimulationReport(
        effective_channel=Q,
        effective_hamiltonian=M_eff,
        deviation_spectral=deviation,
        bound_scale=d * (max_norm * cfg.delta + cfg.eta),
        achieved_layers=layers,
        order=cfg.order,
        segments=r,
        unitarity_drift=drift,
        queries=counter,
    )


def _hermitian_norm(X: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, from `eigvalsh`."""
    return float(np.max(np.abs(np.linalg.eigvalsh(X))))


def extract_effective_hamiltonian(Q, t: float) -> np.ndarray:
    """Recover H with Q ~ e^{-iHt}: principal log of the polar-unitary part.

    Requires Q within 0.1 of unitary in spectral norm and eigenphases away
    from the branch cut (|phase| < pi - 0.1); ambiguous phases are an error,
    never silently unwrapped.

    The log goes through the Cayley transform K = i(I - U)(I + U)^{-1}, which
    is Hermitian with eigenvalue tan(phase / 2) on each eigenvector of U, so
    an `eigh` of K gives H = V diag(-2 arctan(lambda) / t) V^dag.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    Q = linalg.as_operator(Q)
    # Q = W diag(sigma) V^dag has polar part U = W V^dag, and
    # ||Q - U|| = max |sigma - 1|, so one SVD serves both
    w, sigma, vh = np.linalg.svd(Q)
    U = w @ vh
    if np.max(np.abs(sigma - 1.0)) > 0.1:
        raise ValueError("operator is too far from unitary to extract a generator")
    eye = np.eye(U.shape[0])
    try:
        # (I - U) and (I + U) commute, so the right inverse is a left solve
        K = 1j * np.linalg.solve(eye + U, eye - U)
        lam, V = np.linalg.eigh((K + K.conj().T) / 2.0)
    except np.linalg.LinAlgError:
        raise ValueError("eigenphase on the branch cut; wrap ambiguous") from None
    if np.any(np.abs(lam) >= math.tan((math.pi - 0.1) / 2.0)):
        raise ValueError("eigenphase too close to the branch cut; wrap ambiguous")
    energies = -2.0 * np.arctan(lam) / t
    H_eff = (V * energies) @ V.conj().T
    return linalg.check_hermitian(H_eff, tol=1e-6)
