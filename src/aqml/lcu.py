"""Truncated-Taylor simulation of e^{-iM} for sparse Hermitian M whose
entries arrive through noisy probabilistic oracles: one-sparse decomposition
by greedy edge coloring, sign discretization, segmented evolution, and
recovery of the effective (average) Hamiltonian.  M is a plain array,
checked once by `linalg.check_hermitian` where it enters
(`one_sparse_decompose`, `simulate_noisy`, `taylor_segment`)."""

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

# simulate_noisy draws all T * r * nnz oracle reads before the first trial and
# refuses a run that needs more: at the cap the reads and their quantized copy
# are float64 arrays of 512 MiB each
MAX_ORACLE_READS = 2**26


def _support(A: np.ndarray) -> tuple:
    """Positions (rows[k], cols[k]) of the stored upper-triangle entries of
    A, diagonal included, in row-major order."""
    return np.nonzero(np.abs(np.triu(A)) > SPARSITY_THRESHOLD)


def _greedy_edge_coloring(rows, cols, dim: int) -> np.ndarray:
    """Layer of each stored entry (rows[k], cols[k]): 0 on the diagonal, and
    off it the greedy color of the edge, the smallest color >= 1 free at
    both endpoints (at most 2d-1 colors for max off-diagonal degree d)."""
    colors = np.zeros(len(rows), dtype=np.int64)
    used_at = [set() for _ in range(dim)]
    for k, (p, q) in enumerate(zip(rows.tolist(), cols.tolist())):
        if p == q:
            continue
        c = 1
        while c in used_at[p] or c in used_at[q]:
            c += 1
        colors[k] = c
        used_at[p].add(c)
        used_at[q].add(c)
    return colors


def one_sparse_decompose(H) -> list:
    """Split a sparse Hermitian matrix into one-sparse Hermitian layers,
    returned as a list of (dim, dim) arrays that sum to the matrix with
    every entry at or below SPARSITY_THRESHOLD zeroed.

    The stored diagonal gets a dedicated term, first; the off-diagonal
    support graph is edge-colored greedily (at most 2d-1 colors for max
    off-diagonal degree d), each color class being a matching and hence
    one-sparse.
    """
    A = linalg.check_hermitian(H)
    rows, cols = _support(A)
    colors = _greedy_edge_coloring(rows, cols, A.shape[0])
    terms = []
    for c in np.unique(colors):
        p, q = rows[colors == c], cols[colors == c]
        term = np.zeros_like(A)
        term[p, q] = A[p, q]
        term[q, p] = A[q, p]
        terms.append(term)
    # one-sparse guarantee: every term has at most one nonzero per row
    for term in terms:
        if row_sparsity(term) > 1:
            raise AssertionError("edge coloring produced a non-matching layer")
    return terms


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
        if not (0.0 <= self.delta < 1.0 and 0.0 <= self.eta < math.inf):
            raise ValueError("invalid oracle noise parameters")
        if self.time == 0.0 or not math.isfinite(self.time):
            raise ValueError("time must be nonzero and finite")
        if self.delta > 0.0 and self.delta > DELTA_MDISC_CONSTANT / self.m_disc:
            raise ValueError("delta must satisfy delta <= %g / m_disc" % DELTA_MDISC_CONSTANT)


def segment_count(max_norm: float, cfg: TaylorConfig, n_layers: int) -> int:
    """Segments r that keep each segment's norm budget within ln 2, for a
    matrix whose largest entry magnitude is max_norm."""
    budget = abs(cfg.time) * max_norm * max(1, n_layers)
    if not math.isfinite(budget):
        raise ValueError("segment budget time * max_norm * layers is not finite")
    return max(1, int(math.ceil(budget / math.log(2.0))))


def taylor_segment(H, t: float, K: int):
    """Truncated series S = sum_{q<=K} (-iHt)^q / q! and the worst-case
    success amplitude min_psi ||S psi||.

    The segment must satisfy ||H|| |t| <= ln 2; the analytic remainder bound
    (||H|| t)^(K+1)/(K+1)! e^(||H|| t) applies to ||S - e^{-iHt}||.
    """
    H = linalg.check_hermitian(H)
    hnorm = linalg.norm(H)
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
    # rng.uniform(-1.0, 1.0) computes -1 + 2u from the same draws; 2u is
    # exact, so these are its values bit for bit
    out = rng.random((size, len(vals)))
    out *= 2.0
    out -= 1.0
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
    H,
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
    does not depend on how the trials are grouped; a run needing more than
    MAX_ORACLE_READS of them is refused before any draw.  The trials then
    run in blocks of max(1, BLOCK_BYTES // (8 dim^2)); every block reuses
    one buffer of K//2 + 9 (block, dim, dim) stacks.  A block's last
    segment is not multiplied into Pr and Pi: it is added to Q directly,
    Q_re += sum_t (C_t Pr_t + S_t Pi_t) and Q_im += sum_t (C_t Pi_t - S_t
    Pr_t), each sum one 2-D GEMM of the horizontal stack [C_1 ... C_n]
    (or [S_1 ... S_n]) times the vertical stack of the Pr_t (or Pi_t); at
    r = 1, Q gets the block sums of C_0 and -S_0.  Memory is
    O(K block dim^2 + T r nnz): no stack of T (dim, dim) products is held.

    A trial whose every read quantizes to the noiseless value repeats the
    noiseless product bit for bit.  At eta = 0 that is every trial with no
    failed read, a fraction (1 - delta)^(r nnz) of them.  When any trial is
    clean, the blocks run the other trials and one clean trial, whose sums
    enter Q weighted by the clean count; Q changes only in summation order.
    The draws and the charges (T r nnz oracle reads, T r K segment queries)
    stay those of every trial.  With no clean trial the blocks run every
    trial.  At dim 16, d 3, K 6 and eta 0 (2-vCPU Xeon) a run takes 3.6 ms
    in place of 18.8 ms at delta 1e-4 and T 1600, 1.6 in place of 5.0 at
    delta 1e-3 and T 400, and 3.4 in place of 5.0 at delta 1e-2.

    One SVD Q = W diag(sigma) V^dag gives the polar unitary W V^dag that
    the effective Hamiltonian is extracted from, its distance max|sigma - 1|
    to Q, and the unitarity drift ||Q^dag Q - I|| = max|sigma^2 - 1|.
    """
    H = linalg.check_hermitian(H)
    dim = H.shape[0]
    # one pass over the stored entries gives the read positions and the layers
    rows, cols = _support(H)
    layers = len(np.unique(_greedy_edge_coloring(rows, cols, dim)))
    max_norm = float(np.max(np.abs(H)))
    r = segment_count(max_norm, cfg, layers)
    t_seg = cfg.time / r
    counter = QueryCounter()
    if len(rows) == 0:
        # no stored entry: e^{-i 0 t} = I exactly, with no oracle read or draw
        return NoisySimulationReport(
            effective_channel=np.eye(dim, dtype=np.complex128),
            effective_hamiltonian=np.zeros((dim, dim), dtype=np.complex128),
            deviation_spectral=linalg.norm(H),
            bound_scale=0.0,
            achieved_layers=0,
            order=cfg.order,
            segments=0,
            unitarity_drift=0.0,
            queries=counter,
        )
    base_vals = np.real(H[rows, cols])
    if np.max(np.abs(np.imag(H[rows, cols]))) > 1e-12:
        raise ValueError("noisy simulation path assumes real symmetric input")

    n_slots = len(rows)
    T = cfg.n_trials
    if T * r * n_slots > MAX_ORACLE_READS:
        raise ValueError(
            "%d trials x %d segments x %d entries exceed %d oracle reads"
            % (T, r, n_slots, MAX_ORACLE_READS)
        )
    # one oracle read per entry per segment per trial
    reads = _noisy_entry_samples(base_vals, cfg, max_norm, rng, T * r).reshape(
        T, r, n_slots
    )
    counter.charge("matrix_element_oracle", T * r * n_slots)
    # sign discretization quantizes each read to a multiple of max_norm/m_disc;
    # only the scaled, quantized reads are used from here on
    quant = _scaled_quantized(reads, max_norm, cfg.m_disc, t_seg)
    del reads
    # a clean trial, one whose every read quantizes to the noiseless value,
    # has the noiseless product bit for bit: the clean trials share one run
    exact = _scaled_quantized(base_vals.copy(), max_norm, cfg.m_disc, t_seg)
    clean = (quant == exact).all(axis=(1, 2))
    n_clean = int(np.count_nonzero(clean))
    Q_re, Q_im = _trial_sums(quant[~clean] if n_clean else quant, rows, cols, dim,
                             cfg.order)
    if n_clean:
        shared_re, shared_im = _trial_sums(quant[clean.argmax(), None], rows, cols,
                                           dim, cfg.order)
        Q_re += n_clean * shared_re
        Q_im += n_clean * shared_im
    counter.charge("lcu_segment_queries", T * r * cfg.order)
    Q = Q_re / T + 1j * (Q_im / T)

    w, sigma, vh = np.linalg.svd(Q)
    M_eff = _generator_of_polar(w, sigma, vh, cfg.time)
    # H - M_eff is Hermitian: its spectral norm is the largest |eigenvalue|
    deviation = float(np.max(np.abs(np.linalg.eigvalsh(H - M_eff))))
    drift = float(np.max(np.abs(sigma * sigma - 1.0)))
    d = row_sparsity(H)
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


def _scaled_quantized(reads: np.ndarray, max_norm: float, m_disc: int,
                      t_seg: float) -> np.ndarray:
    """t_seg times the sign-discretized value of each read, a multiple of
    t_seg max_norm / m_disc; reads is overwritten with its signs."""
    quant = sign_count_average(reads, max_norm, m_disc)
    quant *= np.sign(reads, out=reads)
    quant *= max_norm
    quant *= t_seg
    return quant


def _trial_sums(quant: np.ndarray, rows, cols, dim: int, order: int) -> tuple:
    """(sum_t Re P_t, sum_t Im P_t) of the segmented order-K products P_t
    of the trials whose scaled, quantized reads are quant (trials, r, nnz),
    entry k of each segment sitting at (rows[k], cols[k]) and its mirror;
    zeros for no trials.  The blocked real loop of `simulate_noisy`.

    The step stays four batched products and two adds, 52 us per 64-trial
    block at dim 16 (2-vCPU Xeon), against 66 for one complex product, 29 +
    60 to fill for a 32 x 32 real block form, 96 for a row-stacked [C; S],
    123 for a column-stacked [Pr | Pi]; B = A A^T via syrk takes 39 us,
    A @ A 16."""
    # real arithmetic: the segment series is C - iS, the running product
    # Pr + iPi starts from the first segment, (C_0, -S_0).  Trials run in
    # blocks over one buffer of stacks: the powers P[j] = B^j of B = A^2
    # (P[0] = I), the pair CS = (C, S / A) and six more stacks.
    T, r, _ = quant.shape
    n_powers = order // 2 + 1
    coef = _series_coefficients(order)
    # segment 0 writes (C_0, -S_0 / A) so that Pi = -S_0 is one matmul
    coef_first = coef * np.array([[1.0], [-1.0]])
    # at least 1, so that no trials give zero sums
    block = max(1, min(T, BLOCK_BYTES // (8 * dim * dim)))
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
            # A's off-support entries stay 0; its stored entries and their
            # mirrors are written through flat positions, which index
            # faster than the (trial, row, col) triples
            A.fill(0.0)
            A_flat = A.reshape(-1)
            trial_base = np.arange(n)[:, None] * (dim * dim)
            upper = (trial_base + rows * dim + cols).ravel()
            lower = (trial_base + cols * dim + rows).ravel()
        Pr, Pi, X, Y = prod
        for s in range(r):
            vals = quant[start : start + n, s, :].ravel()
            A_flat[upper] = vals
            A_flat[lower] = vals
            if n_powers > 1:
                np.matmul(A, A, out=P[1])
            for j in range(2, n_powers):
                np.matmul(P[j - 1], P[1], out=P[j])
            np.matmul(coef_first if s == 0 else coef, P.reshape(n_powers, -1),
                      out=CS.reshape(2, -1))
            C = CS[0]
            if s == 0:
                np.matmul(A, CS[1], out=Pi)
                if r == 1:
                    # the product is the one segment, C_0 - iS_0
                    Q_re += C.sum(axis=0)
                    Q_im += Pi.sum(axis=0)
                else:
                    np.copyto(Pr, C)
                continue
            np.matmul(A, CS[1], out=S)
            if s == r - 1:
                # the last segment goes straight into Q: sum_t C_t Pr_t is
                # the horizontal stack [C_1 ... C_n] times the vertical stack
                # of the Pr_t, one 2-D GEMM.  C_t and S_t are symmetric
                # (polynomials in A_t, up to the rounding of S = A (S / A)),
                # so the transposed vertical stack is the horizontal one
                Ch, Sh = C.reshape(-1, dim).T, S.reshape(-1, dim).T
                Pr_v, Pi_v = Pr.reshape(-1, dim), Pi.reshape(-1, dim)
                Q_re += Ch @ Pr_v
                Q_re += Sh @ Pi_v
                Q_im += Ch @ Pi_v
                Q_im -= Sh @ Pr_v
                break
            # (C - iS)(Pr + iPi) = (C Pr + S Pi) + i(C Pi - S Pr); CS[1] is
            # free once S is built
            Z = CS[1]
            np.matmul(C, Pr, out=X)
            X += np.matmul(S, Pi, out=Z)
            np.matmul(C, Pi, out=Y)
            Y -= np.matmul(S, Pr, out=Z)
            # the old Pr and Pi stacks become scratch
            Pr, Pi, X, Y = X, Y, Pr, Pi
    return Q_re, Q_im


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
    return _generator_of_polar(*np.linalg.svd(Q), t)


def _generator_of_polar(w, sigma, vh, t: float) -> np.ndarray:
    """`extract_effective_hamiltonian` from the SVD Q = w diag(sigma) vh."""
    # Q has polar part U = w vh, and ||Q - U|| = max |sigma - 1|
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
