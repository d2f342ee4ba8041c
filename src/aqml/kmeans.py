"""Privacy-preserving distributed k-means: GHZ-phase aggregation of
cluster membership and centroid sums, phase-estimation readout with an
explicit rotation budget, and the trace-norm distinguishability analysis
of a single participant.

Participants are one `Participants` value: the (n, d) array `active` of
the participating users' vectors, with entries in [-1, 1].  Users who do
not take part are not passed; N is `ProtocolConfig.n_participants`.  The
rows are stored coordinate-major (Fortran order), so each coordinate is one
contiguous column for the distance sums and the per-cluster reductions.

The round kernels are array work only, and they sum in two fixed orders.
The exact Lloyd reference (`classical_iteration`) adds each cluster's rows
in row order (`np.bincount` with weights).  The protocol round (`run_round`)
sums each cluster's entries of one coordinate column pairwise (numpy's
`sum` of the compressed column).  For d >= 2 the row-order sums are the
bits of `vectors[members].mean(axis=0)`; at d = 1 that mean is pairwise, so
the reference can differ from it in the last bits."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg

AE_CONSTANT = 8.0  # sum |t_q| <= c / epsilon for the readout ladder


@dataclass(frozen=True)
class ProtocolConfig:
    k: int
    d: int
    n_participants: int
    epsilon: float
    rounds: int = 1
    convergence_tol: float | None = None
    privacy_delta: float | None = None  # stop when P_opt - 1/2 would exceed this

    def __post_init__(self):
        if self.k < 1 or self.n_participants < 1 or self.d < 1:
            raise ValueError("k >= 1, N >= 1, d >= 1 required")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("readout precision must lie in (0, 1)")
        if self.rounds < 0:
            raise ValueError("round count must be nonnegative")


@dataclass(frozen=True)
class Participants:
    """The participating users: row j of `active` is participant j's
    vector.  The rows are validated and clipped into one read-only
    Fortran-ordered copy."""

    active: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.active, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("participant array must be 2-D (N, d)")
        if not np.all(np.isfinite(x)):
            raise ValueError("participant vectors must be finite")
        if x.size and np.max(np.abs(x)) > 1.0 + 1e-12:
            raise ValueError("participant coordinates must lie in [-1, 1]")
        # clip the (d, N) transpose into a C-ordered copy and transpose
        # back: each coordinate is a contiguous column
        active = np.clip(x.T, -1.0, 1.0, order="C").T
        active.flags.writeable = False
        object.__setattr__(self, "active", active)

    def __len__(self) -> int:
        return len(self.active)


@dataclass
class RotationBudget:
    q1: int
    q2: int

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("rotation counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.q1 + self.q2

    def check_privacy_precondition(self, n_participants: int) -> None:
        if self.total >= n_participants:
            raise ValueError(
                "privacy analysis requires q1 + q2 < N "
                f"(got {self.total} >= {n_participants})"
            )


def ghz_phase_channel(contributions, t: int = 1) -> float:
    """Readout probability of the phase-aggregation channel: participants
    imprint angles theta_j on the shared GHZ state, the register collapses
    to one qubit, and a Hadamard basis measurement returns
    cos^2(sum theta_j * t / 2)."""
    total = float(np.sum(contributions)) * t
    if abs(total) >= math.pi:
        raise ValueError("accumulated phase would wrap past pi")
    return math.cos(total / 2.0) ** 2


def ghz_phase_statevector(contributions, t: int = 1) -> float:
    """Same channel via explicit 2^N state-vector simulation (cross-check
    oracle, N <= 10): GHZ state, per-qubit Z-rotations, parity collapse,
    Hadamard readout."""
    thetas = np.asarray(contributions, dtype=np.float64) * t
    n = len(thetas)
    if n > 10:
        raise ValueError("state-vector cross-check capped at 10 participants")
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0 / math.sqrt(2.0)
    psi[-1] = 1.0 / math.sqrt(2.0)
    # diag of the product of single-qubit phase rotations diag(1, e^{-i theta_j})
    for j, th in enumerate(thetas):
        bit = (np.arange(2**n) >> (n - 1 - j)) & 1
        psi = psi * np.where(bit == 1, np.exp(-1j * th), 1.0)
    # CNOT cascade maps |0...0> and |1...1> onto a single qubit's |0>, |1>
    amp0, amp1 = psi[0], psi[-1]
    plus = abs(amp0 + amp1) ** 2 / 2.0
    return float(plus)


def _phase_readout(
    true_value: float,
    epsilon: float,
    rng: np.random.Generator,
    lo: float = 0.0,
) -> float:
    """Phase-estimation readout model: the estimate lands within epsilon of
    the true value, uniformly distributed inside the window, clipped to
    [lo, 1]."""
    est = true_value + rng.uniform(-epsilon, epsilon)
    return min(max(est, lo), 1.0)


def rotation_budget(cfg: ProtocolConfig, min_p: float) -> RotationBudget:
    """Per-participant rotation counts for the two readout phases, with
    c = AE_CONSTANT: q1 = c R / eps for the k membership probabilities and
    q2 = c R d / (min_p eps) for the centroid components.  A count that is
    not a finite float, or whose divisor underflows to 0, is a ValueError."""
    if min_p <= cfg.epsilon:
        raise ValueError("minimum cluster probability must exceed epsilon")
    try:
        q1 = math.ceil(AE_CONSTANT * cfg.rounds / cfg.epsilon)
        q2 = math.ceil(AE_CONSTANT * cfg.rounds * cfg.d / (min_p * cfg.epsilon))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            "rotation counts are not finite at this epsilon, rounds and d"
        ) from None
    return RotationBudget(q1=q1, q2=q2)


def planned_budget(cfg: ProtocolConfig) -> RotationBudget:
    """Rotation budget of `cfg.rounds` rounds, planned before any readout:
    every cluster is taken to hold at least max(2 epsilon, 1/k) of the
    participants."""
    return rotation_budget(cfg, max(2 * cfg.epsilon, 1.0 / cfg.k))


def _sq_distances(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, N) squared distances from each centroid to each vector, summed
    over the coordinates in order (for d <= 7 the same bits as numpy's
    pairwise sum over a length-d axis)."""
    out = np.zeros((len(centroids), len(vectors)))
    for q in range(vectors.shape[1]):
        out += (vectors[:, q] - centroids[:, q, None]) ** 2
    return out


def assign_clusters(
    vectors: np.ndarray,
    centroids: np.ndarray,
    rng: np.random.Generator | None = None,
    return_first: bool = False,
):
    """Nearest-centroid assignment; exact distance ties are broken by RNG
    so reruns with the same seed reproduce.  Without `rng` a tied row takes
    its first tied centroid.  With `return_first` the result is the pair
    (assignment, first-tie assignment); the two are one array when no row
    is multiply tied."""
    d2 = _sq_distances(vectors, centroids)
    ties = d2 <= np.min(d2, axis=0) + 1e-15
    # the first tied centroid: writes in descending p leave the lowest one
    # (a row tied to the last centroid alone keeps the initial k - 1)
    first = np.full(len(vectors), len(centroids) - 1, dtype=np.intp)
    for p in range(len(centroids) - 2, -1, -1):
        first[ties[p]] = p
    assign = first
    # a row of finite vectors (all `Participants` rows) ties at least once,
    # so more ties than rows means some row ties more than once
    if rng is not None and np.count_nonzero(ties) > len(vectors):
        assign = first.copy()
        # one draw per multiply-tied row, in row order
        for j in np.flatnonzero(np.count_nonzero(ties, axis=0) > 1):
            tied = np.flatnonzero(ties[:, j])
            assign[j] = tied[rng.integers(0, len(tied))]
    return (assign, first) if return_first else assign


def classical_iteration(
    vectors: np.ndarray, centroids: np.ndarray, assign: np.ndarray | None = None
):
    """One exact Lloyd step: assign to nearest centroid (the first one on an
    exact tie), recompute means from row-order sums.  Empty clusters keep
    their previous centroid.  A caller that already holds that first-tie
    assignment of `vectors` to `centroids` passes it as `assign`."""
    k = len(centroids)
    if assign is None:
        assign = assign_clusters(vectors, centroids)
    counts = np.bincount(assign, minlength=k)
    probs = counts / len(vectors) if len(vectors) else np.zeros(k)
    new = centroids.copy()
    filled = counts > 0
    for q in range(vectors.shape[1]):
        sums = np.bincount(assign, weights=vectors[:, q], minlength=k)
        new[filled, q] = sums[filled] / counts[filled]
    return new, probs, assign


@dataclass
class RoundResult:
    centroids: np.ndarray
    probs: np.ndarray
    budget: RotationBudget
    # first-tie assignment of the participating rows to the round's input
    # centroids: the assignment of the exact Lloyd step from those centroids
    first_assign: np.ndarray


def run_round(
    participants: Participants,
    centroids: np.ndarray,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> RoundResult:
    """One protocol round: membership probabilities P(f = p) and summed
    components are aggregated as collective phases and read out to
    precision epsilon; centroid components are ratio estimates.

    The two readout phases split the precision so the ratio stays within
    epsilon of the exact assignment-then-average step in infinity norm;
    non-participants contribute zero phase and zero rotations.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    k, d = centroids.shape
    if (k, d) != (cfg.k, cfg.d):
        raise ValueError("centroid array shape disagrees with the config")
    N = cfg.n_participants
    vecs = participants.active
    frac = len(vecs) / N
    if len(vecs):
        assign, first = assign_clusters(vecs, centroids, rng, return_first=True)
    else:
        assign = first = np.array([], dtype=np.intp)

    # ratio error budget: |S_hat/P_hat - S/P| <= (e_s + e_p)/P_hat, so a
    # coarse population read picks the scale and the refined population and
    # sum reads are taken at eps * P_hat / 4 each, giving error <= eps/2
    eps_coarse = cfg.epsilon / 4.0

    probs = np.zeros(k)
    sums_est = np.zeros((k, d))
    empty = np.zeros(k, dtype=bool)
    counts = np.bincount(assign, minlength=k)
    for p in range(k):
        # phase 1: each member contributes angle 1/N; the accumulated phase
        # equals the cluster population fraction
        true_p = counts[p] / N
        coarse = _phase_readout(true_p, eps_coarse, rng)
        if coarse <= cfg.epsilon:
            probs[p] = coarse
            empty[p] = True
            continue
        eps_fine = cfg.epsilon * coarse / 4.0
        probs[p] = max(_phase_readout(true_p, eps_fine, rng), eps_fine)
        # phase 2: component sums, angles x_jq / N; each is the pairwise
        # sum of the cluster's entries of one contiguous coordinate column
        members = assign == p
        for q in range(d):
            true_s = vecs[:, q].compress(members).sum() / N
            sums_est[p, q] = _phase_readout(true_s, eps_fine, rng, lo=-1.0)

    new_centroids = centroids.copy()
    kept = ~empty
    new_centroids[kept] = sums_est[kept] / probs[kept, None]
    if empty.any() and len(vecs):
        # empty clusters are reseeded at the participant farthest from every
        # current centroid (public information only)
        dist = np.min(_sq_distances(vecs, centroids), axis=0)
        new_centroids[empty] = vecs[np.argmax(dist)]
    new_centroids = np.clip(new_centroids, -1.0, 1.0)

    min_p = float(np.min(probs[probs > cfg.epsilon])) if len(probs[probs > cfg.epsilon]) else 1.0
    budget = rotation_budget(replace(cfg, rounds=1), max(min_p, cfg.epsilon * 1.0001))
    if np.sum(probs) > frac + k * eps_coarse + 1e-12:
        raise AssertionError("estimated populations exceed the participation fraction")
    return RoundResult(centroids=new_centroids, probs=probs, budget=budget,
                       first_assign=first)


@dataclass
class PrivacyReport:
    p_opt_exact: float
    p_opt_closed_form: float
    bound: float

    def __post_init__(self):
        if not (0.5 - 1e-12 <= self.p_opt_exact <= 1.0 + 1e-12):
            raise ValueError("distinguishing probability must lie in [1/2, 1]")
        if self.p_opt_exact > 0.5 + self.bound + 1e-9:
            raise ValueError("exact optimum exceeds the claimed bound")


def privacy_closed_form(q_total: int, n_participants: int) -> float:
    """Best distinguishing probability against a participant who applies
    q phase rotations of e^{-iZ/2N} each: the extremal input is the equal
    superposition of the largest and smallest collective-phase
    eigenvectors, giving P_opt = 1/2 + |sin(q/2N)| / 2."""
    return 0.5 + 0.5 * abs(math.sin(q_total / (2.0 * n_participants)))


DENSITY_QUBITS_CAP = 12


def privacy_density_matrix(q_total: int, n_participants: int, qubits: int) -> float:
    """Exact optimum by trace distance of the pure states before and after
    the participant's rotations, on an explicit `qubits`-qubit register
    prepared in the extremal superposition.  The rotations act on one qubit,
    so `qubits` = 1 gives the optimum and more qubits add idle space."""
    if qubits > DENSITY_QUBITS_CAP:
        raise ValueError(f"density-matrix check capped at {DENSITY_QUBITS_CAP} qubits")
    dim = 2**qubits
    # the participant's q rotations e^{-iZ/(2N)} act on their own qubit
    # (qubit 0 here); other register qubits are untouched adversary space
    b0 = (np.arange(dim) >> (qubits - 1)) & 1
    phases = np.exp(-1j * q_total * (1 - 2 * b0) / (2.0 * n_participants))
    # extremal probe: equal superposition of the rotation's two eigenstates
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0 / math.sqrt(2.0)
    psi[dim // 2] = 1.0 / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    rho_u = np.outer(phases * psi, (phases * psi).conj())
    return 0.5 + 0.25 * linalg.trace_distance(rho, rho_u)


def privacy_analysis(budget: RotationBudget, n_participants: int) -> PrivacyReport:
    """Closed-form optimum, checked against the explicit state of the
    participant's qubit."""
    budget.check_privacy_precondition(n_participants)
    q = budget.total
    closed = privacy_closed_form(q, n_participants)
    bound = q / (2.0 * n_participants)  # |sin x| <= x envelope
    exact = privacy_density_matrix(q, n_participants, 1)
    if abs(exact - closed) > 1e-9:
        raise AssertionError("density-matrix optimum disagrees with the closed form")
    return PrivacyReport(p_opt_exact=exact, p_opt_closed_form=closed, bound=bound)


@dataclass
class ProtocolResult:
    trajectory: list  # list of centroid arrays per round (including seed)
    budget: RotationBudget
    privacy: PrivacyReport | None
    converged: bool
    privacy_exhausted: bool
    # exact Lloyd centroids aligned with the trajectory: entry r is r Lloyd
    # steps from the seed on the participating rows
    classical_reference: list


def run_protocol(
    participants: Participants,
    cfg: ProtocolConfig,
    init: np.ndarray,
    rng: np.random.Generator,
) -> ProtocolResult:
    """Iterate rounds until centroid movement falls below the convergence
    tolerance or the cumulative rotation budget crosses the privacy
    allowance; returns the full trajectory plus, for each of its entries, the
    exact Lloyd centroids after as many steps on the participating rows (no
    participating rows: the seed throughout)."""
    centroids = np.asarray(init, dtype=np.float64).copy()
    tol = cfg.convergence_tol if cfg.convergence_tol is not None else cfg.epsilon
    trajectory = [centroids.copy()]
    vecs = participants.active
    reference = [centroids.copy()]
    q1 = q2 = 0
    converged = False
    exhausted = False
    # privacy pre-check budget of one round; it does not depend on the round
    probe = planned_budget(replace(cfg, rounds=1))
    for _ in range(cfg.rounds):
        # would this round's budget break the allowance?
        next_total = q1 + q2 + probe.total
        if cfg.privacy_delta is not None:
            if (
                next_total >= cfg.n_participants
                or privacy_closed_form(next_total, cfg.n_participants) - 0.5
                > cfg.privacy_delta
            ):
                exhausted = True
                break
        res = run_round(participants, centroids, cfg, rng)
        q1 += res.budget.q1
        q2 += res.budget.q2
        ref = reference[-1]
        if len(vecs):
            # round 1 starts both from the seed, so the round's first-tie
            # assignment is the Lloyd step's and its distances are not redone
            ref, _, _ = classical_iteration(
                vecs, ref, res.first_assign if len(reference) == 1 else None)
        reference.append(ref)
        move = float(np.max(np.abs(res.centroids - centroids)))
        centroids = res.centroids
        trajectory.append(centroids.copy())
        if move < tol:
            converged = True
            break
    budget = RotationBudget(q1=q1, q2=q2)
    privacy = None
    if budget.total < cfg.n_participants:
        privacy = privacy_analysis(budget, cfg.n_participants)
    return ProtocolResult(
        trajectory=trajectory, budget=budget, privacy=privacy,
        converged=converged, privacy_exhausted=exhausted,
        classical_reference=reference,
    )
