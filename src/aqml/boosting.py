"""Ensemble classification with reflection operators: bootstrap-trained
mean-difference hyperplanes as Hermitian unitaries, eigenspace
classification of C = sum_j b_j C_j by phase estimation, the fragile
expectation-sign baseline, and bounded-fraction adversary experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, statevec

@dataclass(frozen=True)
class EnsembleSpec:
    """Row j of `normals` is the normal w_j of classifier j, whose operator
    is the reflection R_j = 2 w_hat_j w_hat_j^T - I; `weights` holds b_j."""

    normals: np.ndarray  # (n, m), every row nonzero
    weights: np.ndarray  # (n,)
    gap_gamma: float = 0.0  # claimed |eigenvalue| >= gamma/2 on the support

    def __post_init__(self):
        W = np.asarray(self.normals, dtype=np.float64)
        b = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2 or b.shape != (len(W),):
            raise ValueError("normals must be (n, m) with one weight per row")
        if np.any(np.linalg.norm(W, axis=1) < 1e-12):
            raise ValueError("classifier normal vectors must be nonzero")
        if np.any(b < 0) or abs(np.sum(b) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.count_nonzero(b > 0) < 2:
            raise ValueError("an ensemble needs at least two positively weighted classifiers")
        object.__setattr__(self, "normals", W)
        object.__setattr__(self, "weights", b)


def _reflection_sum(normals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j b_j R_j = 2 W_hat^T diag(b) W_hat - (sum_j b_j) I over the rows
    of `normals`; no rows give the zero matrix."""
    # each row norm is one dot product, as np.linalg.norm takes it for a vector
    W_hat = normals / np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
    S = 2.0 * (W_hat.T * weights) @ W_hat
    S[np.diag_indices_from(S)] -= np.sum(weights)
    return S


def classifier_operator(w: np.ndarray) -> np.ndarray:
    """Reflection R = 2 w_hat w_hat^T - I: +1 eigenvector along the normal
    (positive class), -1 on the orthogonal complement."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or np.linalg.norm(w) < 1e-12:
        raise ValueError("classifier normal vector must be a nonzero 1-D array")
    return _reflection_sum(w[None, :], np.ones(1))


def ensemble_operator(spec: EnsembleSpec) -> np.ndarray:
    C = _reflection_sum(spec.normals, spec.weights)
    if linalg.norm(C, "spectral") > 1.0 + 1e-10:
        raise AssertionError("convex combination of reflections exceeded unit norm")
    return C


# bootstrap resamples fitted per batch: about 2^20 gathered feature values
_BOOTSTRAP_BATCH_VALUES = 2**20


def train_bootstrap_ensemble(
    vectors: np.ndarray,
    labels: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> EnsembleSpec:
    """Bootstrap-resample the labeled data `count` times and fit one
    mean-difference hyperplane (normal mu+ - mu-, midpoint offset folded
    into the lifted coordinate) per resample; uniform ensemble weights.
    A resample that comes out single-class is drawn again.

    Resamples are drawn as rows of (rows, n) `integers` calls, never more
    rows than two-class resamples are still missing; the generator's
    stream is continuous across calls, so this draws the numbers, and
    leaves the generator in the state, of one size-n call per resample and
    redraw.
    """
    X = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or len(y) != len(X):
        raise ValueError("vectors must be (n, d) with one label per row")
    if len(np.unique(y)) != 2:
        raise ValueError("two-class data required")
    n, dim = X.shape
    plus = y == np.max(y)
    # the rows of each class, with the other class's rows zeroed
    X_split = np.hstack([np.where(plus[:, None], X, 0.0),
                         np.where(plus[:, None], 0.0, X)])
    batch = max(1, _BOOTSTRAP_BATCH_VALUES // (n * 2 * max(1, dim)))
    normals = np.empty((count, dim + 1))
    done = 0
    while done < count:
        idx = rng.integers(0, n, size=(min(count - done, batch), n))
        n_plus = np.count_nonzero(plus[idx], axis=1)
        # drop single-class resamples; with both classes in the data the
        # redraws end with probability 1
        two_class = (n_plus > 0) & (n_plus < n)
        idx, n_plus = idx[two_class], n_plus[two_class]
        # a sum over the leading axis adds the resample's rows in order, as
        # the mean of one class's rows does; the zeroed rows add nothing
        sums = X_split[idx.T].sum(axis=0)
        mu_plus = sums[:, :dim] / n_plus[:, None]
        mu_minus = sums[:, dim:] / (n - n_plus)[:, None]
        w = mu_plus - mu_minus
        # lift by one affine coordinate so the midpoint offset is part of w
        rows = slice(done, done + len(idx))
        normals[rows, :-1] = w
        # one dot product per row, as w @ (mu_plus + mu_minus) takes it
        mid = (w[:, None, :] @ (mu_plus + mu_minus)[:, :, None])[:, 0, 0]
        normals[rows, -1] = -mid / 2.0
        done += len(idx)
    weights = np.full(count, 1.0 / count)
    if count < 2:
        # degenerate single-member ensemble: duplicate so invariants hold
        normals = np.vstack([normals, normals])
        weights = np.array([0.5, 0.5])
    spec = EnsembleSpec(normals, weights)
    vals = np.abs(linalg.eig_hermitian(ensemble_operator(spec)).eigenvalues)
    return replace(spec, gap_gamma=float(2.0 * np.min(vals)))


@dataclass
class ClassificationResult:
    label: int  # +1 or -1
    confidence: float  # |mass_plus - 1/2|
    mass_plus: float
    unresolved: bool = False


def classify_by_eigenspace(
    psi: np.ndarray,
    C: np.ndarray | linalg.EigenDecomposition,
    bits: int = 10,
) -> ClassificationResult:
    """Phase-estimate e^{-iC} on psi for an ensemble operator C (clean,
    `ensemble_operator(spec)`, or attacked, `AttackReport.operator`) and
    aggregate sample mass on positive vs negative eigenphase bands; the
    class is the sign of mass_plus - 1/2 with exact ties resolved to +1.
    C may also be given as its eigendecomposition
    (`linalg.eig_hermitian(C)` or `AttackReport.decomposition`), which the
    phase estimation reads; an operator is decomposed here.  The masses are
    read from the exact phase-estimation distribution.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("input state must be unit norm")
    dec = C if isinstance(C, linalg.EigenDecomposition) else linalg.eig_hermitian(C)

    # eigenvalue E of C maps to phase (-E/2pi) mod 1: positive band is the
    # upper half of the phase circle (phase in (1/2, 1)), negative the lower
    overlaps = np.abs(dec.eigenvectors.conj().T @ psi) ** 2
    dist = statevec.phase_estimate_distribution(dec.eigenvalues, overlaps, bits)
    n_grid = len(dist)
    phases = np.arange(n_grid) / n_grid
    mass_plus = float(np.sum(dist[phases > 0.5]))
    mass_zero = float(dist[0])
    # eigenvalue mass sitting at phase 0 (E = 0) cannot be assigned a band
    unresolved = mass_zero > 2.0 ** (-bits)
    mass_plus_eff = mass_plus + mass_zero / 2.0
    label = 1 if mass_plus_eff >= 0.5 else -1
    return ClassificationResult(
        label=label,
        confidence=abs(mass_plus_eff - 0.5),
        mass_plus=mass_plus_eff,
        unresolved=unresolved,
    )


def classify_by_mean(psi: np.ndarray, C: np.ndarray) -> ClassificationResult:
    """Sign of the exact expectation <psi|C|psi> for an ensemble operator C;
    kept as the baseline a single compromised classifier can flip."""
    psi = np.asarray(psi, dtype=np.complex128)
    expect = float(np.real(psi.conj() @ C @ psi))
    label = 1 if expect > 0 or abs(expect) < 1e-15 else -1
    return ClassificationResult(
        label=label, confidence=abs(expect), mass_plus=(1 + expect) / 2
    )


@dataclass(frozen=True)
class AttackSpec:
    """Flip attack on at most an alpha fraction of ensemble weight: the
    chosen classifiers are negated, heaviest first, or in `target_indices`
    order when given."""

    alpha: float
    target_indices: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("attack fraction must satisfy 0 <= alpha < 1")


@dataclass
class AttackReport:
    operator: np.ndarray
    decomposition: linalg.EigenDecomposition  # of `operator`
    norm_shift: float
    eig_shift_max: float
    alpha_used: float


def _flip_set(weights: np.ndarray, alpha: float, targets: tuple = ()) -> tuple:
    """Mask of the classifiers the flip attack negates, and their weight.

    Walking the classifiers heaviest first, or in `targets` order, one is
    negated when its weight is positive, it is not negated yet and it still
    fits, used + b <= alpha + 1e-12, with `used` summed in walking order.
    `used` only grows, so a repeated target never fits where its first
    occurrence did not: targets count by first occurrence.  The walk takes
    each maximal run that fits with one accumulate seeded with `used`, and
    stops once the lightest weight left no longer fits.
    """
    if targets:
        idx = np.arange(len(weights))[list(targets)]
        idx = idx[np.sort(np.unique(idx, return_index=True)[1])]
    else:
        idx = np.argsort(-weights)
    b = weights[idx]
    positive = b > 0
    idx, b = idx[positive], b[positive]
    lightest = np.minimum.accumulate(b[::-1])[::-1]  # min of b[i:]
    limit = alpha + 1e-12
    flipped = np.zeros(len(weights), dtype=bool)
    used = 0.0
    i = 0
    while i < len(b) and used + lightest[i] <= limit:
        if used + b[i] > limit:  # skip to the next one that fits
            i += int(np.argmax(used + b[i:] <= limit))
        # running sums of positive weights never fall, so the run is every
        # sum within the limit
        sums = np.add.accumulate(np.concatenate(([used], b[i:])))
        run = int(np.count_nonzero(sums[1:] <= limit))
        flipped[idx[i : i + run]] = True
        used = float(sums[run])
        i += run + 1
    return flipped, used


def attack_ensemble(
    spec: EnsembleSpec,
    attack: AttackSpec,
    C: np.ndarray | None = None,
    eigenvalues: np.ndarray | None = None,
) -> AttackReport:
    """Negate the classifiers of a set F holding at most alpha weight mass,
    C' = C - 2 sum_{j in F} b_j R_j, and report the operator, its
    eigendecomposition and the operator and eigenvalue shifts, asserting
    both stay within 2 alpha.

    C = ensemble_operator(spec) and its ascending eigenvalues are built
    here unless the caller passes them, as a caller attacking one ensemble
    at several alphas does.
    """
    if C is None:
        C = ensemble_operator(spec)
    if eigenvalues is None:
        eigenvalues = linalg.eig_hermitian(C).eigenvalues
    flipped, used = _flip_set(spec.weights, attack.alpha, attack.target_indices)
    Cp = C - 2.0 * _reflection_sum(spec.normals[flipped], spec.weights[flipped])
    norm_shift = linalg.norm(Cp - C, "spectral")
    if norm_shift > 2 * used + 1e-10:
        raise AssertionError("operator shift exceeded 2 alpha")
    dec = linalg.eig_hermitian(Cp)
    eig_shift = float(np.max(np.abs(eigenvalues - dec.eigenvalues)))
    if eig_shift > 2 * used + 1e-10:
        raise AssertionError("eigenvalue shift exceeded 2 alpha")
    return AttackReport(
        operator=Cp, decomposition=dec, norm_shift=norm_shift,
        eig_shift_max=eig_shift, alpha_used=used,
    )


def mean_attack_construction(n_classifiers: int) -> dict:
    """The constructive fragility instance: N classifiers whose
    expectations on psi are small (|<psi|C_j|psi>| <= 1/(2N)) so one flipped
    classifier with expectation -1 forces sign(<psi|C|psi>) negative."""
    if n_classifiers < 2:
        raise ValueError("need at least two classifiers")
    N = n_classifiers
    dim = 4  # ambient dimension of the instance
    psi = np.zeros(dim)
    psi[0] = 1.0
    # expectation of the reflection 2 w w^T - I on e1 is 2 w1^2 - 1; choose
    # w1 so the expectation is +1/(2N) for the honest members
    target = 1.0 / (2.0 * N)
    w1 = math.sqrt((1.0 + target) / 2.0)
    honest = np.zeros(dim)
    honest[0] = w1
    honest[1] = math.sqrt(1.0 - w1**2)
    spec = EnsembleSpec(np.tile(honest, (N, 1)), np.full(N, 1.0 / N))
    # adversary flips classifier 0 so its expectation on psi becomes -1
    attacked = spec.normals.copy()
    attacked[0] = 0.0
    attacked[0, 1] = 1.0  # normal orthogonal to psi: expectation exactly -1
    C_attacked = _reflection_sum(attacked, spec.weights)
    return {
        "spec": spec,
        "psi": psi,
        "attacked_operator": C_attacked,
        "honest_expectation": target,
        "clean_class": classify_by_mean(psi, ensemble_operator(spec)).label,
        "attacked_expectation": float(np.real(psi @ C_attacked @ psi)),
    }
