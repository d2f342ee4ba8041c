"""Ensemble classification with reflection operators: bootstrap-trained
mean-difference hyperplanes as Hermitian unitaries, eigenspace
classification of C = sum_j b_j C_j by phase estimation, the fragile
expectation-sign baseline, and bounded-fraction adversary experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, statevec

# fresh draws allowed per bootstrap resample that comes out single-class
MAX_REDRAWS = 10


@dataclass(frozen=True)
class WeakClassifier:
    """A linear model whose induced operator is the reflection about its
    normal vector: eigenvalue +1 along w, -1 on the complement."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if np.linalg.norm(w) < 1e-12:
            raise ValueError("classifier normal vector must be nonzero")
        object.__setattr__(self, "w", w)


def classifier_operator(c: WeakClassifier, ambient_dim: int | None = None) -> np.ndarray:
    """Reflection R = 2 w_hat w_hat^T - I: +1 eigenvector along the normal
    (positive class), -1 on the orthogonal complement."""
    w = c.w
    if ambient_dim is not None:
        if len(w) > ambient_dim:
            raise ValueError("normal vector does not embed in the ambient dimension")
        w = np.concatenate([w, np.zeros(ambient_dim - len(w))])
    w_hat = w / np.linalg.norm(w)
    return 2.0 * np.outer(w_hat, w_hat) - np.eye(len(w))


@dataclass
class EnsembleSpec:
    classifiers: list  # of WeakClassifier
    weights: np.ndarray
    gap_gamma: float = 0.0  # claimed |eigenvalue| >= gamma/2 on the support
    resample_indices: tuple = ()  # per-classifier bootstrap row indices, if trained

    def __post_init__(self):
        b = np.asarray(self.weights, dtype=np.float64)
        if np.any(b < 0) or abs(np.sum(b) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.count_nonzero(b > 0) < 2:
            raise ValueError("an ensemble needs at least two positively weighted classifiers")
        object.__setattr__(self, "weights", b)

    @property
    def ambient_dim(self) -> int:
        return max(len(c.w) for c in self.classifiers)


def ensemble_operator(spec: EnsembleSpec) -> np.ndarray:
    dim = spec.ambient_dim
    C = np.zeros((dim, dim))
    for b, c in zip(spec.weights, spec.classifiers):
        C += b * classifier_operator(c, dim)
    if linalg.norm(C, "spectral") > 1.0 + 1e-10:
        raise AssertionError("convex combination of reflections exceeded unit norm")
    return C


def train_bootstrap_ensemble(
    vectors: np.ndarray,
    labels: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> EnsembleSpec:
    """Bootstrap-resample the labeled data `count` times and fit one
    mean-difference hyperplane (normal mu+ - mu-, midpoint offset folded
    into the lifted coordinate) per resample; uniform ensemble weights."""
    X = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or len(y) != len(X):
        raise ValueError("vectors must be (n, d) with one label per row")
    if len(np.unique(y)) != 2:
        raise ValueError("two-class data required")
    n = len(X)
    classifiers = []
    resamples = []
    for _ in range(count):
        for attempt in range(MAX_REDRAWS + 1):
            idx = rng.integers(0, n, size=n)
            ys = y[idx]
            if len(np.unique(ys)) == 2:
                break
        else:
            raise RuntimeError("bootstrap resample was single-class after max redraws")
        Xs = X[idx]
        mu_plus = Xs[ys == np.max(ys)].mean(axis=0)
        mu_minus = Xs[ys == np.min(ys)].mean(axis=0)
        w = mu_plus - mu_minus
        # lift by one affine coordinate so the midpoint offset is part of w
        offset = -float(w @ (mu_plus + mu_minus)) / 2.0
        classifiers.append(WeakClassifier(np.concatenate([w, [offset]])))
        resamples.append(idx.copy())
    weights = np.full(count, 1.0 / count)
    if count < 2:
        # degenerate single-member ensemble: duplicate so invariants hold
        classifiers = classifiers * 2
        resamples = resamples * 2
        weights = np.array([0.5, 0.5])
    spec = EnsembleSpec(
        classifiers=classifiers, weights=weights, resample_indices=tuple(resamples)
    )
    C = ensemble_operator(spec)
    vals = np.abs(linalg.eig_hermitian(C).eigenvalues)
    object.__setattr__(spec, "gap_gamma", float(2.0 * np.min(vals)))
    return spec


@dataclass
class ClassificationResult:
    label: int  # +1 or -1
    confidence: float  # |mass_plus - 1/2|
    mass_plus: float
    tie: bool = False
    unresolved: bool = False


def classify_by_eigenspace(
    psi: np.ndarray,
    C: np.ndarray,
    bits: int = 10,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> ClassificationResult:
    """Phase-estimate e^{-iC} on psi for an ensemble operator C (clean,
    `ensemble_operator(spec)`, or attacked, `AttackReport.operator`) and
    aggregate sample mass on positive vs negative eigenphase bands; the
    class is the sign of mass_plus - 1/2 with exact ties resolved to +1 and
    flagged.

    shots = None uses the exact phase-estimation distribution (one coherent
    pass); integer shots draw multinomial samples for re-preparable states.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("input state must be unit norm")
    U = np.array(linalg.operator_exp(C, 1.0))

    # eigenvalue E of C maps to phase (-E/2pi) mod 1: positive band is the
    # upper half of the phase circle (phase in (1/2, 1)), negative the lower
    dist = statevec.phase_estimate_distribution(U, psi, bits)
    n_grid = len(dist)
    phases = np.arange(n_grid) / n_grid
    if shots is not None:
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        counts = rng.multinomial(shots, dist)
        weights = counts / shots
    else:
        weights = dist
    mass_plus = float(np.sum(weights[phases > 0.5]))
    mass_zero = float(weights[0])
    # eigenvalue mass sitting at phase 0 (E = 0) cannot be assigned a band
    unresolved = mass_zero > 2.0 ** (-bits)
    mass_plus_eff = mass_plus + mass_zero / 2.0
    tie = abs(mass_plus_eff - 0.5) < 1e-12
    label = 1 if mass_plus_eff >= 0.5 else -1
    return ClassificationResult(
        label=label,
        confidence=abs(mass_plus_eff - 0.5),
        mass_plus=mass_plus_eff,
        tie=tie,
        unresolved=unresolved,
    )


def classify_by_mean(psi: np.ndarray, spec: EnsembleSpec) -> ClassificationResult:
    """Sign of the exact expectation <psi|C|psi>; kept as the baseline a
    single compromised classifier can flip."""
    psi = np.asarray(psi, dtype=np.complex128)
    C = ensemble_operator(spec)
    expect = float(np.real(psi.conj() @ C @ psi))
    tie = abs(expect) < 1e-15
    label = 1 if expect > 0 or tie else -1
    return ClassificationResult(
        label=label, confidence=abs(expect), mass_plus=(1 + expect) / 2, tie=tie
    )


@dataclass(frozen=True)
class AttackSpec:
    """Replacement attack on at most an alpha fraction of ensemble weight."""

    alpha: float
    # 'flip-worst' and 'replace-target' both negate the chosen classifiers
    # (heaviest first, or `target_indices` in order when given); 'custom'
    # substitutes the `replacements` operators instead
    strategy: str = "flip-worst"
    target_indices: tuple = ()
    replacements: tuple = ()  # operators for 'custom'

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("attack fraction must satisfy 0 <= alpha < 1")
        if self.strategy not in ("flip-worst", "replace-target", "custom"):
            raise ValueError(f"unknown attack strategy {self.strategy!r}")


@dataclass
class AttackReport:
    spec: EnsembleSpec
    operator: np.ndarray
    norm_shift: float
    eig_shift_max: float
    alpha_used: float


def attack_ensemble(spec: EnsembleSpec, attack: AttackSpec) -> AttackReport:
    """Replace up to alpha weight mass of classifiers with adversarial
    Hermitian unitaries and report the operator and eigenvalue shifts,
    asserting both stay within 2 alpha."""
    dim = spec.ambient_dim
    C = ensemble_operator(spec)
    ops = [classifier_operator(c, dim) for c in spec.classifiers]
    order = np.argsort(-spec.weights) if not attack.target_indices else list(
        attack.target_indices
    )
    budget = attack.alpha
    used = 0.0
    new_ops = list(ops)
    custom = iter(attack.replacements)
    for j in order:
        b = float(spec.weights[j])
        if b <= 0 or used + b > budget + 1e-12:
            continue
        if attack.strategy == "custom":
            try:
                R = np.asarray(next(custom), dtype=np.float64)
            except StopIteration:
                break
            if (
                linalg.norm(R - R.T, "spectral") > 1e-10
                or linalg.norm(R @ R - np.eye(dim), "spectral") > 1e-10
            ):
                raise ValueError("replacement operator must be Hermitian and unitary")
            new_ops[j] = R
        else:
            new_ops[j] = -ops[j]
        used += b
    Cp = sum(b * op for b, op in zip(spec.weights, new_ops))
    norm_shift = linalg.norm(Cp - C, "spectral")
    if norm_shift > 2 * used + 1e-10:
        raise AssertionError("operator shift exceeded 2 alpha")
    e = linalg.eig_hermitian(C).eigenvalues
    ep = linalg.eig_hermitian(Cp).eigenvalues
    eig_shift = float(np.max(np.abs(e - ep)))
    if eig_shift > 2 * used + 1e-10:
        raise AssertionError("eigenvalue shift exceeded 2 alpha")
    return AttackReport(
        spec=spec, operator=Cp, norm_shift=norm_shift, eig_shift_max=eig_shift,
        alpha_used=used,
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
    classifiers = [WeakClassifier(honest.copy()) for _ in range(N)]
    spec = EnsembleSpec(classifiers=classifiers, weights=np.full(N, 1.0 / N))
    # adversary flips classifier 0 so its expectation on psi becomes -1
    dim_amb = spec.ambient_dim
    ops = [classifier_operator(c, dim_amb) for c in spec.classifiers]
    flipped = np.zeros(dim_amb)
    flipped[1] = 1.0  # normal orthogonal to psi: expectation exactly -1
    ops[0] = classifier_operator(WeakClassifier(flipped), dim_amb)
    C_attacked = sum(b * op for b, op in zip(spec.weights, ops))
    return {
        "spec": spec,
        "psi": psi,
        "attacked_operator": C_attacked,
        "honest_expectation": target,
        "clean_class": classify_by_mean(psi, spec).label,
        "attacked_expectation": float(np.real(psi @ C_attacked @ psi)),
    }
