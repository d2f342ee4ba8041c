"""End-to-end robust PCA pipeline: median-based matrix construction (exact
or through the quantum median oracle), eigenvalue sampling by phase
estimation of e^{-iM}, poisoning experiments, and spectral-perturbation
checks on projectors and eigenvalues."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import embedding, linalg, lcu, median_oracle, statevec
from .util import QueryCounter


@dataclass
class SubspaceSplit:
    """Orthogonal split of the eigenspace into a positive band, a negative
    band, and an undetermined remainder, with gap lam between the bands."""

    p_plus: np.ndarray  # (dim, n_plus) orthonormal columns
    p_minus: np.ndarray
    p_rest: np.ndarray
    lam: float
    eigenvalues_plus: np.ndarray = field(default_factory=lambda: np.array([]))
    eigenvalues_minus: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        dim = self.p_plus.shape[0]
        total = (
            self.projector("plus") + self.projector("minus") + self.projector("rest")
        )
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("band projectors do not resolve the identity")
        if len(self.eigenvalues_plus) and len(self.eigenvalues_minus):
            pair_gap = np.min(
                np.abs(self.eigenvalues_plus[:, None] - self.eigenvalues_minus[None, :])
            )
            if pair_gap < self.lam - 1e-12:
                raise ValueError("band eigenvalue pair closer than the declared gap")

    def projector(self, band: str) -> np.ndarray:
        V = {"plus": self.p_plus, "minus": self.p_minus, "rest": self.p_rest}[band]
        if V.size == 0:
            return np.zeros((self.p_plus.shape[0],) * 2)
        return V @ V.conj().T


def split_spectrum(M, plus_min: float, minus_max: float) -> SubspaceSplit:
    """Assign eigenvectors with eigenvalue >= plus_min to the positive band
    and <= minus_max to the negative band."""
    dec = linalg.eig_hermitian(M)
    plus = dec.eigenvalues >= plus_min
    minus = dec.eigenvalues <= minus_max
    rest = ~(plus | minus)
    lam = 0.0
    if plus.any() and minus.any():
        lam = float(
            np.min(
                np.abs(
                    dec.eigenvalues[plus][:, None] - dec.eigenvalues[minus][None, :]
                )
            )
        )
    return SubspaceSplit(
        p_plus=dec.eigenvectors[:, plus],
        p_minus=dec.eigenvectors[:, minus],
        p_rest=dec.eigenvectors[:, rest],
        lam=lam,
        eigenvalues_plus=dec.eigenvalues[plus],
        eigenvalues_minus=dec.eigenvalues[minus],
    )


@dataclass
class QpcaReport:
    histogram: dict  # exact eigenvalue -> sampled mass
    overlaps: dict  # exact eigenvalue -> |<x|E_n>|^2
    lambda_measured: float
    queries: QueryCounter
    norm_shift: float = 0.0
    unresolved: bool = False

    def __post_init__(self):
        total = sum(self.histogram.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("sampled histogram masses must sum to 1")


def build_matrix(
    data: embedding.UnitDataset | embedding.RawDataset,
    mode: str = "exact-median",
    gamma: float = 0.05,
    delta: float = 0.05,
    rng: np.random.Generator | None = None,
    counter: QueryCounter | None = None,
) -> np.ndarray:
    """Median-deviation PCA matrix, either computed classically or with
    every entry drawn from the binary-search matrix-element oracle and the
    result symmetrized.

    The exact mode on a RawDataset returns embedding.robust_pca_core's
    block (N x N for N_v >= 3), not the zero-padded embedded matrix.  The
    quantum mode draws every one of the D^2 embedded entries: the oracle's
    per-entry noise on the zero block is part of the simulated algorithm.
    The entries are drawn in row-major order by one matrix_element_oracle
    call, which runs their binary searches in lockstep.
    """
    if mode == "exact-median":
        if isinstance(data, embedding.RawDataset):
            return embedding.robust_pca_core(data.vectors, data.norm_bound)[0]
        return embedding.robust_pca_matrix(data)
    if mode != "quantum-median":
        raise ValueError(f"unknown build mode {mode!r}")
    if rng is None:
        raise ValueError("quantum-median mode needs an rng")
    if isinstance(data, embedding.RawDataset):
        data = embedding.embed(data)
    dim = data.vectors.shape[1]
    k, l = np.divmod(np.arange(dim * dim), dim)  # row-major
    M = median_oracle.matrix_element_oracle(
        data.vectors, k, l, gamma=gamma, delta=delta, rng=rng, counter=counter
    ).reshape(dim, dim)
    return (M + M.T) / 2


@dataclass(frozen=True)
class QpeSpectrum:
    """Everything qpca_sample knows before it draws shots: the QPE outcome
    distribution of the input state, the eigenvalue bin each outcome reads
    as, and the exact overlap mass of each bin."""

    bins: np.ndarray  # distinct exact eigenvalues (12 digits), ascending
    overlaps: np.ndarray  # |<x|E_n>|^2 summed per bin
    distribution: np.ndarray  # probability of QPE outcome y in [0, 2^bits)
    outcome_bins: np.ndarray  # bin of the eigenvalue outcome y reads as
    unresolved: bool
    norm_shift: float
    queries: QueryCounter  # charges of the simulated evolution


def _nearest(bins: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the bin nearest each value, the first one on a tie, in
    chunks of about 2^20 distances."""
    chunk = max(1, 2**20 // len(bins))
    return np.concatenate([
        np.argmin(np.abs(bins[None, :] - values[i:i + chunk, None]), axis=1)
        for i in range(0, len(values), chunk)
    ])


def qpca_spectrum(
    M,
    x: np.ndarray,
    bits: int = 8,
    sim_mode: str = "exact-exp",
    rng: np.random.Generator | None = None,
    lcu_cfg: lcu.TaylorConfig | None = None,
    null_dim: int = 0,
) -> QpeSpectrum:
    """The part of qpca_sample that draws no shots.

    `null_dim` more dimensions, on which the sampled matrix is 0 and x has
    no weight (embedding.robust_pca_core's null dimension), join the
    spectrum as one eigenvalue 0 with overlap 0: they fall in one bin, and
    their overlaps add nothing to it.  Only the lcu-noisy mode reads rng,
    because its simulated evolution is itself random.
    """
    # the decomposition checks M; the scale reads the entries as given
    dec = linalg.eig_hermitian(M)
    M = np.asarray(M)
    x = np.asarray(x, dtype=np.complex128)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("input state must be unit norm")
    if null_dim < 0:
        raise ValueError("null dimension must be nonnegative")
    counter = QueryCounter()

    max_norm = float(np.max(np.abs(M)))
    d_eff = max(1, lcu.row_sparsity(M))
    scale = 1.0 if max_norm == 0 else 1.0 / (2.0 * max_norm * d_eff)
    if np.max(np.abs(scale * dec.eigenvalues)) >= math.pi:
        raise ValueError("rescaled matrix norm still >= pi; eigenphases would wrap")
    null = np.zeros(min(null_dim, 1))
    exact_vals = np.concatenate([dec.eigenvalues, null])
    core_overlaps = np.abs(dec.eigenvectors.conj().T @ x) ** 2
    overlaps = np.concatenate([core_overlaps, null])

    # QPE of e^{-i M scale} reads the spectrum; the null dimensions carry no
    # weight and never show in the outcome distribution
    norm_shift = 0.0
    if sim_mode == "exact-exp":
        energies, weights = scale * dec.eigenvalues, core_overlaps
    elif sim_mode == "lcu-noisy":
        if rng is None:
            raise ValueError("lcu-noisy mode needs an rng")
        cfg = lcu_cfg if lcu_cfg is not None else lcu.TaylorConfig()
        rep = lcu.simulate_noisy(M * scale, cfg, rng)
        counter.merge(rep.queries)
        # the channel's polar unitary is e^{-i H_eff t} for the extracted
        # generator, with the same eigenvectors
        noisy = linalg.eig_hermitian(rep.effective_hamiltonian * cfg.time)
        energies = noisy.eigenvalues
        weights = np.abs(noisy.eigenvectors.conj().T @ x) ** 2
        # deviation of the realized generator, reported in unscaled units
        norm_shift = rep.deviation_spectral / scale
    else:
        raise ValueError(f"unknown sim_mode {sim_mode!r}")
    dist = statevec.phase_estimate_distribution(energies, weights, bits)

    # bin each phase to the nearest exact eigenvalue; require bands
    # separated by at least two phase-grid cells to call the run resolved
    unresolved = False
    distinct = np.unique(np.round(exact_vals, 12))
    if len(distinct) > 1:
        min_gap_phase = np.min(np.diff(np.sort(distinct))) * scale
        if min_gap_phase < 2 * (2.0 ** (-bits)) * 2 * math.pi:
            unresolved = True
    estimates = statevec.phase_to_eigenvalue(np.arange(len(dist)) / 2**bits, scale)
    return QpeSpectrum(
        bins=distinct,
        overlaps=np.bincount(_nearest(distinct, exact_vals), weights=overlaps,
                             minlength=len(distinct)),
        distribution=dist,
        outcome_bins=_nearest(distinct, estimates),
        unresolved=unresolved,
        norm_shift=norm_shift,
        queries=counter,
    )


def qpca_draw(
    spectrum: QpeSpectrum, shots: int, rng: np.random.Generator
) -> QpcaReport:
    """Draw `shots` QPE outcomes from the spectrum and bin them.
    Lambda_measured is the worst deviation between sampled mass and the
    exact overlap over the bins."""
    counts = rng.multinomial(shots, spectrum.distribution)
    hist = np.bincount(spectrum.outcome_bins, weights=counts / counts.sum(),
                       minlength=len(spectrum.bins))
    counter = QueryCounter()
    counter.merge(spectrum.queries)
    counter.charge("qpe_shots", shots)
    keys = spectrum.bins.tolist()
    return QpcaReport(
        histogram=dict(zip(keys, hist.tolist())),
        overlaps=dict(zip(keys, spectrum.overlaps.tolist())),
        lambda_measured=float(np.max(np.abs(hist - spectrum.overlaps))),
        queries=counter,
        norm_shift=spectrum.norm_shift,
        unresolved=spectrum.unresolved,
    )


def qpca_sample(
    M,
    x: np.ndarray,
    bits: int = 8,
    shots: int = 10**4,
    sim_mode: str = "exact-exp",
    rng: np.random.Generator | None = None,
    lcu_cfg: lcu.TaylorConfig | None = None,
    null_dim: int = 0,
) -> QpcaReport:
    """Phase-estimate e^{-iM} on x and bin the sampled eigenvalues:
    qpca_spectrum, then qpca_draw from the same rng.

    M is rescaled by 1/(2 max_norm d_eff) before exponentiation to keep
    eigenphases inside (-pi, pi); reported eigenvalues are unscaled.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    spectrum = qpca_spectrum(M, x, bits, sim_mode, rng, lcu_cfg, null_dim)
    return qpca_draw(spectrum, shots, rng)


def poisoning_sweep(
    data: embedding.RawDataset,
    specs: list,
    L: float,
) -> tuple[tuple[np.ndarray, int], list]:
    """One poisoning_experiment report per contamination spec, and the clean
    median core with its null dimension (embedding.robust_pca_core of the
    data).

    The clean core and every spec's poisoned core come from one
    robust_pca_core call, the mean baseline matrices are built once each,
    and the 2 len(specs) spectral norms of the differences come from one
    stacked SVD.
    """
    for spec in specs:
        if not (0.0 <= spec.alpha < 0.5):
            raise ValueError("contamination fraction must satisfy 0 <= alpha < 1/2")
        if spec.alpha * L > 1.0:
            raise ValueError("alpha * L must be <= 1 for the stability regime")
    datasets = np.stack([data.vectors] + [embedding.poison(data, spec) for spec in specs])
    cores, null_dim = embedding.robust_pca_core(datasets, data.norm_bound)
    # both matrices vanish on the same null dimensions, so d and the norm
    # of M - Mp are those of the embedded matrices
    M = cores[0]
    d = lcu.row_sparsity(M)
    # the mean baseline works on the raw vectors: unlike the embedded median
    # construction it has no norm protection, so a spike at the norm bound
    # moves it by about alpha R^2
    Cs = np.stack([embedding.classical_pca_matrix(r) for r in datasets])
    diffs = [M - cores[1:], Cs[0] - Cs[1:]]
    if diffs[0].shape == diffs[1].shape:  # N_v >= 3: both sides are dim
        diffs = [np.concatenate(diffs)]
    # the largest singular value of the complex matrix, as linalg.norm
    # takes it: the same LAPACK call per matrix
    norms = np.concatenate([
        np.linalg.svd(D.astype(np.complex128), compute_uv=False).max(axis=-1)
        for D in diffs
    ]).tolist()
    n = len(specs)
    reports = []
    for spec, norm, mean_norm in zip(specs, norms[:n], norms[n:]):
        bound = 5.0 * spec.alpha * L * (d + 2)
        reports.append({
            "norm": norm,
            "bound": bound,
            "ok": bool(norm <= bound + 1e-12),
            "d": d,
            "mean_method_norm": mean_norm,
        })
    return (M, null_dim), reports


def poisoning_experiment(
    data: embedding.RawDataset,
    spec: embedding.ContaminationSpec,
    L: float,
) -> dict:
    """Compare the median-based PCA matrix before and after contaminating
    an alpha fraction of the data, against the 5 alpha L (d+2) spectral
    bound; also reports the same comparison for the mean-based covariance
    matrix, which has no such guarantee."""
    return poisoning_sweep(data, [spec], L)[1][0]


# constant of the quadratic remainder allowed in first-order eigenvalue shifts
CURVATURE_C = 50.0


def projector_perturbation_check(
    M,
    M_perturbed,
    split: SubspaceSplit,
    probes: np.ndarray,
) -> dict:
    """Check that every probe's positive-band projector shift obeys
    |<phi|(P+' - P+)|phi>| <= 4 sigma / lam, and that eigenvalue shifts
    match the first-order inner-product rule up to a quadratic remainder
    CURVATURE_C sigma^2."""
    M = linalg.check_hermitian(M)
    Mp = linalg.check_hermitian(M_perturbed)
    sigma = linalg.norm(Mp - M)
    if split.lam <= 0:
        raise ValueError("split gap must be positive")
    lo = (
        float(np.min(split.eigenvalues_plus)) - split.lam / 2
        if len(split.eigenvalues_plus)
        else np.inf
    )
    dec = linalg.eig_hermitian(M)
    decp = linalg.eig_hermitian(Mp)
    P = split.projector("plus")
    plus_p = decp.eigenvalues >= lo
    Vp = decp.eigenvectors[:, plus_p]
    Pp = Vp @ Vp.conj().T if Vp.size else np.zeros_like(P)

    bound = 4.0 * sigma / split.lam
    shifts = []
    for phi in np.atleast_2d(probes):
        phi = np.asarray(phi, dtype=np.complex128)
        phi = phi / np.linalg.norm(phi)
        shifts.append(abs(np.real(phi.conj() @ (Pp - P) @ phi)))
    max_shift = max(shifts) if shifts else 0.0

    # first-order eigenvalue response: E_n' - E_n ~ sigma <E_n|Delta|E_n>
    eig_ok = True
    eig_residual = 0.0
    if sigma > 0:
        Delta = (Mp - M) / sigma
        gaps = np.diff(dec.eigenvalues)
        for n, (En, Enp) in enumerate(zip(dec.eigenvalues, decp.eigenvalues)):
            near = (n > 0 and gaps[n - 1] < 1e-9) or (
                n < len(gaps) and gaps[n] < 1e-9
            )
            if near:
                continue
            v = dec.eigenvectors[:, n]
            deriv = float(np.real(v.conj() @ Delta @ v))
            resid = abs(Enp - En - sigma * deriv)
            eig_residual = max(eig_residual, resid)
            if resid > CURVATURE_C * sigma**2:
                eig_ok = False
    weyl_ok = bool(
        np.max(np.abs(dec.eigenvalues - decp.eigenvalues)) <= sigma + 1e-12
    )
    return {
        "sigma": sigma,
        "bound": bound,
        "max_projector_shift": max_shift,
        "projector_ok": bool(max_shift <= bound + 1e-12),
        "eig_first_order_ok": eig_ok,
        "eig_residual": eig_residual,
        "weyl_ok": weyl_ok,
    }
