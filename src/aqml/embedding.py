"""Isometry embedding of bounded-norm data into unit vectors, median
statistics, the median-based covariance analogue, the mean baseline and the
contamination model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RawDataset:
    """Real data vectors with a shared norm bound R >= max_j ||x_j||."""

    vectors: np.ndarray  # shape (count, dim)
    norm_bound: float

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[0] < 1:
            raise ValueError("vectors must be a nonempty 2-D array")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("dataset contains NaN or Inf")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms > self.norm_bound + 1e-12):
            raise ValueError(
                f"norm bound violated: max ||x|| = {norms.max()} > R = {self.norm_bound}"
            )
        object.__setattr__(self, "vectors", vecs)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class UnitDataset:
    """Unit-vector embedding of a RawDataset in dimension N(2 N_v + 1).

    Index layout is (feature component) x (tag component): tag 0 carries the
    ||x||/R weight, tags 1..N_v and N_v+1..2N_v label the plain and dagger
    copies.  Inner products satisfy <x_j^dag | x_k> = <x_j, x_k> / R^2.
    """

    vectors: np.ndarray  # shape (count, N*(2*count+1))
    dagger_vectors: np.ndarray

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def embed(raw: RawDataset) -> UnitDataset:
    """Row j of `vectors` is direction_j (x) tag_j, with direction_j =
    x_j / ||x_j|| (e_0 where x_j = 0 or R = 0, whose weight is then 0) and
    tag_j = (||x_j|| / R) e_0 + sqrt(1 - (||x_j|| / R)^2) e_(1+j) (e_(1+j)
    alone when R = 0); `dagger_vectors` takes e_(1+N_v+j) in place of e_(1+j).
    """
    N, Nv, R = raw.dim, raw.count, raw.norm_bound
    tag_dim = 2 * Nv + 1
    rows = np.arange(Nv)
    # vecdot takes each row's dot product as np.linalg.norm does for one row
    norms = np.sqrt(np.vecdot(raw.vectors, raw.vectors))
    direction = np.zeros((Nv, N))
    direction[:, 0] = 1.0
    weight = np.zeros(Nv)
    if R != 0:
        live = norms > 0
        direction[live] = raw.vectors[live] / norms[live, None]
        weight = norms / R
    rest = np.sqrt(np.maximum(0.0, 1.0 - weight * weight))
    tag = np.zeros((Nv, tag_dim))
    tag[:, 0] = weight
    tag_dag = tag.copy()
    tag[rows, 1 + rows] = rest
    tag_dag[rows, 1 + Nv + rows] = rest
    out, out_dag = ((direction[:, :, None] * t[:, None, :]).reshape(Nv, N * tag_dim)
                    for t in (tag, tag_dag))
    return UnitDataset(vectors=out, dagger_vectors=out_dag)


def _inner_products(data) -> np.ndarray:
    """Matrix ip[j, k] = e_k^T x_j: the rows of the data, not copied."""
    if isinstance(data, (UnitDataset, RawDataset)):
        return data.vectors
    vecs = np.asarray(data, dtype=np.float64)
    if vecs.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return vecs


def robust_pca_matrix(data) -> np.ndarray:
    """Median analogue of the covariance matrix:
    M[k, l] = median_j((ip_kj - median_j ip_kj) * (ip_lj - median_j ip_lj))."""
    ips = _inner_products(data)
    dev = ips - np.median(ips, axis=0, keepdims=True)
    dim = ips.shape[1]
    M = np.empty((dim, dim))
    for k in range(dim):
        prods = dev[:, k, None] * dev  # (count, dim) products against column k
        M[k] = np.median(prods, axis=0)
    return (M + M.T) / 2.0


def robust_pca_dim(count: int, dim: int) -> int:
    """Side of the matrix robust_pca_core returns for `count` vectors in
    dimension `dim`: the feature block N for N_v >= 3, otherwise the whole
    embedded dimension N(2 N_v + 1)."""
    return dim if count >= 3 else dim * (2 * count + 1)


def robust_pca_core(raw: RawDataset) -> tuple[np.ndarray, int]:
    """robust_pca_matrix(embed(raw)) as its nonzero block plus the number of
    dimensions left out, on which the full matrix is 0.

    An embedded tag column (f, t >= 1) is nonzero in at most one row, so with
    N_v >= 3 rows its median, and every median product taken with it, is 0.
    The full matrix then vanishes outside the (feature, tag 0) block, whose
    inner products are x_j / R: the block is robust_pca_matrix(x / R).  With
    R = 0 the embedding puts no weight on tag 0 and the block is 0.  Fewer
    than 3 vectors give the full matrix and no null dimension.
    """
    side = robust_pca_dim(raw.count, raw.dim)
    full = raw.dim * (2 * raw.count + 1)
    if side == full:
        return robust_pca_matrix(embed(raw)), 0
    if raw.norm_bound == 0:
        return np.zeros((side, side)), full - side
    return robust_pca_matrix(raw.vectors / raw.norm_bound), full - side


def classical_pca_matrix(data) -> np.ndarray:
    """Mean version of the same construction, on exact inner products: the
    biased covariance matrix."""
    ips = _inner_products(data)
    dev = ips - np.mean(ips, axis=0, keepdims=True)
    return dev.T @ dev / ips.shape[0]


@dataclass(frozen=True)
class ContaminationSpec:
    """Adversary model: fraction alpha of vectors replaced per strategy."""

    alpha: float
    strategy: str = "replace-prefix"
    adversary_vectors: np.ndarray | None = None
    spike_direction: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.strategy not in ("replace-prefix", "spike-direction", "custom"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


def poison(data: RawDataset, spec: ContaminationSpec) -> RawDataset:
    """Replace floor(alpha * N_v) vectors according to the attack strategy."""
    n_replace = int(math.floor(spec.alpha * data.count))
    vecs = data.vectors.copy()
    if n_replace == 0:
        return RawDataset(vecs, data.norm_bound)
    R = data.norm_bound
    if spec.strategy == "spike-direction":
        u = spec.spike_direction
        if u is None:
            u = np.zeros(data.dim)
            u[0] = 1.0
        u = np.asarray(u, dtype=np.float64)
        u = u / np.linalg.norm(u)
        replacement = np.tile(R * u, (n_replace, 1))
    elif spec.strategy == "custom":
        if spec.adversary_vectors is None:
            raise ValueError("custom strategy requires adversary_vectors")
        replacement = np.asarray(spec.adversary_vectors, dtype=np.float64)[:n_replace]
        if replacement.shape != (n_replace, data.dim):
            raise ValueError("adversary_vectors shape mismatch")
        if np.any(np.linalg.norm(replacement, axis=1) > R + 1e-12):
            raise ValueError("adversary vector exceeds the norm bound R")
    else:  # replace-prefix with rescaled random directions at norm R
        rng = np.random.default_rng(spec.seed)
        raw = rng.standard_normal((n_replace, data.dim))
        replacement = R * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    vecs[:n_replace] = replacement
    return RawDataset(vecs, data.norm_bound)


@dataclass(frozen=True)
class DistributionSpec:
    """Distribution given by its inverse CDF Q: [0,1] -> [-1,1] with a
    Lipschitz constant L.

    `inverse_cdf` maps an array of u to the array of Q(u), elementwise (a
    numpy expression in u).  median_stability_check evaluates it on arrays
    only, because scalar float arithmetic may round differently from numpy's
    array loops (`x ** 3` does), and relies on Q being nondecreasing, as an
    inverse CDF is.  Monotonicity and the Lipschitz bound are checked on a
    1001-point grid at construction.
    """

    inverse_cdf: callable
    lipschitz: float
    name: str = "distribution"

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz constant must be positive")
        grid = np.linspace(0.0, 1.0, 1001)
        steps = np.diff(self.inverse_cdf(grid))
        if np.any(steps < 0):
            raise ValueError("inverse CDF decreases on [0, 1]")
        if np.any(steps > self.lipschitz * (grid[1] - grid[0]) + 1e-9):
            raise ValueError("inverse CDF violates the declared Lipschitz bound")


def uniform_dist() -> DistributionSpec:
    return DistributionSpec(lambda u: 2.0 * u - 1.0, 2.0, "uniform[-1,1]")


def sine_dist() -> DistributionSpec:
    return DistributionSpec(lambda u: np.sin(math.pi * (u - 0.5)), math.pi, "sine")


def cubic_dist() -> DistributionSpec:
    return DistributionSpec(lambda u: (2.0 * u - 1.0) ** 3, 6.0, "cubic")


def _order_statistics(x: np.ndarray, ranks) -> tuple[np.ndarray, int, np.ndarray]:
    """Values of sorted(x) at the nondecreasing integer array `ranks`, and
    the window they were selected from.

    x is taken for near-uniform on [0, 1], so rank r sits near the r / n
    quantile.  Only the entries in [lo, hi) = [ranks[0] / n - w,
    (ranks[-1] + 1) / n + w), w = 4 / sqrt(n) (at least 8 standard
    deviations of a uniform order statistic), are partitioned.  Returns the
    values, the count of entries below lo and the window's entries; when the
    counts show a rank outside the window, the whole array is partitioned
    and the count is 0 with x as the window.
    """
    n = x.size
    half = 4.0 / math.sqrt(n)
    below = x < ranks[0] / n - half
    inside = x < (ranks[-1] + 1) / n + half
    offset = int(np.count_nonzero(below))
    if offset <= ranks[0] and ranks[-1] < np.count_nonzero(inside):
        window = x.compress(inside ^ below)  # below is a subset of inside
        local = ranks - offset
        return np.partition(window, local)[local], offset, window
    return np.partition(x, ranks)[ranks], 0, x


def median_stability_check(
    dist: DistributionSpec,
    alpha: float,
    trials: int,
    n_samples: int = 10**5,
    rng: np.random.Generator | None = None,
) -> dict:
    """Empirically verify the alpha*L bound on the median shift under
    contamination at total variational distance <= alpha.

    The contamination moves floor(alpha n) draws, the first ones in draw
    order below 1/2 (all of them if fewer lie there), to the upper end
    point Q(1) (one-sided placement, which saturates the bound).  Returns
    the largest and the mean measured shift over the trials, the bound
    alpha L and its sampling slack, and whether every shift stayed within
    bound plus slack.

    Both medians are taken on the uniform draws u: Q is nondecreasing, so
    the median of Q(u) is the mean of Q at the middle order statistics of u,
    and Q runs on those one or two values only.  With `below` draws under
    1/2 and shift = min(floor(alpha n), below) of them moved, the poisoned
    middle order statistics are u's at the middle ranks + shift whenever
    below - shift is at most the lower middle rank: every moved draw then
    lies below the kept middle ranks.  Only the shift = floor(alpha n) <
    below case can fail it, and then only when below exceeds n / 2 by more
    than about alpha n, which takes alpha n within a few sqrt(n) of 0 (at
    n = 10^5 and alpha = 0.05: 5000 extra draws below 1/2, 31 standard
    deviations).  Then the poisoned copy is built and its middle ranks
    selected.  Each trial draws u into one reused buffer.
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 1/2)")
    if trials < 1 or n_samples < 1:
        raise ValueError("trials and n_samples must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    L = dist.lipschitz
    slack = 3.0 * L / (2.0 * math.sqrt(n_samples))
    bound = alpha * L + slack
    n_poison = int(math.floor(alpha * n_samples))
    low_middle = (n_samples - 1) // 2
    middle = np.unique([low_middle, n_samples // 2])
    u = np.empty(n_samples)
    shifts = []
    for _ in range(trials):
        rng.random(out=u)
        clean, offset, window = _order_statistics(u, middle)
        # the clean window straddles 1/2: every draw left of it lies below
        # 1/2 and every draw right of it above
        below = offset + int(np.count_nonzero(window < 0.5))
        shift = min(n_poison, below)
        if shift and below - shift > low_middle:
            # the moved draws go to the top (u < 1, so they never reach the
            # middle ranks)
            copy = u.copy()
            copy[np.flatnonzero(u < 0.5)[:shift]] = 1.0
            poisoned = _order_statistics(copy, middle)[0]
        else:
            poisoned = _order_statistics(u, middle + shift)[0]
        clean_median = np.mean(dist.inverse_cdf(clean))
        poisoned_median = np.mean(dist.inverse_cdf(poisoned))
        shifts.append(float(abs(poisoned_median - clean_median)))
    shifts = np.array(shifts)
    return {
        "distribution": dist.name,
        "alpha": alpha,
        "lipschitz": L,
        "bound": alpha * L,
        "slack": slack,
        "max_shift": float(shifts.max()),
        "mean_shift": float(shifts.mean()),
        "ok": bool(np.all(shifts <= bound)),
    }
