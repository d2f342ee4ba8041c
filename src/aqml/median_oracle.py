"""Binary-search median estimation over noisy probability oracles, and the
gamma-approximate matrix-element oracle composed from it.

The "coherent" part of the construction is modeled by the success/failure
contract of `statevec.amplitude_estimate`: each probability readout is within
epsilon0 of the truth except with probability delta0, when it is the end
point of [0, 1] farthest from the truth.  Search endpoints are tracked as
exact dyadic rationals so interval midpoints stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import statevec
from .util import QueryCounter


def iteration_budget(epsilon: float, epsilon_prime: float) -> int:
    """ceil(log2((1 - 4 eps) / (2 (eps - 4 eps')))), the number of binary
    search steps needed for a final median error of eps."""
    if not 0.0 < epsilon < 0.25:
        raise ValueError("epsilon must lie in (0, 1/4)")
    if not 0.0 <= epsilon_prime < epsilon / 4.0:
        raise ValueError("epsilon_prime must lie in [0, epsilon/4)")
    value = (1.0 - 4.0 * epsilon) / (2.0 * (epsilon - 4.0 * epsilon_prime))
    if value <= 1.0:
        return 0
    return int(math.ceil(math.log2(value)))


@dataclass
class MedianSearchConfig:
    """Precision budget for one binary-search median estimation.

    All tolerances are expressed in the normalized [0, 1] search domain; the
    value domain [lo, hi] is mapped onto it affinely.  Each CDF readout goes
    through `statevec.amplitude_estimate` at precision epsilon0 =
    epsilon_prime / lipschitz and failure probability delta0; a failed
    readout is adversarial (the far end of [0, 1]), and its query charge
    uses `statevec.AE_COST_CONSTANT`.  p_max defaults to the iteration
    budget and may not be set below it.
    """

    epsilon: float
    epsilon_prime: float
    delta0: float = 0.0
    lipschitz: float = 2.0
    p_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("epsilon must lie in (0, 1/4)")
        if not 0.0 <= self.epsilon_prime < self.epsilon / 4.0:
            raise ValueError("epsilon_prime must lie in [0, epsilon/4)")
        if not 0.0 <= self.delta0 < 1.0:
            raise ValueError("delta0 must lie in [0, 1)")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.p_max is None:
            self.p_max = iteration_budget(self.epsilon, self.epsilon_prime)
        elif self.p_max < iteration_budget(self.epsilon, self.epsilon_prime):
            raise ValueError("p_max below the required iteration budget")

    @property
    def epsilon0(self) -> float:
        """Amplitude-estimation precision, fixed at epsilon_prime / L."""
        return self.epsilon_prime / self.lipschitz


@dataclass
class MedianSearchResult:
    value: float
    queries: int
    trace: list  # (midpoint, estimate) per iteration


def binary_search_median(
    cdf_oracle,
    cfg: MedianSearchConfig,
    rng: np.random.Generator,
    domain: tuple = (-1.0, 1.0),
    counter: QueryCounter | None = None,
) -> MedianSearchResult:
    """Estimate the median of a distribution from a noisy CDF oracle.

    cdf_oracle(y) must return an estimate of P(value < y) within epsilon0 of
    the truth except with probability delta0 per call.  In the success
    branch the returned value is within epsilon of the true median (in
    normalized units); the overall failure probability is at most
    p_max * delta0 by the union bound.
    """
    lo, hi = domain
    if not hi > lo:
        raise ValueError("empty search domain")
    if counter is None:
        counter = QueryCounter()
    # widening applied to the updated endpoint each iteration; keeps the
    # true median inside the interval despite readout errors
    widen = Fraction(cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0).limit_denominator(
        2**60
    )
    left, right = Fraction(0), Fraction(1)
    trace = []
    for _ in range(cfg.p_max):
        mid = (left + right) / 2
        y = lo + float(mid) * (hi - lo)
        est = float(cdf_oracle(y))
        counter.charge("cdf_oracle", 1)
        trace.append((float(mid), est))
        if abs(est - 0.5) <= cfg.epsilon0:
            # midpoint is itself a certified near-median: in the success
            # branch |F(mid) - 1/2| <= 2 eps0, so the median lies within
            # L * 2 eps0 = eps' + L eps0 of mid.  Pinning the interval there
            # keeps degenerate CDFs (flat at 1/2) from random-walking.
            left, right = mid - widen, mid + widen
        elif est < 0.5:
            left = mid - widen
        else:
            right = mid + widen
        left = max(left, Fraction(0))
        right = min(right, Fraction(1))
    mid = (left + right) / 2
    return MedianSearchResult(
        value=lo + float(mid) * (hi - lo),
        queries=counter.total,
        trace=trace,
    )


def exact_cdf_oracle(values) -> callable:
    """Noiseless strict-inequality empirical CDF of a finite sample."""
    values = np.sort(np.asarray(values, dtype=np.float64))

    def oracle(y: float) -> float:
        return float(np.searchsorted(values, y, side="left")) / len(values)

    return oracle


def noisy_cdf_oracle(
    values,
    cfg: MedianSearchConfig,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
) -> callable:
    """Empirical CDF read out through the amplitude-estimation contract."""
    exact = exact_cdf_oracle(values)
    # each amplitude-estimation invocation applies the comparator circuit,
    # which itself queries the data oracle O(1/epsilon') times to compute
    # inner products to precision epsilon'
    ae_charge = statevec.ae_query_charge(cfg.epsilon0, cfg.delta0)
    ip_charge = int(math.ceil(1.0 / max(cfg.epsilon_prime, 1e-9)))

    def oracle(y: float) -> float:
        if counter is not None:
            counter.charge("data_oracle", ae_charge * ip_charge)
        return statevec.amplitude_estimate(
            exact(y),
            epsilon0=cfg.epsilon0,
            delta0=cfg.delta0,
            rng=rng,
            counter=counter,
        )

    return oracle


def quantum_median(
    values,
    cfg: MedianSearchConfig,
    rng: np.random.Generator,
    domain: tuple = (-1.0, 1.0),
    counter: QueryCounter | None = None,
) -> float:
    """Median of a list of reals estimated through the full noisy pipeline."""
    if counter is None:
        counter = QueryCounter()
    oracle = noisy_cdf_oracle(values, cfg, rng, counter)
    return binary_search_median(oracle, cfg, rng, domain=domain, counter=counter).value


def matrix_element_oracle(
    vectors: np.ndarray,
    k: int,
    l: int,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
) -> float:
    """One gamma-approximate draw of the median-covariance entry (k, l).

    `vectors` is the (count, D) array of row vectors x_j; the inner
    products e_k^T x_j are its columns, read exactly.  Composes three
    binary-search medians (column k, column l, deviation products), each
    with CDF Lipschitz constant 2.  The emitted value is within gamma of the
    exact entry with probability >= 1 - delta, up to the discreteness of the
    empirical distribution (the analysis assumes a Lipschitz inverse CDF).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if counter is None:
        counter = QueryCounter()
    ips = np.asarray(vectors, dtype=np.float64)
    if ips.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    if not (0 <= k < ips.shape[1] and 0 <= l < ips.shape[1]):
        raise ValueError("index out of range")
    # value-domain budget: column-median errors e feed the products with a
    # factor <= 2 each (deviations are bounded by 2), the final search adds
    # its own error, and a gamma/3 margin absorbs empirical discreteness
    e_col = gamma / 12.0  # value units on [-1, 1], width 2
    e_prod = gamma / 3.0  # value units on [-4, 4], width 8
    eps_col = min(e_col / 2.0, 0.2)
    eps_prod = min(e_prod / 8.0, 0.2)
    delta0 = delta / (3 * max(1, iteration_budget(eps_col, eps_col / 8.0)))
    cfg_col = MedianSearchConfig(epsilon=eps_col, epsilon_prime=eps_col / 8.0,
                                 delta0=delta0)
    cfg_prod = MedianSearchConfig(epsilon=eps_prod, epsilon_prime=eps_prod / 8.0,
                                  delta0=delta0)

    med_k = quantum_median(ips[:, k], cfg_col, rng, counter=counter)
    med_l = quantum_median(ips[:, l], cfg_col, rng, counter=counter)
    prods = (ips[:, k] - med_k) * (ips[:, l] - med_l)
    # products of two deviations bounded by 2 each lie in [-4, 4]
    return quantum_median(prods, cfg_prod, rng, domain=(-4.0, 4.0), counter=counter)
