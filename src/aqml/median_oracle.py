"""Binary-search median estimation over noisy probability oracles, and the
gamma-approximate matrix-element oracle composed from it.

The "coherent" part of the construction is modeled by the success/failure
contract of `statevec.amplitude_estimate`: each probability readout is within
epsilon0 of the truth except with probability delta0, when it is the end
point of [0, 1] farthest from the truth.

One engine runs any number of searches ("lanes") step by step together.
Search endpoints are exact Python integers over the common denominator
q * 2^(p_max + 1), where q is the denominator of the widening eps' + L eps0
taken as a fraction with denominator at most 2^60.  q need not be a power
of two (it is odd at gamma = 0.05 in `matrix_element_oracle`), so the
endpoints are not dyadic; midpoints stay exact all the same, and each is
rounded to a float once, by int / int division.

The endpoints live in a table of search states: a state is one exact
(left, right) pair, and each lane holds the index of its state.  A step
moves a state in one of three ways (pin both endpoints at the midpoint,
raise left, lower right), so lanes that started together and made the same
moves share a state, and the integer arithmetic runs once per distinct
state, not once per lane.  After each step the lanes are regrouped by
state * 3 + move.  The first step has one state, step t at most 3^t, and
never more than the lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    trace: list  # (midpoint, estimate) per iteration
    intervals: list  # normalized (left, right) after each iteration


class _Lockstep(NamedTuple):
    values: np.ndarray  # median estimates, (lanes,)
    mids: np.ndarray  # normalized midpoint of every step, (p_max, lanes)
    estimates: np.ndarray  # CDF readout of every step, (p_max, lanes)
    intervals: list  # the first lane's integer (left, right) after every step
    denom: int  # of the endpoints, which are integers


def _lockstep_search(readout, lanes: int, cfg: MedianSearchConfig, domain: tuple) -> _Lockstep:
    """Run `lanes` binary-search medians together, one step at a time.

    readout(step, y) returns the CDF estimates at the lanes' query points y,
    a float array of shape (lanes,).

    `states` is the table of distinct exact (left, right) endpoint pairs and
    sid[i] is the entry of lane i.  Each step takes the midpoint of every
    state, reads every lane out at its state's midpoint and gives the lane a
    move: 0 pins both endpoints near the midpoint, 1 raises left, 2 lowers
    right.  The next table holds one state per distinct key
    sid * 3 + move, in increasing key order, and each lane takes the index
    of its key, so every lane holds the endpoints its own one-lane search
    would.  The integer arithmetic thus runs once per distinct state: lanes
    with the same moves so far share one.
    """
    lo, hi = domain
    if not hi > lo:
        raise ValueError("empty search domain")
    # widening applied to the updated endpoint each iteration; keeps the
    # true median inside the interval despite readout errors
    widen = Fraction(cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0).limit_denominator(
        2**60
    )
    # every endpoint and midpoint is an integer over this denominator
    denom = widen.denominator << (cfg.p_max + 1)
    step_w = widen.numerator << (cfg.p_max + 1)
    states = [(0, denom)]
    sid = np.zeros(lanes, dtype=np.intp)
    mids = np.empty((cfg.p_max, lanes))
    ests = np.empty((cfg.p_max, lanes))
    intervals = []
    for step in range(cfg.p_max):
        centre = [(left + right) // 2 for left, right in states]
        mids[step] = np.array([c / denom for c in centre])[sid]  # int / int rounds correctly
        est = ests[step] = readout(step, lo + mids[step] * (hi - lo))
        # a readout within eps0 of 1/2 certifies the midpoint as a
        # near-median: in the success branch |F(mid) - 1/2| <= 2 eps0, so
        # the median lies within L * 2 eps0 = eps' + L eps0 of mid.  Pinning
        # the interval there keeps degenerate CDFs (flat at 1/2) from
        # random-walking.  Otherwise a readout below 1/2 raises left (move 1)
        # and any other, NaN included, lowers right (move 2).
        key = 3 * sid + (2 - (est < 0.5)) * ~(np.abs(est - 0.5) <= cfg.epsilon0)
        taken = np.flatnonzero(np.bincount(key))  # the distinct keys, ascending
        sid = np.searchsorted(taken, key)
        moved = []
        for k in taken.tolist():
            (left, right), mid, how = states[k // 3], centre[k // 3], k % 3
            if how != 2:
                left = max(mid - step_w, 0)
            if how != 1:
                right = min(mid + step_w, denom)
            moved.append((left, right))
        states = moved
        if lanes:
            intervals.append(states[sid[0]])
    final = np.array([(left + right) // 2 / denom for left, right in states])[sid]
    return _Lockstep(lo + final * (hi - lo), mids, ests, intervals, denom)


def binary_search_median(
    cdf_oracle,
    cfg: MedianSearchConfig,
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
    if counter is None:
        counter = QueryCounter()

    def readout(step, y):
        est = float(cdf_oracle(float(y[0])))
        counter.charge("cdf_oracle", 1)
        return np.array([est])

    run = _lockstep_search(readout, 1, cfg, domain)
    return MedianSearchResult(
        value=float(run.values[0]),
        trace=list(zip(run.mids[:, 0].tolist(), run.estimates[:, 0].tolist())),
        intervals=[(left / run.denom, right / run.denom) for left, right in run.intervals],
    )


def exact_cdf_oracle(values) -> callable:
    """Noiseless strict-inequality empirical CDF of a finite sample."""
    values = np.sort(np.asarray(values, dtype=np.float64))

    def oracle(y: float) -> float:
        return float(np.searchsorted(values, y, side="left")) / len(values)

    return oracle


def _readout_charges(cfg: MedianSearchConfig) -> tuple:
    """(amplitude_estimation, data_oracle) queries of one noisy CDF readout:
    each amplitude-estimation invocation applies the comparator circuit,
    which itself queries the data oracle O(1/epsilon') times to compute
    inner products to precision epsilon'."""
    ae_charge = statevec.ae_query_charge(cfg.epsilon0, cfg.delta0)
    ip_charge = int(math.ceil(1.0 / max(cfg.epsilon_prime, 1e-9)))
    return ae_charge, ae_charge * ip_charge


def noisy_cdf_oracle(
    values,
    cfg: MedianSearchConfig,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
) -> callable:
    """Empirical CDF read out through the amplitude-estimation contract."""
    exact = exact_cdf_oracle(values)
    data_charge = _readout_charges(cfg)[1]

    def oracle(y: float) -> float:
        if counter is not None:
            counter.charge("data_oracle", data_charge)
        return statevec.amplitude_estimate(
            exact(y),
            epsilon0=cfg.epsilon0,
            delta0=cfg.delta0,
            rng=rng,
            counter=counter,
        )

    return oracle


def _noisy_medians(
    values: np.ndarray,
    cfg: MedianSearchConfig,
    draws: tuple,
    domain: tuple,
    counter: QueryCounter,
) -> np.ndarray:
    """Medians of the rows of `values` (lanes, n), searched together; the
    readout of lane i at step t is the empirical CDF through the
    amplitude-estimation contract with the drawn (failed, noise)[i, t]."""
    statevec.check_ae_precision(cfg.epsilon0, cfg.delta0)
    failed, noise = draws
    lanes, n = values.shape

    def readout(step, y):
        prob = np.count_nonzero(values < y[:, None], axis=1) / n
        return statevec.ae_readout(prob, cfg.epsilon0, failed[:, step], noise[:, step])

    medians = _lockstep_search(readout, lanes, cfg, domain).values
    readouts = lanes * cfg.p_max
    if readouts:
        # in the order one readout charges them
        ae_charge, data_charge = _readout_charges(cfg)
        counter.charge("data_oracle", readouts * data_charge)
        counter.charge("amplitude_estimation", readouts * ae_charge)
        counter.charge("cdf_oracle", readouts)
    return medians


def _check_unit_values(values: np.ndarray) -> None:
    """Reject values a search over [-1, 1] would silently misplace: NaN, Inf
    and magnitudes above 1 by more than the 1e-12 slack RawDataset allows
    on norms."""
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain NaN or Inf")
    if np.any(np.abs(values) > 1.0 + 1e-12):
        raise ValueError("values must lie in [-1, 1]")


def quantum_median(
    values,
    cfg: MedianSearchConfig,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
) -> float:
    """Median of a list of reals in [-1, 1] estimated through the full noisy
    pipeline; the binary search runs over the fixed domain (-1, 1).  Raises
    ValueError, before drawing from rng, for no values and for values the
    domain cannot hold (see _check_unit_values)."""
    if counter is None:
        counter = QueryCounter()
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values to take the median of")
    _check_unit_values(values)
    failed, noise = statevec.ae_draws(cfg.p_max, cfg.delta0, rng)
    return float(_noisy_medians(values[None, :], cfg, (failed[None], noise[None]),
                                (-1.0, 1.0), counter)[0])


def matrix_element_oracle(
    vectors: np.ndarray,
    k,
    l,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    counter: QueryCounter | None = None,
):
    """Gamma-approximate draws of the median-covariance entries (k, l).

    `vectors` is the (count, D) array of row vectors x_j; the inner
    products e_k^T x_j are its columns, read exactly.  k and l are indices
    or index arrays, broadcast together; the result has their shape.  Each
    entry composes three binary-search medians (column k, column l,
    deviation products), each with CDF Lipschitz constant 2.  The emitted
    value is within gamma of the exact entry with probability >= 1 - delta,
    up to the discreteness of the empirical distribution (the analysis
    assumes a Lipschitz inverse CDF).

    The entries take their randomness from rng in (flattened) order, each
    its three medians' readouts in turn, as one call per entry would.  The
    searches run in two lockstep phases over all entries: the column-k and
    column-l medians, which share one configuration, as one phase with two
    lanes per entry, then the product medians.  `vectors` must have a row,
    and its entries must lie in [-1, 1] (ValueError otherwise, raised before
    drawing from rng; see _check_unit_values).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if counter is None:
        counter = QueryCounter()
    ips = np.asarray(vectors, dtype=np.float64)
    if ips.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    if ips.shape[0] == 0:
        raise ValueError("no values to take the median of")
    _check_unit_values(ips)
    k, l = np.broadcast_arrays(k, l)
    shape = k.shape
    k, l = k.ravel(), l.ravel()
    dim = ips.shape[1]
    if np.any((k < 0) | (k >= dim) | (l < 0) | (l >= dim)):
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

    # per entry: the readouts of the column-k, column-l and product medians
    p_col = cfg_col.p_max
    block = 2 * p_col + cfg_prod.p_max
    failed, noise = statevec.ae_draws(len(k) * block, delta0, rng)
    failed, noise = failed.reshape(len(k), block), noise.reshape(len(k), block)
    # lanes [0, E) take the column-k readouts of the E = len(k) entries,
    # lanes [E, 2E) their column-l readouts
    col_draws = [np.concatenate(np.hsplit(a[:, :2 * p_col], 2)) for a in (failed, noise)]

    cols = ips.T
    med_k, med_l = np.split(
        _noisy_medians(cols[np.concatenate([k, l])], cfg_col, col_draws, (-1.0, 1.0), counter),
        2)
    prods = (cols[k] - med_k[:, None]) * (cols[l] - med_l[:, None])
    # products of two deviations bounded by 2 each lie in [-4, 4]
    return _noisy_medians(prods, cfg_prod, (failed[:, 2 * p_col:], noise[:, 2 * p_col:]),
                          (-4.0, 4.0), counter).reshape(shape)[()]
