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

Each piece of a step's work runs as often as what it depends on changes;
see `_lockstep_search` and `_noisy_medians`.
"""

from __future__ import annotations

import functools
import math
import struct
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
    if value == math.inf:
        raise ValueError("epsilon - 4 epsilon_prime too small: the budget overflows")
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
        # the budget checks the range of epsilon and epsilon_prime
        budget = iteration_budget(self.epsilon, self.epsilon_prime)
        if not 0.0 <= self.delta0 < 1.0:
            raise ValueError("delta0 must lie in [0, 1)")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.p_max is None:
            self.p_max = budget
        elif self.p_max < budget:
            raise ValueError("p_max below the required iteration budget")

    @property
    def epsilon0(self) -> float:
        """Amplitude-estimation precision, fixed at epsilon_prime / L."""
        return self.epsilon_prime / self.lipschitz


@dataclass
class MedianSearchResult:
    value: float
    trace: list  # (midpoint, estimate) per iteration


class _Lockstep(NamedTuple):
    values: np.ndarray  # median estimates, (lanes,)
    mids: np.ndarray  # normalized midpoint of every step, (p_max, lanes)
    estimates: np.ndarray  # CDF readout of every step, (p_max, lanes)


_SIGN = 1 << 63
_INF_KEY = 0x7FF0000000000000  # order key of +inf; -inf has its negative


def _order_key(x: float) -> int:
    """An integer that orders the non-NaN floats as they compare (-0.0 and
    0.0 share 0), one apart for neighbouring floats."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return -(bits ^ _SIGN) if bits & _SIGN else bits


def _from_order_key(key: int) -> float:
    bits = -key | _SIGN if key < 0 else key
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@functools.lru_cache(maxsize=64)
def _search_constants(widening: float, epsilon0: float) -> tuple:
    """(numerator, denominator, below, above) of every search with these
    parameters: the widening eps' + L eps0 as a fraction with denominator at
    most 2^60, and the pin band, the floats below <= above between which lie
    exactly the readouts est with |est - 0.5| <= epsilon0, the subtraction
    rounded as a float subtraction rounds it."""
    widen = Fraction(widening).limit_denominator(2**60)  # rejects NaN and Inf

    def pinned(key: int) -> bool:
        return abs(_from_order_key(key) - 0.5) <= epsilon0

    half = _order_key(0.5)
    if not pinned(half):  # a negative epsilon0 pins no readout
        return widen.numerator, widen.denominator, 0.5, math.nextafter(0.5, 0.0)
    # the rounded x - 0.5 is monotone in x, so the pinned readouts form one
    # interval around 0.5 (at eps0 = 0.5 it reaches down to -2^-54); bisect
    # each end of it over the order keys, pinned at `inside`, not at `outside`
    # (which starts one key past -inf or +inf): at most 64 probes an end
    ends = []
    for outside in (-_INF_KEY - 1, _INF_KEY + 1):
        inside = half
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if pinned(mid):
                inside = mid
            else:
                outside = mid
        ends.append(_from_order_key(inside))
    return widen.numerator, widen.denominator, ends[0], ends[1]


def _lockstep_search(readout, lanes: int, cfg: MedianSearchConfig, domain: tuple) -> _Lockstep:
    """Run `lanes` binary-search medians together, one step at a time.

    readout(step, y) returns the CDF estimates at the lanes' query points y,
    a float array of shape (lanes,).

    `states` is the table of distinct exact (left, right) endpoint pairs and
    sid[i] is the entry of lane i.  Each step takes the midpoint and query
    point of every state, gathers them to the lanes with one take, reads
    every lane out and gives the lane a move from the pin band (below,
    above): 0 lowers right (est > above, or NaN), 1 pins both endpoints
    near the midpoint (below <= est <= above), 2 raises left (est < below),
    that is (est < below) + (est <= above).  The next table holds one state
    per distinct key sid * 3 + move, in increasing key order, and each lane
    takes the index of its key, so every lane holds the endpoints its own
    one-lane search would.  The integer arithmetic thus runs once per
    distinct state: lanes with the same moves so far share one.
    """
    lo, hi = domain
    if not hi > lo:
        raise ValueError("empty search domain")
    # widening applied to the updated endpoint each iteration; keeps the
    # true median inside the interval despite readout errors.  A readout
    # within eps0 of 1/2 certifies the midpoint as a near-median: in the
    # success branch |F(mid) - 1/2| <= 2 eps0, so the median lies within
    # L * 2 eps0 = eps' + L eps0 of mid.  Pinning the interval there keeps
    # degenerate CDFs (flat at 1/2) from random-walking.
    num, den, below, above = _search_constants(
        cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0, cfg.epsilon0)
    # every endpoint and midpoint is an integer over this denominator
    denom = den << (cfg.p_max + 1)
    step_w = num << (cfg.p_max + 1)
    width = hi - lo
    states = [(0, denom)]
    sid = np.zeros(lanes, dtype=np.intp)
    mids = np.empty((cfg.p_max, lanes))
    ests = np.empty((cfg.p_max, lanes))
    for step in range(cfg.p_max):
        centre = [(left + right) // 2 for left, right in states]
        at = [c / denom for c in centre]  # int / int rounds correctly
        mid, y = np.array([at, [lo + m * width for m in at]]).take(sid, axis=1)
        mids[step] = mid
        est = ests[step] = readout(step, y)
        key = 3 * sid + (est < below)
        key += est <= above
        counts = np.bincount(key)
        taken = counts.nonzero()[0]  # the distinct keys, ascending
        counts[taken] = np.arange(len(taken))
        sid = counts.take(key)
        moved = []
        for k in taken.tolist():
            s, how = divmod(k, 3)
            (left, right), c = states[s], centre[s]
            if how:
                left = max(c - step_w, 0)
            if how < 2:
                right = min(c + step_w, denom)
            moved.append((left, right))
        states = moved
    final = np.array([lo + (left + right) // 2 / denom * width for left, right in states])
    return _Lockstep(final.take(sid), mids, ests)


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
    """Medians of the columns of `values` (n, lanes), searched together; the
    readout of lane i at step t is the empirical CDF through the
    amplitude-estimation contract with the drawn (failed, noise)[t, i]:
    prob + eps0 (2 noise - 1) clipped to [0, 1], or, where failed, the end
    point of [0, 1] farthest from prob.  The jitter eps0 (2 noise - 1) and
    the failed lanes of every step are found once, before the first step."""
    statevec.check_ae_precision(cfg.epsilon0, cfg.delta0)
    failed, noise = draws
    n = len(values)
    jitter = cfg.epsilon0 * (2.0 * np.ascontiguousarray(noise) - 1.0)
    step_of, lane_of = failed.nonzero()  # ascending steps
    # the failed lanes of step t are lane_of[first[t]:first[t + 1]]
    first = step_of.searchsorted(np.arange(cfg.p_max + 1)).tolist()
    below = np.empty(values.shape, dtype=bool)
    count_type = np.min_scalar_type(n)  # holds every count, up to n

    def readout(step, y):
        np.less(values, y, out=below)
        prob = np.add.reduce(below.view(np.uint8), axis=0, dtype=count_type) / n
        est = prob + jitter[step]
        np.maximum(0.0, est, out=est)
        np.minimum(1.0, est, out=est)
        if first[step] < first[step + 1]:
            f = lane_of[first[step]:first[step + 1]]
            est[f] = prob[f] <= 0.5
        return est

    medians = _lockstep_search(readout, values.shape[1], cfg, domain).values
    readouts = medians.size * cfg.p_max
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
    return float(_noisy_medians(values[:, None], cfg, (failed[:, None], noise[:, None]),
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
    # the draws step by step: lanes [0, E) take the column-k readouts of the
    # E = len(k) entries, lanes [E, 2E) their column-l readouts
    col_draws = [a[:, :2 * p_col].reshape(-1, 2, p_col).T.reshape(p_col, -1)
                 for a in (failed, noise)]

    cols = ips.take(np.concatenate([k, l]), axis=1)
    med = _noisy_medians(cols, cfg_col, col_draws, (-1.0, 1.0), counter)
    prods = (cols[:, :len(k)] - med[:len(k)]) * (cols[:, len(k):] - med[len(k):])
    # products of two deviations bounded by 2 each lie in [-4, 4]
    return _noisy_medians(prods, cfg_prod, (failed[:, 2 * p_col:].T, noise[:, 2 * p_col:].T),
                          (-4.0, 4.0), counter).reshape(shape)[()]
