"""Binary-search median over noisy CDF oracles and the approximate
matrix-element oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqml import embedding, median_oracle as mo, qpca, statevec
from aqml.util import QueryCounter, stream


def test_iteration_budget_examples():
    assert mo.iteration_budget(0.1, 0.02) == 4
    assert mo.iteration_budget(0.05, 0.01) == 6
    # budget collapses as epsilon approaches 1/4 with epsilon_prime = 0
    assert mo.iteration_budget(0.2499, 0.0) == 0


def test_iteration_budget_rejects_inadmissible():
    with pytest.raises(ValueError):
        mo.iteration_budget(0.3, 0.01)
    with pytest.raises(ValueError):
        mo.iteration_budget(0.1, 0.05)


def test_iteration_budget_rejects_an_overflowing_ratio():
    # (1 - 4 eps) / (2 (eps - 4 eps')) overflows to inf: ValueError, from the
    # function and from the config, not OverflowError
    with pytest.raises(ValueError):
        mo.iteration_budget(1e-320, 0.0)
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=1e-320, epsilon_prime=0.0)
    # at the smallest normal epsilon, 2^-1022, the ratio is 2^1021
    assert mo.iteration_budget(2.0**-1022, 0.0) == 1021


def test_config_invariants():
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.3, epsilon_prime=0.01)
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.05)
    cfg = mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.02, lipschitz=2.0)
    assert cfg.p_max == mo.iteration_budget(0.1, 0.02)
    assert cfg.epsilon0 == pytest.approx(0.01)
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.02, p_max=1)


def test_point_mass_median():
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.0, lipschitz=1.0)
    oracle = mo.exact_cdf_oracle(np.full(101, 0.3))
    res = mo.binary_search_median(oracle, cfg)
    # the point-mass error is half the final normalized interval on [-1, 1]
    assert abs(res.value - 0.3) <= 2.0 * cfg.epsilon


def test_uniform_median_exact_oracle():
    cfg = mo.MedianSearchConfig(epsilon=0.01, epsilon_prime=0.002, lipschitz=1.0)
    u = np.sort(stream(0, "mo", "uni").random(200001))
    oracle = mo.exact_cdf_oracle(u)
    res = mo.binary_search_median(oracle, cfg, domain=(0.0, 1.0))
    assert 0.49 <= res.value <= 0.51


def test_geometric_error_closed_form():
    # with a noiseless oracle the interval error after p steps obeys
    # 2^{-p-1} + (eps' + L eps0)(1 - 2^{-p}) in normalized units
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, lipschitz=2.0)
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    rng = stream(0, "mo", "geom")
    for trial in range(50):
        vals = np.sort(rng.uniform(-1, 1, 999))
        true_med = float(np.median(vals))
        oracle = mo.exact_cdf_oracle(vals)
        res = mo.binary_search_median(oracle, cfg)
        # the trace midpoint at step p+1 is the estimate after p steps
        for p in range(1, cfg.p_max + 1):
            if p < cfg.p_max:
                est_norm = res.trace[p][0]
            else:
                est_norm = (res.value + 1.0) / 2.0
            err = abs((-1.0 + 2.0 * est_norm) - true_med) / 2.0
            bound = 2.0 ** (-p - 1) + widen * (1.0 - 2.0**-p)
            assert err <= bound + 1e-9


def test_noisy_failure_accounting():
    cfg = mo.MedianSearchConfig(
        epsilon=0.05, epsilon_prime=0.01, delta0=0.02, lipschitz=2.0,
    )
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    tol = 2.0 * (2.0 ** (-cfg.p_max - 1) + widen * (1.0 - 2.0**-cfg.p_max))
    vals = np.sort(stream(0, "mo", "vals").uniform(-1, 1, 4001))
    true_med = float(np.median(vals))
    runs, fails = 2000, 0
    rng = stream(0, "mo", "fail")
    for _ in range(runs):
        oracle = mo.noisy_cdf_oracle(vals, cfg, rng)
        res = mo.binary_search_median(oracle, cfg)
        if abs(res.value - true_med) > tol + 1e-9:
            fails += 1
    budget = cfg.p_max * cfg.delta0
    sigma = math.sqrt(budget * (1 - budget) / runs)
    assert fails / runs <= budget + 3.0 * sigma


def test_query_charges_accumulate():
    cfg = mo.MedianSearchConfig(
        epsilon=0.05, epsilon_prime=0.01, delta0=0.01, lipschitz=1.0
    )
    counter = QueryCounter()
    vals = np.sort(stream(0, "mo", "qc").uniform(-1, 1, 501))
    mo.quantum_median(vals, cfg, stream(1, "mo", "qc"), counter=counter)
    assert counter.charges["cdf_oracle"] == cfg.p_max
    # per CDF call: one amplitude estimation (1/(eps0 delta0) charge) whose
    # comparator makes ceil(1/eps') inner-product queries
    import aqml.statevec as sv

    ae = sv.ae_query_charge(cfg.epsilon0, cfg.delta0)
    ip = math.ceil(1.0 / cfg.epsilon_prime)
    assert counter.charges["amplitude_estimation"] == cfg.p_max * ae
    assert counter.charges["data_oracle"] == cfg.p_max * ae * ip


def test_matrix_element_identical_vectors():
    data = np.tile([0.2, -0.4, 0.1], (9, 1))
    val = mo.matrix_element_oracle(
        data, 0, 1, gamma=0.1, delta=0.05, rng=stream(0, "mo", "me0")
    )
    assert abs(val) <= 0.1


def test_matrix_element_two_point():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    val = mo.matrix_element_oracle(
        data, 0, 0, gamma=0.1, delta=0.05, rng=stream(0, "mo", "me1")
    )
    assert abs(val - 1.0) <= 0.1


def test_matrix_element_random_entries():
    rng = stream(0, "mo", "me2")
    vecs = rng.uniform(-1, 1, (16, 4)) * 0.9
    exact = embedding.robust_pca_matrix(vecs)
    gamma, delta = 0.2, 0.1
    trials, good = 60, 0
    for t in range(trials):
        k = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        val = mo.matrix_element_oracle(
            vecs, k, l, gamma=gamma, delta=delta, rng=rng
        )
        if abs(val - exact[k, l]) <= gamma:
            good += 1
    sigma = math.sqrt(delta * (1 - delta) / trials)
    assert good / trials >= 1.0 - delta - 3.0 * sigma



# --- reference: one entry at a time, Fraction endpoints ---------------------
#
# The scalar construction the lockstep engine replaces: every readout draws
# its own failure test and noise from rng, and each entry runs its three
# searches one after the other.


def _ref_search(cdf_oracle, cfg, domain, counter):
    """The median estimate, the (midpoint, estimate) trace and the exact
    normalized (left, right) interval after every step."""
    lo, hi = domain
    widen = Fraction(cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0).limit_denominator(
        2**60
    )
    left, right = Fraction(0), Fraction(1)
    trace = []
    intervals = []
    for _ in range(cfg.p_max):
        mid = (left + right) / 2
        est = float(cdf_oracle(lo + float(mid) * (hi - lo)))
        counter.charge("cdf_oracle", 1)
        trace.append((float(mid), est))
        if abs(est - 0.5) <= cfg.epsilon0:
            left, right = mid - widen, mid + widen
        elif est < 0.5:
            left = mid - widen
        else:
            right = mid + widen
        left, right = max(left, Fraction(0)), min(right, Fraction(1))
        intervals.append((left, right))
    return lo + float((left + right) / 2) * (hi - lo), trace, intervals


def _ref_quantum_median(values, cfg, rng, domain, counter):
    values = np.sort(np.asarray(values, dtype=np.float64))
    ae = statevec.ae_query_charge(cfg.epsilon0, cfg.delta0)
    ip = int(math.ceil(1.0 / max(cfg.epsilon_prime, 1e-9)))

    def oracle(y):
        counter.charge("data_oracle", ae * ip)
        p = float(np.searchsorted(values, y, side="left")) / len(values)
        counter.charge("amplitude_estimation", ae)
        if cfg.delta0 > 0.0 and rng.random() < cfg.delta0:
            return 0.0 if p > 0.5 else 1.0
        return float(min(1.0, max(0.0, p + cfg.epsilon0 * (2.0 * rng.random() - 1.0))))

    return _ref_search(oracle, cfg, domain, counter)[0]


def _ref_matrix(vectors, gamma, delta, rng, counter):
    """Every (k, l) entry in row-major order, one entry at a time."""
    eps_col = min(gamma / 12.0 / 2.0, 0.2)
    eps_prod = min(gamma / 3.0 / 8.0, 0.2)
    delta0 = delta / (3 * max(1, mo.iteration_budget(eps_col, eps_col / 8.0)))
    cfg_col = mo.MedianSearchConfig(epsilon=eps_col, epsilon_prime=eps_col / 8.0,
                                    delta0=delta0)
    cfg_prod = mo.MedianSearchConfig(epsilon=eps_prod, epsilon_prime=eps_prod / 8.0,
                                     delta0=delta0)
    dim = vectors.shape[1]
    M = np.zeros((dim, dim))
    for k in range(dim):
        for l in range(dim):
            med_k = _ref_quantum_median(vectors[:, k], cfg_col, rng, (-1.0, 1.0), counter)
            med_l = _ref_quantum_median(vectors[:, l], cfg_col, rng, (-1.0, 1.0), counter)
            prods = (vectors[:, k] - med_k) * (vectors[:, l] - med_l)
            M[k, l] = _ref_quantum_median(prods, cfg_prod, rng, (-4.0, 4.0), counter)
    return M


def _assert_same_draws(run, ref):
    """(result, counter, rng) of the engine and of the reference agree bit
    for bit, charge order included."""
    (got, got_counter, got_rng), (want, want_counter, want_rng) = run, ref
    assert np.array_equal(got, want)
    assert list(got_counter.charges.items()) == list(want_counter.charges.items())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# rows on a coarse grid (exact zeros and ties are common), zero rows and
# repeated rows
_entry = st.one_of(st.sampled_from([0.0, 0.0, 0.5, -0.5, 0.25, 1.0, -1.0]),
                   st.floats(-1.0, 1.0, allow_subnormal=False))


@st.composite
def small_datasets(draw):
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(_entry, min_size=dim, max_size=dim),
                         min_size=1, max_size=3))
    pool.append([0.0] * dim)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return np.array([pool[i] for i in picks], dtype=np.float64)


_gammas = st.floats(0.001, 0.999, exclude_min=True, exclude_max=True)
_deltas = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.9))


@settings(max_examples=60, deadline=None)
@given(vectors=small_datasets(), gamma=_gammas, delta=_deltas,
       seed=st.integers(0, 2**32 - 1))
@example(vectors=np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]), gamma=0.05,
         delta=0.0, seed=0)
@example(vectors=np.array([[1.0, -1.0], [-1.0, 1.0]]), gamma=0.5, delta=0.5, seed=1)
def test_lockstep_matrix_matches_per_entry_reference(vectors, gamma, delta, seed):
    dim = vectors.shape[1]
    k, l = np.divmod(np.arange(dim * dim), dim)

    def run(fn):
        rng, counter = np.random.default_rng(seed), QueryCounter()
        return fn(rng, counter), counter, rng

    _assert_same_draws(
        run(lambda rng, c: mo.matrix_element_oracle(
            vectors, k, l, gamma=gamma, delta=delta, rng=rng, counter=c).reshape(dim, dim)),
        run(lambda rng, c: _ref_matrix(vectors, gamma, delta, rng, c)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quantum_median_build_matches_per_entry_reference(seed):
    # the embedded dataset has many exact zeros; the build symmetrizes
    vecs = stream(seed, "mo", "build").uniform(-1, 1, (3, 2))
    vecs *= 0.9 / np.max(np.linalg.norm(vecs, axis=1))
    data = embedding.embed(embedding.RawDataset(vecs, norm_bound=1.0))

    def run(fn):
        rng, counter = stream(seed, "mo", "build-draws"), QueryCounter()
        return fn(rng, counter), counter, rng

    def reference(rng, counter):
        M = _ref_matrix(data.vectors, 0.05, 0.05, rng, counter)
        return (M + M.T) / 2

    _assert_same_draws(
        run(lambda rng, c: qpca.build_matrix(data, mode="quantum-median", gamma=0.05,
                                             delta=0.05, rng=rng, counter=c)),
        run(reference))


_configs = st.builds(
    lambda eps, ratio, delta0: mo.MedianSearchConfig(
        epsilon=eps, epsilon_prime=ratio * eps, delta0=delta0),
    st.floats(0.005, 0.2), st.floats(0.01, 0.24),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_entry, min_size=1, max_size=30), cfg=_configs,
       seed=st.integers(0, 2**32 - 1))
def test_quantum_median_matches_reference(values, cfg, seed):
    def run(fn):
        rng, counter = np.random.default_rng(seed), QueryCounter()
        return fn(rng, counter), counter, rng

    _assert_same_draws(
        run(lambda rng, c: mo.quantum_median(values, cfg, rng, counter=c)),
        run(lambda rng, c: _ref_quantum_median(values, cfg, rng, (-1.0, 1.0), c)))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_entry, min_size=1, max_size=30), cfg=_configs,
       seed=st.integers(0, 2**32 - 1))
def test_binary_search_median_matches_reference(values, cfg, seed):
    # same callable noisy oracle on both sides: trace and value agree
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    res = mo.binary_search_median(mo.noisy_cdf_oracle(values, cfg, rng), cfg)
    want, trace, _ = _ref_search(mo.noisy_cdf_oracle(values, cfg, ref_rng), cfg,
                                 (-1.0, 1.0), QueryCounter())
    assert res.value == want
    assert res.trace == trace
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
# dyadic eps0 = 2^-8: 0.5 +- eps0 sit exactly on the pinning threshold
@given(cfg=st.one_of(_configs, st.just(mo.MedianSearchConfig(epsilon=2**-4,
                                                              epsilon_prime=2**-7))),
       data=st.data())
def test_interval_invariants_for_any_readouts(cfg, data):
    # whatever the oracle answers (readouts on the pinning threshold
    # included), value and trace match the reference, whose intervals keep
    # 0 <= left <= right <= 1 after every step, and each step queries the
    # midpoint of the interval before it
    edges = [0.0, 0.5, 1.0, 0.5 - cfg.epsilon0, 0.5 + cfg.epsilon0]
    answers = data.draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)),
                                 min_size=cfg.p_max, max_size=cfg.p_max))
    replies = iter(answers)
    res = mo.binary_search_median(lambda y: next(replies), cfg)
    replies = iter(answers)
    value, trace, intervals = _ref_search(lambda y: next(replies), cfg, (-1.0, 1.0),
                                          QueryCounter())
    assert (res.value, res.trace) == (value, trace)
    assert len(intervals) == len(res.trace) == cfg.p_max
    previous = (0.0, 1.0)
    for (left, right), (mid, _) in zip(intervals, res.trace):
        assert 0.0 <= left <= right <= 1.0
        assert mid == pytest.approx((previous[0] + previous[1]) / 2.0, abs=1e-15)
        previous = (left, right)


@settings(max_examples=100, deadline=None)
@given(cfg=_configs, n=st.integers(500, 1500), a=st.floats(-1.0, 0.9),
       width=st.floats(0.1, 2.0), point_mass=st.booleans())
def test_noiseless_error_bound_every_step(cfg, n, a, width, point_mass):
    # evenly spaced values (or a point mass): the empirical CDF is steep
    # enough near the median that a pinned step stays within the widening,
    # so after p steps the midpoint is within 2^(-p-1) + widen (1 - 2^(-p))
    # of the median in normalized units
    b = min(a + width, 1.0)
    values = np.full(2 * n + 1, a) if point_mass else np.linspace(a, b, 2 * n + 1)
    true_med = (float(np.median(values)) + 1.0) / 2.0
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    res = mo.binary_search_median(mo.exact_cdf_oracle(values), cfg)
    value, trace, intervals = _ref_search(mo.exact_cdf_oracle(values), cfg, (-1.0, 1.0),
                                          QueryCounter())
    assert (res.value, res.trace) == (value, trace)
    for p, (left, right) in enumerate(intervals, start=1):
        bound = 2.0 ** (-p - 1) + widen * (1.0 - 2.0**-p)
        assert left - 1e-12 <= true_med <= right + 1e-12
        assert abs((left + right) / 2.0 - true_med) <= bound + 1e-12


@settings(max_examples=100, deadline=None)
# dyadic eps0 = 2^-8: 0.5 +- eps0 sit exactly on the pinning threshold
@given(cfg=st.one_of(_configs, st.just(mo.MedianSearchConfig(epsilon=2**-4,
                                                              epsilon_prime=2**-7))),
       lanes=st.integers(1, 200), edge_share=st.sampled_from([0.0, 0.3, 1.0]),
       domain=st.sampled_from([(-1.0, 1.0), (-4.0, 4.0), (0.0, 1.0)]),
       seed=st.integers(0, 2**32 - 1))
def test_lockstep_lanes_match_one_lane_runs(cfg, lanes, edge_share, domain, seed):
    # arbitrary readouts, a share of them on the pinning threshold, the
    # domain edges or NaN: the lanes split into many search states, and each
    # lane's midpoints, readouts and value equal a one-lane run on its column
    rng = np.random.default_rng(seed)
    answers = rng.random((cfg.p_max, lanes))
    edges = [0.0, 0.5, 1.0, 0.5 - cfg.epsilon0, 0.5 + cfg.epsilon0, math.nan]
    on_edge = rng.random(answers.shape) < edge_share
    answers[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
    run = mo._lockstep_search(lambda step, y: answers[step], lanes, cfg, domain)
    for i in range(lanes):
        one = mo._lockstep_search(lambda step, y: answers[step, i:i + 1], 1, cfg, domain)
        assert np.array_equal(run.mids[:, i], one.mids[:, 0])
        assert np.array_equal(run.estimates[:, i], one.estimates[:, 0], equal_nan=True)
        assert run.values[i] == one.values[0]
        if i == 0:
            # lane 0 walks the reference's intervals: every step queries the
            # midpoint of the interval the step before left
            replies = iter(answers[:, 0].tolist())
            value, _, intervals = _ref_search(lambda y: next(replies), cfg, domain,
                                              QueryCounter())
            starts = ([(Fraction(0), Fraction(1))] + intervals)[:cfg.p_max]
            assert run.mids[:, 0].tolist() == [float((a + b) / 2) for a, b in starts]
            assert run.values[0] == value


@pytest.mark.parametrize("vectors, k", [
    (np.array([[math.nan, 0.0], [0.5, 0.5]]), 1),  # a NaN row
    (np.array([[0.5, math.inf], [0.5, 0.5]]), 0),
    (np.array([[5.0, 0.0], [7.0, 1.0]]), 0),  # column 0 outside [-1, 1]
    (np.array([[1.0 + 1e-11, 0.0]]), 1),
])
def test_matrix_element_rejects_values_outside_unit_range(vectors, k):
    rng = stream(0, "mo", "range")
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        mo.matrix_element_oracle(vectors, k, k, gamma=0.1, delta=0.05, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("values", [[3.0, 5.0], [0.0, -1.5], [math.nan, 0.0],
                                    [math.inf], [1.0 + 1e-11]])
def test_quantum_median_rejects_values_outside_unit_range(values):
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, delta0=0.01)
    rng = stream(0, "mo", "range")
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        mo.quantum_median(values, cfg, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("call", [
    lambda rng: mo.quantum_median(
        [], mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01), rng),
    lambda rng: mo.matrix_element_oracle(np.zeros((0, 3)), 0, 1, gamma=0.1, delta=0.05,
                                         rng=rng),
    # no entries asked for either
    lambda rng: mo.matrix_element_oracle(np.zeros((0, 3)), [], [], gamma=0.1, delta=0.05,
                                         rng=rng),
])
def test_empty_input_is_rejected_before_any_draw(call):
    rng = stream(0, "mo", "empty")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="no values"):
        call(rng)
    assert rng.bit_generator.state == state


def test_unit_range_allows_the_norm_slack():
    # the same 1e-12 slack RawDataset allows on norms
    edge = 1.0 + 1e-13
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01)
    assert -1.0 <= mo.quantum_median([edge, -edge, edge], cfg, stream(0, "mo", "slack")) <= 1.0
    vectors = np.array([[edge, 0.0], [-edge, 0.0], [edge, 0.0]])
    assert np.isfinite(mo.matrix_element_oracle(vectors, 0, 0, gamma=0.1, delta=0.05,
                                                rng=stream(1, "mo", "slack")))
