"""Command-line runner: config validation, exit codes, artifact schemas,
and byte-identical determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqml import boosting, cli, embedding, kmeans, linalg
from aqml.util import stream


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_artifact(out_dir, name):
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"not_a_key": 1})
    rc = cli.main(["qpca", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**32, -(2**32)])
def test_seed_outside_32_bits_exits_2_before_the_header(tmp_path, capsys, seed):
    # masked to 32 bits, each would run the stream of a seed inside them
    rc = cli.main(["kmeans", "--seed", str(seed), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: seed must lie in [0, 4294967295]" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_stream_rejects_a_seed_outside_32_bits(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        stream(seed, "kmeans")


def test_streams_of_seeds_inside_32_bits_are_unchanged():
    # raw outputs pinned from the streams as they were before the range
    # check: an in-range seed keeps its stream and its artifacts' bytes
    assert list(stream(5, "kmeans").bit_generator.random_raw(3)) == [
        4615021484055516092, 11666434961061168249, 1628646505131595945]
    assert list(stream(2**32 - 1, "qpca", "0").bit_generator.random_raw(2)) == [
        16350973645250779820, 14368912270992749420]


@pytest.mark.parametrize("under_file", [False, True])
def test_unusable_out_exits_2_before_the_header(tmp_path, capsys, under_file):
    blocker = tmp_path / "artifacts"
    blocker.write_text("not a directory")
    out = blocker / "sub" if under_file else blocker
    rc = cli.main(["kmeans", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err
    assert blocker.read_text() == "not a directory"


def test_kmeans_budget_exceeding_population_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "km.json",
                    {"n_participants": 50, "epsilon": 0.05, "rounds": 5})
    rc = cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "q1 + q2 < N" in capsys.readouterr().err


@pytest.mark.parametrize("centers", [[[0.6, 0.6, 0.1]], [[0.6], [-0.6]],
                                     [0.6, -0.6]])
def test_kmeans_blob_centers_shape_exits_2(tmp_path, capsys, centers):
    cfg = write_cfg(tmp_path, "centers.json", {"blob_centers": centers})
    rc = cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "blob_centers shape" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "kmeans_trajectory.csv")


@pytest.mark.parametrize("key", ["k", "n_participants"])
def test_kmeans_nonpositive_count_exits_2_naming_the_key(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, "km.json", {key: 0})
    rc = cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config error: {key} must lie in" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("sub,payload", [
    ("kmeans", {"blob_centers": {"a": 1}}),
    ("kmeans", {"k": 2, "d": 0, "blob_centers": [[], []]}),
    ("kmeans", {"rounds": 1.5}),
    ("qpca", {"seeds": "two"}),
    ("qpca", {"n_vectors": 0}),
    ("qpca", {"alphas": [0.45], "lipschitz": 3.0}),
    ("qpca", {"sample_bits": 40}),
    ("boost", {"bits": 0}),
    ("boost", {"n_points": 1}),
    ("boost", {"n_classifiers": 0}),
    ("boost", {"dim": 0}),
    ("boost", {"seeds": -1}),
    ("qpca", {"dim": 0}),
    ("qpca", {"sample_shots": 0}),
    ("qpca", {"norm_bound": -1.0}),
    ("qpca", {"lipschitz": 0.0}),
    ("qpca", {"lipschitz": float("nan")}),
    ("kmeans", {"blob_sigma": -1.0}),
    ("kmeans", {"privacy_check_qubits": 20}),
    ("kmeans", {"blob_centers": [[float("inf"), 0.6], [-0.6, -0.6]]}),
    ("boost", {"dim": 5000, "seeds": 1}),
    ("qpca", {"median_epsilon": 0.05}),
    ("qpca", {"sample_shots": 2**63, "seeds": 1}),
    ("qpca", {"norm_bound": 1e200, "seeds": 1}),
    ("qpca", {"lipschitz": 10**400}),
    ("qpca", {"alphas": [False], "seeds": 1}),
    ("boost", {"alphas": [0.1, False]}),
    ("kmeans", {"blob_centers": [[0.6, True], [-0.6, -0.6]]}),
    ("kmeans", {"blob_centers": [[0.6, 10**400], [-0.6, -0.6]]}),
    ("kmeans", {"epsilon": 1e-320}),
    ("kmeans", {"epsilon": 1e-320, "rounds": 0}),
    ("kmeans", {"epsilon": 5e-324, "rounds": 0}),
    ("kmeans", {"rounds": 10**400}),
    ("kmeans", {"blob_sigma": 10**400}),
    ("kmeans", {"epsilon": 0.5}),
    ("kmeans", {"epsilon": 0.9}),
    ("kmeans", {"n_participants": 10001, "epsilon": 0.4}),
    ("kmeans", {"k": 3, "d": 1, "blob_centers": [[0.6], [0.0], [-0.6]],
                "epsilon": 0.3}),
])
def test_malformed_config_exits_2(tmp_path, capsys, sub, payload):
    cfg = write_cfg(tmp_path, "bad.json", payload)
    rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("depth", [900, 100000])
def test_deeply_nested_config_exits_2(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text('{"alphas": ' + "[" * depth + "]" * depth + "}")
    rc = cli.main(["qpca", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_readme_config_table_matches_schemas():
    # every key of every subcommand, with the default and range the CLI uses
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0] in cli._SCHEMAS:
            rows[cells[0], cells[1]] = (cells[2], cells[3])
    want = {
        (sub, key): (json.dumps(default), "[{}, {}]".format(*bounds) if bounds else "")
        for sub, schema in cli._SCHEMAS.items()
        for key, (default, *bounds) in schema.items()
    }
    assert rows == want


def test_kmeans_negative_zero_sigma_runs_as_zero(tmp_path, capsys):
    # the range [0, 1e150] admits -0.0, which rng.normal rejects as a scale
    outs = {}
    for sigma in (-0.0, 0.0):
        cfg = write_cfg(tmp_path, "k.json", {"blob_sigma": sigma, "rounds": 2})
        outs[sigma] = tmp_path / repr(sigma)
        assert cli.main(["kmeans", "--config", cfg, "--out", str(outs[sigma])]) == 0
    for name in ("kmeans_trajectory.csv", "kmeans_privacy.csv"):
        assert (read_artifact(str(outs[-0.0]), name)
                == read_artifact(str(outs[0.0]), name))


def blobs_reference(rng, centers, sigma, n):
    """The former blob draw of `run_kmeans`, kept as the reference: one
    `rng.normal` per blob, stacked, then a permuted copy."""
    k, d = centers.shape
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    X = np.vstack([np.clip(rng.normal(c, abs(sigma), (m, d)), -1, 1)
                   for c, m in zip(centers, sizes)])
    return X[rng.permutation(n)]


_CENTER_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 4),
    d=st.integers(1, 8),
    n=st.integers(1, 60),
    sigma=st.sampled_from([0.0, -0.0, 0.05, 1e150]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blob_draw_matches_per_blob_normals(k, d, n, sigma, data, seed):
    centers = np.array(
        data.draw(st.lists(st.lists(_CENTER_VALUES, min_size=d, max_size=d),
                           min_size=k, max_size=k)), dtype=np.float64)
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    want = blobs_reference(rng_ref, centers, sigma, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = cli._blobs(rng_new, centers, sigma, n)
    assert got.shape == want.shape == (n, d)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_write_csv_over_a_longer_file_writes_the_fresh_bytes(tmp_path):
    columns = ["a", "b"]
    rows = [[1, 0.5], [2, float("nan")], ["x", -0.0]]
    cli._write_csv(tmp_path / "fresh.csv", columns, rows)
    path = tmp_path / "old.csv"
    path.write_bytes(b"stale,row\n" * 1000)
    cli._write_csv(path, columns, rows)
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_symlink_at_an_artifact_path_is_replaced(tmp_path, capsys):
    # the artifact is a new file: the link goes, and its target is untouched
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target.csv"
    target.write_bytes(b"keep me\n")
    link = out / "kmeans_trajectory.csv"
    link.symlink_to(target)
    cfg = write_cfg(tmp_path, "k.json", {"n_participants": 2000, "rounds": 1})
    assert cli.main(["kmeans", "--config", cfg, "--out", str(out)]) == 0
    assert not link.is_symlink() and link.is_file()
    assert target.read_bytes() == b"keep me\n"
    assert link.read_bytes().startswith(f"# {cli.CSV_SCHEMA_VERSION}\n".encode())


def test_directory_at_an_artifact_path_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "kmeans_privacy.csv").mkdir(parents=True)
    cfg = write_cfg(tmp_path, "k.json", {"n_participants": 2000, "rounds": 1})
    assert cli.main(["kmeans", "--config", cfg, "--out", str(out)]) == 3
    assert "internal error" in capsys.readouterr().err
    assert (out / "kmeans_privacy.csv").is_dir()


def test_kmeans_centers_near_float_max_run_without_overflow(tmp_path, capsys):
    # the seed centroids are 1.5 x the centers, clipped to [-1, 1]; 1.5 x
    # 1.7e308 itself overflows to inf
    cfg = write_cfg(tmp_path, "k.json",
                    {"blob_centers": [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path)]) == 0


# JSON values for the exit-code properties: huge and negative ints, subnormal,
# signed-zero and near-overflow floats, bools, strings, null, nested lists and
# objects
_edges = st.sampled_from([
    2**31, 2**63 - 1, 2**63, -2**63, 10**400, -10**400, 0.0, -0.0, 5e-324, 1e-320,
    2.2250738585072014e-308, 1e150, 1e200, 1e308, -1e308, 1.7976931348623157e308,
])
_ints = st.one_of(_edges.filter(lambda v: isinstance(v, int)),
                  st.integers(-3, 10), st.integers())
_numbers = st.one_of(_edges, st.integers(-3, 10), st.integers(), st.floats(0.0, 1.0),
                     st.floats(allow_nan=False, allow_infinity=False))
_json = st.recursive(
    st.one_of(_numbers, st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)


def _mostly(common, rare=_json):
    """Values from `common`, and from `rare` one time in ten."""
    return st.sampled_from(range(10)).flatmap(lambda i: rare if i == 0 else common)


def _value_for(default):
    if isinstance(default, list):
        return _mostly(st.lists(_value_for(default[0]), max_size=4))
    return _mostly(_ints if isinstance(default, int) else _numbers)


def _defaults(sub):
    return cli.parse_config(sub, None)


@st.composite
def _configs(draw, sub):
    keys = sorted(_defaults(sub)) + ["not_a_key"]
    cfg = {key: draw(_value_for(_defaults(sub).get(key, 0)))
           for key in draw(st.sets(st.sampled_from(keys), max_size=3))}
    return draw(_mostly(st.just(cfg)))


@pytest.mark.parametrize("sub", ["qpca", "boost", "kmeans"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parse_config_returns_or_raises_config_error(tmp_path, sub, data):
    payload = data.draw(_configs(sub))
    path = write_cfg(tmp_path, "cfg.json", payload)
    try:
        cfg = cli.parse_config(sub, path)
    except (ValueError, TypeError):
        return
    assert sorted(cfg) == sorted(_defaults(sub))


# upper ends of the keys that set the size of a run
_SIZE_CAPS = {
    "qpca": {"n_vectors": 9, "dim": 4, "seeds": 1},
    "boost": {"n_classifiers": 30, "dim": 4, "n_points": 20, "seeds": 1},
    "kmeans": {"k": 3, "d": 3, "n_participants": 3000},
}


@st.composite
def _small_configs(draw, sub):
    cfg = {}
    for key, default in _defaults(sub).items():
        if not draw(st.booleans()):
            continue
        cap = _SIZE_CAPS[sub].get(key)
        if cap is None:
            cfg[key] = draw(_value_for(default))
        else:  # any JSON value but an int above the cap
            ints = _mostly(st.integers(1, cap), st.integers(max_value=cap))
            cfg[key] = draw(_mostly(ints, _json.filter(
                lambda v: type(v) is not int or v <= cap)))
    k, d = cfg.get("k", 2), cfg.get("d", 2)
    if sub == "kmeans" and type(k) is type(d) is int and k >= 1 and d >= 1:
        # mostly centers of the right shape, with any entries
        shaped = st.lists(st.lists(_numbers, min_size=d, max_size=d),
                          min_size=k, max_size=k)
        cfg["blob_centers"] = draw(_mostly(shaped, _value_for([[0.0]])))
    return cfg


@pytest.mark.parametrize("sub", ["qpca", "boost", "kmeans"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_keeps_exit_code_contract(tmp_path, sub, data):
    # 0 ok, 1 bound violated, 2 bad config; never 3 or an exception
    payload = data.draw(_small_configs(sub))
    path = write_cfg(tmp_path, "cfg.json", payload)
    rc = cli.main([sub, "--config", path, "--out", str(tmp_path / "out")])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("payload", [{"dim": 4097, "n_vectors": 3},
                                     {"n_vectors": 2, "dim": 820}])
def test_qpca_matrix_over_dim_cap_exits_2(tmp_path, capsys, payload):
    # N x N for N_v >= 3 (4097), N(2 N_v + 1) square below (820 * 5 = 4100)
    cfg = write_cfg(tmp_path, "big.json", payload)
    rc = cli.main(["qpca", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("payload", [{"n_vectors": 10000, "seeds": 1},
                                     {"norm_bound": 0.0, "seeds": 1}])
def test_qpca_exact_core_edge_configs_run(tmp_path, capsys, payload):
    # far past the embedded dimension cap, and R = 0 (an all-zero core)
    cfg = write_cfg(tmp_path, "q.json", payload)
    assert cli.main(["qpca", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = read_artifact(str(tmp_path), "qpca.csv").decode().splitlines()
    assert len(lines) == 2 + 3


@pytest.mark.parametrize("payload,flag", [({}, "1"), ({"sample_bits": 16}, "0")])
def test_qpca_unresolved_column(tmp_path, capsys, payload, flag):
    # at seed 0 the first dataset's core eigenvalues are closer than two
    # cells of the default 10-bit phase grid, and 16 bits separate them
    cfg = write_cfg(tmp_path, "q.json", payload)
    assert cli.main(["qpca", "--config", cfg, "--seed", "0", "--out", str(tmp_path)]) == 0
    lines = read_artifact(str(tmp_path), "qpca.csv").decode().splitlines()
    columns = lines[1].split(",")
    assert columns[-1] == "unresolved"
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    first = [r["unresolved"] for r in rows if r["seed"] == "0"]
    assert first == [flag] * 3


def test_runner_crash_exits_3(tmp_path, capsys, monkeypatch):
    # an exception from a runner is an internal error, not exit 1
    def crash(*args, **kwargs):
        raise RuntimeError("runner crashed")

    monkeypatch.setitem(cli._RUNNERS, "boost", crash)
    rc = cli.main(["boost", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 3
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_config_past_memory_exits_2(tmp_path, capsys):
    # 2^50 participants ask for petabytes: the first allocation fails at
    # once on any machine, before anything is written
    cfg = write_cfg(tmp_path, "huge.json", {"n_participants": 2**50})
    rc = cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: needs more memory than is available" in err
    assert "internal error" not in err
    assert not os.path.exists(tmp_path / "out" / "kmeans_trajectory.csv")


def test_boost_two_points_redraws_single_class_resamples(tmp_path, capsys):
    # two points make every bootstrap resample a coin flip between one and
    # two classes; single-class resamples are drawn again, never a crash
    cfg = write_cfg(tmp_path, "b.json",
                    {"n_points": 2, "n_classifiers": 3000, "seeds": 1})
    rc = cli.main(["boost", "--config", cfg, "--seed", "0", "--out", str(tmp_path)])
    assert rc in (0, 1)
    assert "internal error" not in capsys.readouterr().err


def test_verify_subcommand_passes(tmp_path, capsys):
    rc = cli.main(["verify", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    data = read_artifact(str(tmp_path), "verify.csv").decode()
    assert data.startswith(f"# {cli.CSV_SCHEMA_VERSION}\n")
    assert "FAIL" not in data


def test_qpca_artifact_shape_and_header(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "q.json",
                    {"seeds": 2, "n_vectors": 10, "sample_shots": 1000})
    rc = cli.main(["qpca", "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    header = json.loads(out.splitlines()[0])
    assert header["subcommand"] == "qpca"
    assert header["seed"] == 1
    lines = read_artifact(str(tmp_path), "qpca.csv").decode().splitlines()
    assert lines[0] == f"# {cli.CSV_SCHEMA_VERSION}"
    assert lines[1].split(",")[:3] == ["seed", "alpha", "L"]
    # one row per (seed, alpha) pair plus version and column headers
    assert len(lines) == 2 + 2 * 3


def test_boost_artifact_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.json", {"seeds": 2, "n_points": 30})
    rc = cli.main(["boost", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = read_artifact(str(tmp_path), "boost.csv").decode().splitlines()
    # three method rows per (seed, alpha)
    assert len(lines) == 2 + 2 * 2 * 3


def test_kmeans_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.json", {"n_participants": 4000, "rounds": 3})
    rc = cli.main(["kmeans", "--out", str(tmp_path), "--config", cfg])
    assert rc == 0
    traj = read_artifact(str(tmp_path), "kmeans_trajectory.csv").decode()
    priv = read_artifact(str(tmp_path), "kmeans_privacy.csv").decode()
    assert traj.startswith(f"# {cli.CSV_SCHEMA_VERSION}")
    assert priv.splitlines()[1] == "q1,q2,N,p_opt_exact,p_opt_closed,bound"
    assert len(priv.splitlines()) == 3  # exactly one privacy row


@pytest.mark.parametrize("sub,extra", [
    ("qpca", {"seeds": 1, "n_vectors": 8, "sample_shots": 500}),
    ("boost", {"seeds": 1, "n_points": 20}),
    ("kmeans", {"n_participants": 2000, "rounds": 2}),
])
def test_reruns_are_byte_identical(tmp_path, capsys, sub, extra):
    cfg = write_cfg(tmp_path, f"{sub}.json", extra)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main([sub, "--config", cfg, "--seed", "5", "--out", str(out_a)]) == 0
    assert cli.main([sub, "--config", cfg, "--seed", "5", "--out", str(out_b)]) == 0
    for name in os.listdir(out_a):
        if name.endswith(".csv"):
            assert read_artifact(str(out_a), name) == read_artifact(str(out_b), name)


def _count_calls(monkeypatch, module, name, counts, key=None):
    original = getattr(module, name)
    key = key or name

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("sub", ["boost", "qpca"])
def test_default_runs_build_and_decompose_each_operator_once(
    tmp_path, capsys, monkeypatch, sub
):
    # per seed: C is built and decomposed once, in training, and the gap,
    # the run and every attack reuse both; each C' is built and decomposed
    # once.  qpca builds the clean core and every alpha's poisoned core in
    # one batched median call, and takes the poisoning norms from one SVD.
    # Inputs are checked once: one RawDataset (qpca) or EnsembleSpec (boost)
    # per seed, and one Hermitian check per decomposition.
    counts = {}
    _count_calls(monkeypatch, linalg, "eig_hermitian", counts)
    _count_calls(monkeypatch, linalg, "check_hermitian", counts)
    _count_calls(monkeypatch, embedding.RawDataset, "__post_init__", counts, "RawDataset")
    _count_calls(monkeypatch, boosting.EnsembleSpec, "__post_init__", counts, "EnsembleSpec")
    _count_calls(monkeypatch, boosting, "_reflection_sum", counts)
    _count_calls(monkeypatch, embedding, "robust_pca_core", counts)
    _count_calls(monkeypatch, embedding, "robust_pca_matrix", counts)
    _count_calls(monkeypatch, np.linalg, "svd", counts)
    assert cli.main([sub, "--seed", "0", "--out", str(tmp_path)]) == 0
    cfg = cli.parse_config(sub, None)
    seeds, alphas = cfg["seeds"], len(cfg["alphas"])
    if sub == "boost":
        assert counts["_reflection_sum"] <= seeds * (1 + alphas)
        assert counts["eig_hermitian"] <= seeds * (1 + alphas)
        assert counts["EnsembleSpec"] == seeds
        assert "robust_pca_core" not in counts
        assert "robust_pca_matrix" not in counts
        assert "RawDataset" not in counts
    else:
        assert counts["robust_pca_core"] <= seeds
        assert counts["robust_pca_matrix"] <= seeds
        assert counts["svd"] <= seeds
        assert counts["eig_hermitian"] <= seeds
        assert counts["RawDataset"] == seeds
        assert counts["check_hermitian"] == counts["eig_hermitian"]
        assert "_reflection_sum" not in counts
        assert "EnsembleSpec" not in counts


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_epsilon_at_the_blob_share_limit_runs(tmp_path, capsys, seed):
    # 1.25 * 0.4 equals the share 1/2 of each default blob
    cfg = write_cfg(tmp_path, "k.json", {"epsilon": 0.4})
    assert cli.main(["kmeans", "--config", cfg, "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_privacy_is_checked_once_on_every_run(tmp_path, capsys, monkeypatch,
                                                      seed):
    # the written optimum is the explicit one-qubit state's, on every run
    counts = {}
    _count_calls(monkeypatch, kmeans, "privacy_analysis", counts)
    assert cli.main(["kmeans", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert counts == {"privacy_analysis": 1}
    lines = read_artifact(str(tmp_path), "kmeans_privacy.csv").decode().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    q, N = int(row["q1"]) + int(row["q2"]), int(row["N"])
    exact = float(row["p_opt_exact"])
    assert exact == kmeans.privacy_density_matrix(q, N, 1)
    assert abs(exact - float(row["p_opt_closed"])) <= 1e-9


def test_parser_is_built_once_across_calls(tmp_path, capsys, monkeypatch):
    # the top-level parser and its subparsers are constructed on the first
    # call only; later calls, valid or not, reuse them
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        cfg = write_cfg(tmp_path, "k.json", {"n_participants": 2000, "rounds": 1})
        bad = write_cfg(tmp_path, "bad.json", {"not_a_key": 1})
        assert cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path)]) == 0
        for sub in ("qpca", "boost", "kmeans"):
            assert cli.main([sub, "--config", bad, "--out", str(tmp_path)]) == 2
        assert cli.main(["kmeans", "--config", cfg, "--out", str(tmp_path)]) == 0
    finally:
        cli._parser.cache_clear()
    assert built.count("aqml") == 1
    assert len(built) == 1 + len(cli._RUNNERS)


def test_parser_reuse_after_bad_flags(tmp_path, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kmeans", "--seed", "x"])
        assert exc.value.code == 2
    capsys.readouterr()
    cfg = write_cfg(tmp_path, "k.json", {"n_participants": 2000, "rounds": 2})
    argv = ["kmeans", "--config", cfg, "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "reused")]) == 0
    header = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "aqml.cli", *argv, str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=False,
    )
    assert fresh.returncode == 0
    assert fresh.stdout.decode() == header
    for name in ("kmeans_trajectory.csv", "kmeans_privacy.csv"):
        assert (read_artifact(str(tmp_path / "reused"), name)
                == read_artifact(str(tmp_path / "fresh"), name))
