"""Command-line runner: config validation, exit codes, artifact schemas,
and byte-identical determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aqml import boosting, cli, embedding, linalg


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


def test_inadmissible_epsilon_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "eps.json", {"median_epsilon": 0.3})
    rc = cli.main(["qpca", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "epsilon < 1/4" in capsys.readouterr().err


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
])
def test_malformed_config_exits_2(tmp_path, capsys, sub, payload):
    cfg = write_cfg(tmp_path, "bad.json", payload)
    rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


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


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("sub", ["boost", "qpca"])
def test_default_runs_build_and_decompose_each_operator_once(
    tmp_path, capsys, monkeypatch, sub
):
    # per seed: C is built in training and in the run, and decomposed there
    # (the gap) and once for every attack; each C' is built and decomposed
    # once.  qpca builds the clean core once and one poisoned core per alpha.
    counts = {}
    _count_calls(monkeypatch, linalg, "eig_hermitian", counts)
    _count_calls(monkeypatch, boosting, "_reflection_sum", counts)
    _count_calls(monkeypatch, embedding, "robust_pca_core", counts)
    assert cli.main([sub, "--seed", "0", "--out", str(tmp_path)]) == 0
    cfg = cli.parse_config(sub, None)
    seeds, alphas = cfg["seeds"], len(cfg["alphas"])
    if sub == "boost":
        assert counts["_reflection_sum"] <= seeds * (2 + alphas)
        assert counts["eig_hermitian"] <= seeds * (2 + alphas)
        assert "robust_pca_core" not in counts
    else:
        assert counts["robust_pca_core"] <= seeds * (1 + alphas)
        assert counts["eig_hermitian"] <= seeds
        assert "_reflection_sum" not in counts


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
