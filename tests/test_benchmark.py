import csv
from dataclasses import replace

import numpy as np
import pytest

import blockcov.benchmark
import blockcov.pipeline
from blockcov.benchmark import METHODS, BenchmarkConfig, run_benchmark, write_results
from blockcov.permute import hclust_complete
from blockcov.simulate import build_scenario


def read_results(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# schema:")
        return list(csv.DictReader(fh))


def test_row_cardinality(tmp_path):
    cfg = BenchmarkConfig(scenarios=("diagonal-equal", "extra-diagonal-equal"),
                          n_list=(20,), q_list=(20, 30), reps=1,
                          methods=("empirical", "hclust"), seed=0)
    rows = run_benchmark(cfg)
    assert len(rows) == 2 * 1 * 2 * 2
    out = tmp_path / "results.csv"
    write_results(out, rows)
    assert len(read_results(out)) == len(rows)


def test_unknown_method_rejected():
    cfg = BenchmarkConfig(scenarios=("diagonal-equal",), n_list=(20,), q_list=(20,),
                          methods=("specc",))
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark(cfg)


@pytest.mark.parametrize("bad", [
    dict(scenarios=("diagonal-equal", "banded")),
    dict(q_list=(20, 5)),
    dict(reps=0),
    dict(jobs=0),
    dict(n_list=(20, 1)),
    dict(n_list=(20, 4), methods=("blocks",)),
    dict(reps=1.5),
    dict(reps=True),
    dict(jobs=2.0),
    dict(seed=2.5),
    dict(seed=-1),
    dict(n_list=(20, 20.5)),
    dict(reorder="no"),
    dict(permute_columns="no"),
    dict(permute_columns=1),
], ids=["unknown-scenario-second", "q-too-small-second", "zero-reps", "zero-jobs",
        "one-sample-second", "bl-on-n4-second", "fractional-reps", "bool-reps", "float-jobs",
        "fractional-seed", "negative-seed", "fractional-n-second", "string-reorder",
        "string-permute-columns", "int-permute-columns"])
def test_bad_config_rejected_before_any_cell(monkeypatch, bad):
    built = []
    monkeypatch.setattr(blockcov.benchmark, "build_scenario",
                        lambda spec: built.append(spec) or build_scenario(spec))
    cfg = dict(scenarios=("diagonal-equal",), n_list=(20,), q_list=(20,),
               methods=("empirical",))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkConfig(**{**cfg, **bad}))
    assert built == []


@pytest.mark.parametrize("flag", ["reorder", "permute_columns"])
def test_flags_must_be_booleans(flag):
    cfg = BenchmarkConfig(scenarios=("diagonal-equal",), n_list=(20,), q_list=(20,),
                          methods=("empirical",), **{flag: "no"})
    with pytest.raises(ValueError, match=f"{flag} must be True or False, got 'no'"):
        run_benchmark(cfg)
    # numpy's booleans are booleans
    assert len(run_benchmark(replace(cfg, **{flag: np.True_}))) == 1


@pytest.mark.parametrize("scrambled", [False, True])
def test_blocks_real_perfect_support_on_equal_scenario(scrambled):
    cfg = BenchmarkConfig(scenarios=("diagonal-equal",), n_list=(50,), q_list=(30,),
                          reps=2, methods=("blocks_real",), seed=0,
                          permute_columns=scrambled, reorder=scrambled)
    rows = run_benchmark(cfg)
    for row in rows:
        assert row["tpr"] == 1.0
        assert row["fpr"] == 0.0


def test_blocks_real_clusters_once_per_cell(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d.shape)
        return hclust_complete(d)
    monkeypatch.setattr(blockcov.benchmark, "hclust_complete", counting)
    monkeypatch.setattr(blockcov.pipeline, "hclust_complete", counting)
    run_benchmark(BenchmarkConfig(scenarios=("diagonal-equal",), n_list=(30,), q_list=(20,),
                                  methods=("blocks_real",), permute_columns=True,
                                  reorder=True))
    assert calls == [(20, 20)]


def test_deterministic_across_worker_counts():
    base = dict(scenarios=("extra-diagonal-equal",), n_list=(20,), q_list=(20,),
                reps=3, methods=("empirical", "blocks_fast", "kmeans"), seed=7)
    serial = run_benchmark(BenchmarkConfig(**base, jobs=1))
    parallel = run_benchmark(BenchmarkConfig(**base, jobs=2))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        for key in a:
            if key == "wall_time_s":
                continue
            assert a[key] == b[key] or (a[key] != a[key] and b[key] != b[key])


def test_permuted_benchmark_runs_and_scores_against_permuted_truth():
    base = dict(scenarios=("diagonal-equal",), n_list=(30,), q_list=(20,), reps=2,
                methods=("blocks_fast",), seed=3)
    plain = run_benchmark(BenchmarkConfig(**base))
    permuted = run_benchmark(BenchmarkConfig(**base, permute_columns=True, reorder=True))
    for a, b in zip(plain, permuted):
        assert b["frobenius_error"] <= 3 * a["frobenius_error"] + 1.0


def test_all_methods_produce_finite_metrics():
    cfg = BenchmarkConfig(scenarios=("extra-diagonal-unequal",), n_list=(25,),
                          q_list=(20,), reps=1, methods=METHODS, seed=1)
    rows = run_benchmark(cfg)
    assert [r["method"] for r in rows] == list(METHODS)
    for row in rows:
        assert np.isfinite(row["frobenius_error"])
        assert np.isfinite(row["whitening_error"])
        assert row["wall_time_s"] > 0
