"""Tests of the benchmark harness, on tiny inputs."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import blockcov.psd  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "0", "--seconds", "0", "--q", "60", "--pool", "2"]


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")

    def call(workload, trace):
        assert run.main(["--workload", workload, "--trace", str(trace), *TINY]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return call


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_completes_at_tiny_size(bench, workload):
    result = bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(bench, trace, kind):
    result = bench("cli-reorder-q300", trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_names_the_defined_workloads():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_shims_are_removed_and_counts_repeat(bench):
    originals = [(m, attr, getattr(m, attr)) for m, attr, _ in spans.shim_targets()]
    first = bench("full-q200", 1)["metrics"]
    second = bench("full-q200", 1)["metrics"]
    assert all(getattr(m, attr) is fn for m, attr, fn in originals)
    assert blockcov.pipeline.nearest_correlation is blockcov.psd.nearest_correlation
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["sparsify.hard_threshold.calls"]["value"] == 5002
    assert first["lowrank.truncate_rank.calls"]["value"] == 52


def test_quality_summary_ignores_a_few_outlying_inputs():
    pool = [0.99, 0.98, 0.995, 0.985, 0.99, 0.97, 0.99, 0.98, 0.995, 0.99, 0.0, 0.027]
    assert run.interquartile_mean(pool) == pytest.approx(0.985833333)
    assert run.interquartile_mean([2.0]) == 2.0
    assert math.isnan(run.interquartile_mean([]))


def test_output_check_rejects_a_corrupted_estimate(tmp_path):
    wl = workloads.WORKLOADS["fast-q300"].resized(q=60, pool=1)
    item = workloads.prepare(wl, 0, tmp_path)[0]
    good = workloads.outcome(wl, item, workloads.run_op(wl, item))
    recorded = (good.r, good.lam, good.support_size)
    assert workloads.check(good, 60, recorded) == []

    def corrupt(**changes):
        out = workloads.Outcome(**{**vars(good), **changes})
        return workloads.check(out, 60, recorded)

    skewed = good.sigma.copy()
    skewed[0, 1] += 1e-3
    assert corrupt(sigma=skewed) == ["symmetric"]
    off_diagonal = good.sigma.copy()
    off_diagonal[3, 3] = 1.0 + 1e-12
    assert corrupt(sigma=off_diagonal) == ["unit_diagonal"]
    indefinite = np.full((60, 60), -0.5)
    np.fill_diagonal(indefinite, 1.0)
    assert "positive_definite" in corrupt(sigma=indefinite)
    broken_root = good.inv_sqrt.copy()
    broken_root[2, 5] = np.nan
    assert corrupt(inv_sqrt=broken_root) == ["inv_sqrt_finite"]
    assert corrupt(r=good.r + 1) == ["expected_rank"]
    assert corrupt(lam=good.lam * 1.001) == ["expected_lambda"]
    assert corrupt(support_size=good.support_size + 1) == [
        "support_size_consistent", "expected_support_size"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fast-q300",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
