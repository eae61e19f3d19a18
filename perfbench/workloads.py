"""Workloads of the blockcov benchmark: input pools, one operation each, output checks.

Every workload draws a pool of inputs from the scenario
``extra-diagonal-unequal`` with n = 30 samples. Input ``i`` of a run with
seed ``s`` is built from data seed ``s * pool + i``, so a seed always
gives the same inputs and seed 0 starts with the data of ``blockcov
simulate --seed 0``. The program only ever sees the generated inputs.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockcov import (PipelineConfig, ScenarioSpec, build_scenario, estimate, frobenius_error,
                      sample_gaussian, support_confusion, whitening_error)
from blockcov import cli
from blockcov.io import read_matrix_csv

SCENARIO = "extra-diagonal-unequal"
N_SAMPLES = 30
EXPECTED_PATH = Path(__file__).with_name("expected.json")
LAMBDA_RTOL = 1e-9  # lambda is a grid value; BLAS thread counts move its last digits


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which entry point, which selectors, what size."""

    family: str         # "fast", "full" or "cli-reorder"
    q: int
    pool: int           # distinct inputs per run
    rank_method: str
    lambda_method: str
    via_cli: bool = False

    @property
    def name(self):
        return f"{self.family}-q{self.q}"

    def resized(self, q=None, pool=None):
        return Workload(self.family, q or self.q, pool or self.pool, self.rank_method,
                        self.lambda_method, self.via_cli)

    def config(self):
        return PipelineConfig(rank_method=self.rank_method, lambda_method=self.lambda_method)


WORKLOADS = {w.name: w for w in (
    # blocks_fast (cattell + elbow): the nearest-correlation projection is most of the run.
    Workload("fast", 300, 32, "cattell", "elbow"),
    # blocks (pa + bl): the selectors dominate, the projection is a minor share.
    Workload("full", 200, 15, "pa", "bl"),
    # The CLI on scrambled columns: the only workload that clusters and does CSV I/O.
    Workload("cli-reorder", 300, 18, "cattell", "elbow", via_cli=True),
)}


def data_seed(seed, workload, i):
    return seed * workload.pool + i


@dataclass
class Input:
    seed: int           # data seed of this input
    X: np.ndarray = None
    dir: Path = None    # CLI inputs: holds X.csv and perm.csv, receives the outputs


def prepare(workload, seed, workdir):
    """Generate the run's input pool (CLI inputs are written by ``blockcov simulate``)."""
    inputs = []
    for i in range(workload.pool):
        d = data_seed(seed, workload, i)
        if workload.via_cli:
            folder = Path(workdir) / f"input{i}"
            folder.mkdir(parents=True, exist_ok=True)
            code = cli.main(["simulate", "--scenario", SCENARIO, "--q", str(workload.q),
                             "--n", str(N_SAMPLES), "--seed", str(d), "--permute-columns",
                             "--out-x", str(folder / "X.csv")])
            if code != 0:
                raise RuntimeError(f"blockcov simulate failed for data seed {d}")
            inputs.append(Input(seed=d, dir=folder))
        else:
            truth = build_scenario(ScenarioSpec(SCENARIO, workload.q, seed=d))
            inputs.append(Input(seed=d, X=sample_gaussian(truth, N_SAMPLES, seed=d)))
    return inputs


def run_op(workload, item):
    """One operation: the estimate for library workloads, ``blockcov estimate`` for the CLI."""
    if not workload.via_cli:
        return estimate(item.X, workload.config())
    d = item.dir
    code = cli.main(["estimate", "--input", str(d / "X.csv"), "--seed", "0",
                     "--rank", workload.rank_method, "--lambda", workload.lambda_method,
                     "--reorder", "--out-sigma", str(d / "sigma.csv"),
                     "--out-invsqrt", str(d / "invsqrt.csv"),
                     "--out-report", str(d / "report.json")])
    if code != 0:
        raise RuntimeError(f"blockcov estimate exited with {code}")
    return None


@dataclass
class Outcome:
    """What one operation produced, in the variable order of its input."""

    sigma: np.ndarray
    inv_sqrt: np.ndarray
    r: int
    lam: float
    support_size: int
    support: np.ndarray  # estimated off-diagonal support


def outcome(workload, item, result):
    if not workload.via_cli:
        return Outcome(sigma=result.sigma_hat, inv_sqrt=result.inv_sqrt.matrix, r=result.rank.r,
                       lam=result.lam.lam, support_size=result.lam.support_size,
                       support=result.support)
    report = json.loads((item.dir / "report.json").read_text())
    sigma, _ = read_matrix_csv(item.dir / "sigma.csv")
    inv, _ = read_matrix_csv(item.dir / "invsqrt.csv")
    # The CLI writes only the dense positive-definite estimate. Its support
    # is read as the entries above lambda/2, the threshold the report gives.
    support = np.abs(sigma) > report["lambda"] / 2
    np.fill_diagonal(support, False)
    return Outcome(sigma=sigma, inv_sqrt=inv, r=report["rank"], lam=report["lambda"],
                   support_size=report["support_size"], support=support)


def load_expected():
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def save_expected(expected):
    """Write {workload: {data seed: [r, lambda, support size]}}, one record per line."""
    blocks = []
    for name, table in sorted(expected.items()):
        rows = sorted(table.items(), key=lambda kv: int(kv[0]))
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def check(out, q, expected=None, library=True):
    """Names of the output checks ``out`` fails; empty when it passes them all.

    ``expected`` is the recorded (r, lambda, support size) of the input, or
    None when none was recorded for it.
    """
    if out.sigma.shape != (q, q) or out.inv_sqrt.shape != (q, q):
        return ["shape"]
    failed = []
    if not np.array_equal(out.sigma, out.sigma.T):
        failed.append("symmetric")
    if not np.all(np.diag(out.sigma) == 1.0):
        failed.append("unit_diagonal")
    if not (np.all(np.isfinite(out.sigma)) and np.linalg.eigvalsh(out.sigma)[0] > 0):
        failed.append("positive_definite")
    if not np.all(np.isfinite(out.inv_sqrt)):
        failed.append("inv_sqrt_finite")
    if library and int(np.count_nonzero(np.triu(out.support, 1))) != out.support_size:
        failed.append("support_size_consistent")
    if expected is not None:
        r, lam, size = expected
        if out.r != r:
            failed.append("expected_rank")
        if not math.isclose(out.lam, lam, rel_tol=LAMBDA_RTOL):
            failed.append("expected_lambda")
        if out.support_size != size:
            failed.append("expected_support_size")
    return failed


def quality(workload, item, out):
    """Frobenius and whitening error and support rates against the true matrix."""
    truth = build_scenario(ScenarioSpec(SCENARIO, workload.q, seed=item.seed))
    Sigma, support = truth.Sigma, truth.support
    if workload.via_cli:
        perm, _ = read_matrix_csv(item.dir / "perm.csv")
        perm = perm[:, 0].astype(int)
        Sigma, support = Sigma[np.ix_(perm, perm)], support[np.ix_(perm, perm)]
    tpr, fpr = support_confusion(support, out.support)
    return {"frobenius_error": frobenius_error(out.sigma, Sigma),
            "whitening_error": whitening_error(out.inv_sqrt, Sigma),
            "support_tpr": tpr, "support_tnr": 1.0 - fpr}
