"""Acceptance suite.

One test per release criterion. Each prints a single PASS/FAIL line with
the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``
to see them) and enforces the criterion's tolerance and runtime budget.
"""

import itertools
import time

import numpy as np

from blockcov import (PipelineConfig, ScenarioSpec, block_constant_estimator,
                      build_gamma, build_scenario, cut_tree, dissimilarity, estimate,
                      frobenius_error, hard_threshold, hclust_complete, inv_sqrt,
                      nearest_correlation, permute_columns, permute_matrix,
                      sample_correlation, sample_gaussian, scree, select_rank_cattell,
                      select_rank_pa, soft_threshold, support_confusion, truncate_rank,
                      vech_indices, whitening_error)
from blockcov.benchmark import BenchmarkConfig, run_benchmark

SCENARIOS = ("diagonal-equal", "diagonal-unequal", "extra-diagonal-equal",
             "extra-diagonal-unequal")


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def scenario_data(kind, q, n, seed):
    truth = build_scenario(ScenarioSpec(kind, q, seed=seed))
    return truth, sample_gaussian(truth, n, seed=seed)


def test_01_rank_recovery_at_scale():
    # Extra-Diagonal-Unequal, q=500, n=30: both selectors find rank 5, <= 60 s
    t0 = time.perf_counter()
    truth, X = scenario_data("extra-diagonal-unequal", 500, 30, seed=0)
    s = scree(build_gamma(sample_correlation(X)))
    r_cattell = select_rank_cattell(s, r_max=29).r
    r_pa = select_rank_pa(X, s, seed=0).r
    elapsed = time.perf_counter() - t0
    ok = r_cattell == 5 and r_pa == 5 and elapsed <= 60
    report("1 rank recovery q=500 n=30", ok,
           f"cattell={r_cattell} pa={r_pa} time={elapsed:.1f}s (limit 60s)")


def test_02_rank_stability_small_scale():
    # q=100, n=30, 20 replications per scenario: PA >= 80%, Cattell >= 70%
    t0 = time.perf_counter()
    detail = []
    ok = True
    for kind in SCENARIOS:
        hits_cattell = hits_pa = 0
        for rep in range(20):
            truth, X = scenario_data(kind, 100, 30, seed=rep)
            s = scree(build_gamma(sample_correlation(X)))
            hits_cattell += select_rank_cattell(s, r_max=29).r == 5
            hits_pa += select_rank_pa(X, s, seed=rep).r == 5
        ok = ok and hits_pa >= 16 and hits_cattell >= 14
        detail.append(f"{kind}: cattell {hits_cattell}/20 pa {hits_pa}/20")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 300
    report("2 rank stability q=100 n=30", ok,
           "; ".join(detail) + f"; time={elapsed:.1f}s (limit 300s)")


def test_03_support_recovery_elbow():
    # Diagonal-Equal, n=50, q=100, 20 replications: median TPR >= 0.9, FPR <= 0.1
    tprs, fprs = [], []
    for rep in range(20):
        truth, X = scenario_data("diagonal-equal", 100, 50, seed=rep)
        est = estimate(X, PipelineConfig(seed=rep))
        tpr, fpr = support_confusion(truth.support, est.sigma_tilde)
        tprs.append(tpr)
        fprs.append(fpr)
    med_tpr, med_fpr = float(np.median(tprs)), float(np.median(fprs))
    ok = med_tpr >= 0.9 and med_fpr <= 0.1
    report("3 support recovery (elbow)", ok,
           f"median TPR={med_tpr:.3f} (>=0.9) median FPR={med_fpr:.3f} (<=0.1)")


def test_04_estimator_comparison():
    # Extra-Diagonal-Equal, n=30, q=100: blocks_fast beats empirical in 100%
    # of replications and the true-k hclust baseline in >= 75%
    beats_empirical = beats_hclust = 0
    for rep in range(20):
        truth, X = scenario_data("extra-diagonal-equal", 100, 30, seed=rep)
        R = sample_correlation(X)
        est = estimate(X, PipelineConfig(seed=rep))
        err_bf = frobenius_error(est.sigma_hat, truth.Sigma)
        err_emp = frobenius_error(R, truth.Sigma)
        labels = cut_tree(hclust_complete(dissimilarity(R)), 5)
        err_hc = frobenius_error(block_constant_estimator(R, labels), truth.Sigma)
        beats_empirical += err_bf < err_emp
        beats_hclust += err_bf < err_hc
    ok = beats_empirical == 20 and beats_hclust >= 15
    report("4 estimator comparison", ok,
           f"beats empirical {beats_empirical}/20 (need 20), "
           f"beats hclust {beats_hclust}/20 (need >=15)")


def test_05_permutation_robustness():
    # same setup with scrambled columns and reordering on: medians within 10%
    plain, permuted = [], []
    for rep in range(20):
        truth, X = scenario_data("extra-diagonal-equal", 100, 30, seed=rep)
        est = estimate(X, PipelineConfig(seed=rep))
        plain.append(frobenius_error(est.sigma_hat, truth.Sigma))
        Xp, perm = permute_columns(X, seed=rep)
        estp = estimate(Xp, PipelineConfig(reorder=True, seed=rep))
        permuted.append(frobenius_error(estp.sigma_hat, permute_matrix(truth.Sigma, perm)))
    med_plain, med_perm = float(np.median(plain)), float(np.median(permuted))
    rel = abs(med_perm - med_plain) / med_plain
    ok = rel <= 0.10
    report("5 permutation robustness", ok,
           f"median plain={med_plain:.3f} permuted={med_perm:.3f} rel diff={rel:.1%} (<=10%)")


def test_06_whitening_comparison():
    # Extra-Diagonal-Equal, n=50, q=100, t=0.1: median whitening error of
    # blocks_fast strictly below the empirical-correlation-based one
    wh_bf, wh_emp = [], []
    for rep in range(20):
        truth, X = scenario_data("extra-diagonal-equal", 100, 50, seed=rep)
        R = sample_correlation(X)
        est = estimate(X, PipelineConfig(inv_sqrt_threshold=0.1, seed=rep))
        wh_bf.append(whitening_error(est.inv_sqrt.matrix, truth.Sigma))
        wh_emp.append(whitening_error(inv_sqrt(R, 0.1).matrix, truth.Sigma))
    med_bf, med_emp = float(np.median(wh_bf)), float(np.median(wh_emp))
    ok = med_bf < med_emp
    report("6 whitening comparison t=0.1", ok,
           f"median blocks_fast={med_bf:.3f} < empirical={med_emp:.3f}")


def test_07_psd_projection_properties():
    # 100 random perturbed correlation matrices (q=50): exact unit diagonal,
    # min eigenvalue >= -1e-8, fixed point (<= 1e-6) on already-PD inputs; <= 30 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    q = 50
    fixed_points = 0
    for i in range(100):
        base = sample_correlation(rng.standard_normal((3 * q, q)))
        noise = rng.standard_normal((q, q)) * (0.004 * i)
        A = base + (noise + noise.T) / 2
        np.fill_diagonal(A, 1.0)
        pd_input = np.linalg.eigvalsh(A)[0] > 0
        out = nearest_correlation(A).matrix
        assert np.all(np.diag(out) == 1.0)
        assert np.linalg.eigvalsh(out)[0] >= -1e-8
        if pd_input:
            assert np.linalg.norm(out - A) <= 1e-6
            fixed_points += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 30 and fixed_points >= 10
    report("7 psd projection properties", ok,
           f"100 matrices ok, {fixed_points} PD fixed points, time={elapsed:.1f}s (limit 30s)")


def test_08_oracle_equivalences():
    rng = np.random.default_rng(1)
    # thresholding vs elementwise scan on 45 entries (q=10)
    y = rng.standard_normal(45)
    lam = 0.7
    hard_ref = np.array([v if abs(v) > lam / 2 else 0.0 for v in y])
    soft_ref = np.array([v * (1 - lam / (2 * abs(v))) if abs(v) > lam / 2 else 0.0 for v in y])
    thr_ok = (np.array_equal(hard_threshold(y, lam), hard_ref)
              and np.allclose(soft_threshold(y, lam), soft_ref, atol=1e-15))

    # block-constant estimator vs pair enumeration (q=6)
    R = sample_correlation(rng.standard_normal((12, 6)))
    labels = np.array([0, 1, 2, 0, 1, 0])
    got = block_constant_estimator(R, labels)
    ref = np.ones((6, 6))
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            ii = [k for k in range(6) if labels[k] == labels[i]]
            jj = [k for k in range(6) if labels[k] == labels[j]]
            if labels[i] != labels[j]:
                ref[i, j] = np.mean([R[a, b] for a in ii for b in jj])
            else:
                ref[i, j] = np.mean([R[a, b] for a in ii for b in ii if a != b])
    eq9_ok = np.allclose(got, ref, atol=1e-8)

    # complete linkage vs naive O(q^3) reference (q=8)
    B = rng.uniform(0, 1, size=(8, 8))
    d = (B + B.T) / 2
    np.fill_diagonal(d, 0.0)
    tree = hclust_complete(d)
    members = {i: (i,) for i in range(8)}
    ref_merges = []
    nid = 8
    while len(members) > 1:
        best = None
        for a, b in itertools.combinations(sorted(members), 2):
            dist = max(d[x, yy] for x in members[a] for yy in members[b])
            if best is None or (dist, a, b) < best:
                best = (dist, a, b)
        dist, a, b = best
        ref_merges.append((a, b, dist))
        members[nid] = members.pop(a) + members.pop(b)
        nid += 1
    link_ok = ([m[2] for m in tree.merges] == [m[2] for m in ref_merges]
               and [{m[0], m[1]} for m in tree.merges] == [{m[0], m[1]} for m in ref_merges])

    # rank truncation vs 100 random rank-r competitors (20x20)
    B = rng.standard_normal((20, 20))
    G = (B + B.T) / 2
    G3 = truncate_rank(G, 3)
    err = np.linalg.norm(G - G3)
    ey_ok = all(err <= np.linalg.norm(G - rng.standard_normal((20, 3)) @
                                      rng.standard_normal((3, 20))) + 1e-8
                for _ in range(100))

    ok = thr_ok and eq9_ok and link_ok and ey_ok
    report("8 oracle equivalences", ok,
           f"thresholding={thr_ok} block-means={eq9_ok} linkage={link_ok} eckart-young={ey_ok}")


def test_09_performance_q1000():
    # full cattell+elbow pipeline at q=1000, n=30 within 180 s, time reported
    cfg = BenchmarkConfig(scenarios=("extra-diagonal-unequal",), n_list=(30,),
                          q_list=(1000,), reps=1, methods=("blocks_fast",), seed=0)
    rows = run_benchmark(cfg)
    wall = rows[0]["wall_time_s"]
    ok = wall <= 180 and rows[0]["rank"] == 5
    report("9 performance q=1000", ok,
           f"blocks_fast wall time {wall:.1f}s (limit 180s), rank={rows[0]['rank']}")


def test_10_vech_sizing_arithmetic():
    # the q=199 coefficient count is pure arithmetic; the associated
    # real-data selection values are NOT reproduced here (data not shipped)
    q = 199
    rows, cols = vech_indices(q - 1)
    n_coeffs = rows.size
    ok = n_coeffs == q * (q - 1) // 2 == 19701
    report("10 vech sizing q=199", ok, f"{n_coeffs} coefficients (expected 19701)")
