"""Command-line interface.

Subcommands: ``estimate`` (fit on a CSV data matrix), ``simulate``
(generate a synthetic scenario), ``trace`` (export selection curves for
plotting), and ``benchmark`` (replicated method comparison).

Exit codes: 0 success, 1 argument/IO problems and input or configuration
errors found by a pipeline step, 2 numerical failure. Both pipeline
messages name the failing step. The CLI only parses: selector names,
ranges and benchmark settings are checked by the library, so a bad value
exits 1 with the library's message.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import METHODS, BenchmarkConfig, run_benchmark, write_results
from .io import read_matrix_csv, write_matrix_csv
from .pipeline import PipelineConfig, PipelineError, estimate, select
from .psd import PsdConfig
from .simulate import SCENARIOS, ScenarioSpec, build_scenario, permute_columns, sample_gaussian


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # numerical failures, so remap argument problems to exit 1.
    def error(self, message):
        raise ValueError(message)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # cattell + elbow and fixed values never draw from the seed, so the
        # library's own check would not see a negative one
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except PipelineError as exc:
        cause = exc.__cause__
        # LinAlgError subclasses ValueError but reports a numerical failure.
        if isinstance(cause, ValueError) and not isinstance(cause, np.linalg.LinAlgError):
            print(f"error: invalid input in step '{exc.step}': {cause}", file=sys.stderr)
            return 1
        print(f"numerical failure in step '{exc.step}': {cause}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = _Parser(prog="blockcov",
                     description="Block-structured sparse correlation estimation.")
    defaults = PipelineConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", parents=[_common_seed()],
                         help="estimate a correlation matrix from a CSV data matrix")
    est.add_argument("--input", required=True, help="CSV with one sample per row")
    est.add_argument("--header", action="store_true",
                     help="first input row holds variable names")
    est.add_argument("--rank", default=defaults.rank_method,
                     help="rank selection: 'cattell', 'pa', or a fixed integer")
    est.add_argument("--lambda", dest="lam", default=defaults.lambda_method,
                     help="threshold selection: 'elbow', 'bl', or a fixed value")
    est.add_argument("--reorder", action="store_true",
                     help="cluster variables first and estimate in leaf order")
    est.add_argument("--inv-sqrt-threshold", type=float, default=defaults.inv_sqrt_threshold,
                     help="eigenvalues at most this are dropped from the inverse square root")
    est.add_argument("--psd-tol", type=float, default=defaults.psd.tol)
    est.add_argument("--psd-max-iter", type=int, default=defaults.psd.max_iter)
    est.add_argument("--out-sigma", help="write the estimated matrix here (CSV)")
    est.add_argument("--out-invsqrt", help="write the inverse square root here (CSV)")
    est.add_argument("--out-order", help="write the clustering leaf order used by "
                                         "--reorder here (single-column CSV)")
    est.add_argument("--out-report", help="write a JSON report (rank, lambda, support size, "
                                          "eigenvalue extremes, timings)")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", parents=[_common_seed()],
                         help="generate a synthetic scenario")
    sim.add_argument("--scenario", required=True, help=f"one of {', '.join(SCENARIOS)}")
    sim.add_argument("--q", type=int, required=True, help="number of variables (>= 10)")
    sim.add_argument("--n", type=int, required=True, help="number of samples")
    sim.add_argument("--permute-columns", action="store_true",
                     help="randomly permute the columns; writes perm.csv next to --out-x")
    sim.add_argument("--out-x", help="write the data matrix here (CSV)")
    sim.add_argument("--out-sigma", help="write the true correlation matrix here (CSV)")
    sim.add_argument("--out-support", help="write the 0/1 support mask here (CSV)")
    sim.add_argument("--out-z", help="write the loading matrix here (CSV)")
    sim.set_defaults(func=_cmd_simulate)

    tra = sub.add_parser("trace", parents=[_common_seed()],
                         help="export selection diagnostics for plotting")
    tra.add_argument("--input", required=True, help="CSV with one sample per row")
    tra.add_argument("--header", action="store_true")
    tra.add_argument("--rank", default=defaults.rank_method,
                     help="rank used for the threshold curve: 'cattell', 'pa', or an integer")
    tra.add_argument("--out-scree",
                     help="scree curve CSV: index,value[,pa_quantile with --rank pa]")
    tra.add_argument("--out-elbow",
                     help="threshold curve CSV: lambda,criterion,support_size")
    tra.set_defaults(func=_cmd_trace)

    ben = sub.add_parser("benchmark", parents=[_common_seed()],
                         help="replicated comparison on synthetic scenarios")
    ben.add_argument("--scenarios", default=",".join(SCENARIOS),
                     help="comma-separated scenario names")
    ben.add_argument("--n-list", default="30", help="comma-separated sample counts")
    ben.add_argument("--q-list", default="100", help="comma-separated variable counts")
    ben.add_argument("--reps", type=int, default=1, help="replications per cell")
    ben.add_argument("--methods", default=",".join(METHODS),
                     help=f"comma-separated subset of {', '.join(METHODS)}")
    ben.add_argument("--permute-columns", action="store_true",
                     help="scramble the columns of every generated data matrix")
    ben.add_argument("--reorder", action="store_true",
                     help="let the pipeline methods recover the ordering by clustering")
    ben.add_argument("--inv-sqrt-threshold", type=float, default=defaults.inv_sqrt_threshold)
    ben.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    ben.add_argument("--out", required=True, help="results CSV path")
    ben.set_defaults(func=_cmd_benchmark)
    return parser


def _common_seed():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed,
                   help="random seed (default: %(default)s)")
    return p


def _number_or_name(value):
    """``value`` as an int or a float when it parses as one, else the string itself."""
    for number in (int, float):
        try:
            return number(value)
        except ValueError:
            pass
    return value


def _cmd_estimate(args):
    X, names = read_matrix_csv(args.input, header=args.header)
    cfg = PipelineConfig(
        rank_method=_number_or_name(args.rank),
        lambda_method=_number_or_name(args.lam),
        reorder=args.reorder,
        psd=PsdConfig(tol=args.psd_tol, max_iter=args.psd_max_iter),
        inv_sqrt_threshold=args.inv_sqrt_threshold,
        seed=args.seed,
    )
    est = estimate(X, cfg)
    if args.out_sigma:
        write_matrix_csv(args.out_sigma, est.sigma_hat, names=names)
    if args.out_invsqrt:
        write_matrix_csv(args.out_invsqrt, est.inv_sqrt.matrix, names=names)
    if args.out_order:
        write_matrix_csv(args.out_order, est.permutation)
    if args.out_report:
        report = {
            "schema": "blockcov-report v1",
            "n": int(X.shape[0]),
            "q": int(X.shape[1]),
            "rank": est.rank.r,
            "rank_method": est.rank.method,
            "lambda": est.lam.lam,
            "lambda_method": est.lam.method,
            "support_size": est.lam.support_size,
            "eigenvalue_min": est.inv_sqrt.eig_min,
            "eigenvalue_max": est.inv_sqrt.eig_max,
            "inv_sqrt_kept": est.inv_sqrt.kept,
            "inv_sqrt_dropped": est.inv_sqrt.dropped,
            "reordered": bool(args.reorder),
            "timings_s": {k: round(v, 6) for k, v in est.timings.items()},
        }
        with open(args.out_report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_simulate(args):
    truth = build_scenario(ScenarioSpec(args.scenario, args.q, seed=args.seed))
    X = sample_gaussian(truth, args.n, seed=args.seed)
    if args.permute_columns:
        X, perm = permute_columns(X, seed=args.seed)
        if args.out_x:
            write_matrix_csv(Path(args.out_x).parent / "perm.csv", perm)
    if args.out_x:
        write_matrix_csv(args.out_x, X)
    if args.out_sigma:
        write_matrix_csv(args.out_sigma, truth.Sigma)
    if args.out_support:
        write_matrix_csv(args.out_support, truth.support.astype(int))
    if args.out_z:
        write_matrix_csv(args.out_z, truth.Z)
    return 0


def _cmd_trace(args):
    X, _ = read_matrix_csv(args.input, header=args.header)
    sel = select(X, PipelineConfig(rank_method=_number_or_name(args.rank), seed=args.seed))
    if args.out_scree:
        columns, names = [np.arange(1, sel.scree.size + 1), sel.scree], ["index", "value"]
        if "quantile_curve" in sel.rank.trace:
            columns.append(sel.rank.trace["quantile_curve"])
            names.append("pa_quantile")
        write_matrix_csv(args.out_scree, np.column_stack(columns), names=names)
    if args.out_elbow:
        curve = [sel.lam.trace[k] for k in ("grid", "criterion", "support_size")]
        write_matrix_csv(args.out_elbow, np.column_stack(curve),
                         names=["lambda", "criterion", "support_size"])
    return 0


def _cmd_benchmark(args):
    scenarios = tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        n_list = tuple(int(v) for v in args.n_list.split(","))
        q_list = tuple(int(v) for v in args.q_list.split(","))
    except ValueError:
        raise ValueError("--n-list and --q-list must be comma-separated integers")
    cfg = BenchmarkConfig(scenarios=scenarios, n_list=n_list, q_list=q_list,
                          reps=args.reps, methods=methods, seed=args.seed,
                          inv_sqrt_threshold=args.inv_sqrt_threshold,
                          permute_columns=args.permute_columns, reorder=args.reorder,
                          jobs=args.jobs)
    rows = run_benchmark(cfg)
    write_results(args.out, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
