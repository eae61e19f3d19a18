"""Benchmark of the blockcov estimation pipeline.

    python3 perfbench/run.py --workload fast-q300 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The run sets up its input pool several
times (fresh-interpreter imports, data generation, input files, a small
warm-up; once with ``--trace 1``) and reports the median as ``setup_s``.
It runs operations over the pool, at least once per input and until
``--seconds`` have passed, and checks every output outside the timed
region. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
half the pool with and without the shims of ``spans.py`` and prints the
per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
A machine record is printed before it and the full result is written to
``.perfbench_out/`` in the checkout. ``--q`` and ``--pool`` resize a
workload for checks by hand, e.g. ``--workload fast-q300 --q 1000 --pool 1``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WARMUP_Q = 40
# One BLAS thread: at these sizes a second thread saved under 5% on 2 cores,
# and it exposes every timing to whatever else runs on the other core.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Quality metrics, each with the function that picks its worst input.
QUALITY = {"frobenius_error": max, "whitening_error": max, "support_tpr": min, "support_tnr": min}


def declared(kind):
    """{name: unit} of the metrics BENCHMARK.json declares under ``kind``.

    Per-layer counts are per operation, averaged over the traced inputs,
    and repeat exactly; per-layer times are per operation, medians over the
    traced operations.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="Benchmark of the blockcov pipeline.")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--q", type=int, help="override the workload's number of variables")
    parser.add_argument("--pool", type=int, help="override the number of inputs per run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if (args.q is not None and args.q < 10) or (args.pool is not None and args.pool < 1):
        parser.error("--q must be at least 10 and --pool at least 1")
    return args


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_record(seed):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "python": platform.python_version(),
            "git_commit": git_commit(), "seed": seed}


def setup(workload, seed, workdir):
    """One full set-up; returns (seconds, input pool)."""
    import workloads as W
    start = time.perf_counter()
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", "import numpy, blockcov"], env=env, check=True)
    inputs = W.prepare(workload, seed, workdir / "pool")
    warm = workload.resized(q=WARMUP_Q, pool=1)
    W.run_op(warm, W.prepare(warm, 0, workdir / "warmup")[0])
    return time.perf_counter() - start, inputs


class Run:
    """Operations of one run: times, output checks and quality per input."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.times = defaultdict(list)      # input index -> seconds per untraced operation
        self.quality = {}                   # input index -> quality metrics
        self.selection = {}                 # input index -> (r, lambda, support size)
        self.attempted = 0
        self.failures = []

    def op(self, index, item, tracer=None, op_id=None):
        """Run, time and check one operation; returns its seconds or None on failure."""
        import workloads as W
        self.attempted += 1
        top = "cli.main" if self.workload.via_cli else "pipeline.estimate"
        try:
            if tracer is None:
                start = time.perf_counter()
                result = W.run_op(self.workload, item)
                seconds = time.perf_counter() - start
            else:
                with tracer.installed(), tracer.span(top, op=op_id) as span:
                    result = W.run_op(self.workload, item)
                seconds = span.end - span.start
            out = W.outcome(self.workload, item, result)
        except Exception as exc:  # a failed operation is counted and reported, not fatal
            self.failures.append((item.seed, f"raised {type(exc).__name__}: {exc}"))
            return None
        failed = W.check(out, self.workload.q, self.expected.get(str(item.seed)),
                         library=not self.workload.via_cli)
        if failed:
            self.failures.append((item.seed, ",".join(failed)))
            return None
        self.selection[index] = (out.r, out.lam, out.support_size)
        if index not in self.quality:
            self.quality[index] = W.quality(self.workload, item, out)
        return seconds


def median_of_inputs(times):
    """Median over the pool of each input's median time; repeats only damp noise."""
    values = [statistics.median(v) for v in times.values() if v]
    return statistics.median(values) if values else math.nan


def interquartile_mean(values):
    """Mean of the middle half of ``values``: the lowest and highest quarter are dropped.

    About 2 in 100 `full` inputs get a near-zero BL lambda (TNR ~0.1), which
    moved a pool's plain mean by up to 0.07 from seed to seed. Such inputs
    still show in the worst-input lines a run prints.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def paired_overhead(traced_times, untraced_times):
    """Median over inputs of the traced minus the plain time of the same input."""
    diffs = [statistics.median(t) - statistics.median(untraced_times[i])
             for i, t in traced_times.items() if t and untraced_times.get(i)]
    return statistics.median(diffs) if diffs else math.nan


def timed_phase(run, inputs, seconds):
    start = time.perf_counter()
    k = 0
    while k < len(inputs) or time.perf_counter() - start < seconds:
        index = k % len(inputs)
        t = run.op(index, inputs[index])
        if t is not None:
            run.times[index].append(t)
        k += 1


def traced_phase(run, inputs, seconds):
    """Each input of the pool's first half runs untraced and traced, in alternating order."""
    from spans import Tracer
    tracer = Tracer()
    half = inputs[:math.ceil(len(inputs) / 2)]
    traced = defaultdict(list)      # input index -> op ids
    traced_times = defaultdict(list)
    start = time.perf_counter()
    j = 0
    while j < len(half) or time.perf_counter() - start < seconds:
        index = j % len(half)
        order = (False, True) if (j // len(half)) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                t = run.op(index, half[index], tracer, op_id=j)
                if t is not None:
                    traced[index].append(j)
                    traced_times[index].append(t)
            else:
                t = run.op(index, half[index])
                if t is not None:
                    run.times[index].append(t)
        j += 1
    return tracer, traced, traced_times


def layer_metrics(summaries, traced, traced_times, untraced_times):
    first_pass = [ops[0] for ops in traced.values() if ops]
    timed = [summaries[op] for ops in traced.values() for op in ops]

    def count(fn):
        return statistics.fmean(fn(summaries[op]) for op in first_pass) if first_pass else math.nan

    def median_time(fn):
        return statistics.median(fn(s) for s in timed) if timed else math.nan

    values = {
        "estimate.traced_s": median_of_inputs(traced_times),
        "trace.overhead_s": paired_overhead(traced_times, untraced_times),
        "psd.nearest_correlation.iterations":
            count(lambda s: s["psd.nearest_correlation"]["iterations"]),
        "linalg.eig_m3":
            count(lambda s: (s["linalg.eigh"]["size3"] + s["linalg.eigvalsh"]["size3"]) / 1e9),
        "io.bytes_written": count(lambda s: s["io.write_matrix_csv"]["size"]),
    }
    for name in declared("per_layer"):
        if name in values:
            continue
        span, field = name.rsplit(".", 1)
        if field == "calls":
            values[name] = count(lambda s: s[span]["calls"])
        else:
            values[name] = median_time(lambda s: s[span][field])
    return values


def main(argv=None):
    if not (SRC / "blockcov" / "__init__.py").is_file():
        print(f"error: blockcov sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads as W

    args = parse_args(argv, sorted(W.WORKLOADS))
    workload = W.WORKLOADS[args.workload].resized(q=args.q, pool=args.pool)
    expected = W.load_expected().get(workload.name, {})
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times = []
        for _ in range(repeats):
            shutil.rmtree(workdir, ignore_errors=True)
            seconds, inputs = setup(workload, args.seed, workdir)
            setup_times.append(seconds)
        run = Run(workload, expected)
        if args.trace:
            tracer, traced, traced_times = traced_phase(run, inputs, args.seconds)
            summaries = tracer.summaries()
            values = layer_metrics(summaries, traced, traced_times, run.times)
            units = declared("per_layer")
        else:
            tracer = None
            timed_phase(run, inputs, args.seconds)
            quality = list(run.quality.values())
            values = {
                "estimate_s": median_of_inputs(run.times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_rate": 1 - len(run.failures) / run.attempted,
            }
            for key in QUALITY:
                values[key] = interquartile_mean([m[key] for m in quality])
            units = declared("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    # A metric with no successful operation behind it is null, not NaN (invalid JSON).
    metrics = {name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record = {"workload": workload.name, "pool": workload.pool, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(args.seed),
              "setup_s_each": setup_times,
              "selection": {inputs[i].seed: sel for i, sel in sorted(run.selection.items())},
              "times": {inputs[i].seed: t for i, t in sorted(run.times.items())},
              "quality": {inputs[i].seed: m for i, m in sorted(run.quality.items())},
              "failures": run.failures, **result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = [[s.name, s.start, s.end, s.parent, s.op, s.size] for s in tracer.spans]
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
        print_self_times(summaries)
    for seed, what in run.failures:
        print(f"FAILED data seed {seed}: {what}")
    print("machine " + json.dumps(record["machine"]))
    if run.times:
        print(f"{len(run.times)} inputs, {sum(map(len, run.times.values()))} timed operations")
    if run.quality and not args.trace:
        for key, worst in QUALITY.items():
            index = worst(run.quality, key=lambda i: run.quality[i][key])
            print(f"worst input {key}: {run.quality[index][key]} (data seed {inputs[index].seed})")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


def print_self_times(summaries):
    """Self time per span and per layer (module), per traced operation, largest first."""
    spans, layers = defaultdict(float), defaultdict(float)
    for summary in summaries.values():
        for name, entry in summary.items():
            spans[name] += entry["self_s"] / max(len(summaries), 1)
            layers[name.split(".")[0]] += entry["self_s"] / max(len(summaries), 1)
    for kind, totals in (("layer", layers), ("span", spans)):
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            if seconds > 0:
                print(f"self {kind} {name:36s} {seconds:.6f} s/op", file=sys.stderr)


if __name__ == "__main__":
    # BLAS reads its thread count when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
