"""Record each input's selected rank, lambda and support size as expected values.

    python3 perfbench/record.py --workload fast-q300 --seeds 0-9

Runs every input of the given benchmark seeds once, untimed, and merges
the selections into ``expected.json`` next to this file. The benchmark
then fails any operation whose selection differs from the recorded one.
Record only from a commit whose results are known to be right.
"""

import argparse
import os
import shutil
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    parser.add_argument("--q", type=int)
    parser.add_argument("--pool", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads as W

    workload = W.WORKLOADS[args.workload].resized(q=args.q, pool=args.pool)
    first, last = (int(v) for v in args.seeds.split("-"))
    expected = W.load_expected()
    table = expected.setdefault(workload.name, {})
    workdir = run.WORK_DIR / f"record-{os.getpid()}"
    try:
        for seed in range(first, last + 1):
            for item in W.prepare(workload, seed, workdir):
                out = W.outcome(workload, item, W.run_op(workload, item))
                failed = W.check(out, workload.q, library=not workload.via_cli)
                if failed:
                    raise SystemExit(f"data seed {item.seed} fails {failed}; nothing recorded")
                table[str(item.seed)] = [out.r, out.lam, out.support_size]
            print(f"{workload.name} seed {seed}: {len(table)} inputs recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    W.save_expected(expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
