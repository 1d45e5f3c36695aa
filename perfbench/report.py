#!/usr/bin/env python3
"""Print every end-to-end metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

One untraced benchmark run per workload (see run.py), each metric as the
median over the run's iterations with its unit and sample count, plus the
failed share of runs.  parallel_efficiency is shown only where more than
one worker runs.
"""

import argparse
import statistics
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    print(f"{'workload':<16} {'metric':<20} {'median':>12} {'unit':<6} n")
    for workload, argv_ in run.WORKLOADS.items():
        bench = run.Run(workload, args.seed, args.seconds, trace=False)
        _metrics, samples = bench.execute()
        for name, unit in run.END_TO_END_UNITS.items():
            if name == "parallel_efficiency" and run.workers_of(argv_) == 1:
                continue
            values = samples.get(name, [])
            value = f"{statistics.median(values):.6g}" if values else "-"
            print(f"{workload:<16} {name:<20} {value:>12} {unit:<6} {len(values)}")
        print(f"{workload:<16} {'fail_ratio':<20} {bench.failed / bench.attempted:>12.6g} "
              f"{'ratio':<6} {bench.attempted}")
        for seed, msg in bench.failures:
            print(f"  FAILED (seed {seed}): {msg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
