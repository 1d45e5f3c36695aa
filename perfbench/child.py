"""Run one sievesim CLI invocation in this fresh process and record its cost.

    python3 perfbench/child.py RECORD MODE -- SUBCOMMAND [CLI FLAGS...]

MODE is ``run`` (untraced), ``trace`` (every layer wrapped in spans) or
``setup`` (stop as soon as the runner is called).  RECORD receives one JSON
object: CLOCK_MONOTONIC stamps at ``cli.main`` entry, runner call and
``cli.main`` return, CPU time and peak RSS, the config facts the output
checks need, and in ``trace`` mode the spans.  The parent takes the
process-start stamp on the same clock just before it spawns this process.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class _SetupDone(Exception):
    pass


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _probe(runner, rec, mode):
    """Outermost runner wrapper: stamps the call and notes the config."""
    from sievesim import harness

    def probed(config):
        rec["t_runner"] = time.monotonic()
        rec["workers"] = config.workers
        rec["config_hash"] = config.config_hash()
        rec["limit_mean_oracle"] = {
            repr(u): harness.limit_mean_oracle(config.params.alpha, u)
            for u in config.u_list}
        rec["thresholds"] = [[config.neglog_threshold(x), f"logn{x:g}"]
                             for x in config.log_n_list]
        if mode == "setup":
            raise _SetupDone
        return runner(config)
    return probed


def main() -> int:
    record_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit(__doc__)
    rec = {"mode": mode}
    from sievesim import cli
    import spans

    if mode == "trace":
        spans.install(cli._RUNNERS)
    for command, runner in cli._RUNNERS.items():
        if runner is not None:
            cli._RUNNERS[command] = _probe(runner, rec, mode)

    cpu0 = _cpu_s()
    rec["t_main"] = time.monotonic()
    try:
        rec["exit"] = cli.main(cli_args)
    except _SetupDone:
        pass
    except Exception:  # a raising run is a failed run, reported by the parent
        rec["error"] = traceback.format_exc(limit=-3)
    rec["t_main_end"] = time.monotonic()
    rec["cpu_s"] = _cpu_s() - cpu0
    rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec["child_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if mode == "trace":
        rec["spans"] = spans.RECORDER.spans
    with open(record_path, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
