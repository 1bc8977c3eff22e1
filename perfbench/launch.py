"""Run the dipolepair CLI with the reference loop timed around it.

    python3 perfbench/launch.py CAL_FILE ARG...

Times the reference loop (reference.py), runs `dipolepair ARG...` through
`dipolepair.cli.main`, times the loop again, writes "before after spent
rss" to CAL_FILE (seconds; `spent` is all time taken by the two timings;
`rss` is the peak RSS in MB of this process and its pool workers) and exits
with the command's exit code.  A serial command is timed against the loop
on its own processor; a command with `--workers N`, N > 1, spreads over
every processor, so the loop is timed on each in turn and averaged.
"""
from __future__ import annotations

import os
import sys
import time

import reference


def calibrate(parallel: bool) -> float:
    if not parallel:
        return reference.calibrate()
    mask = os.sched_getaffinity(0)
    try:
        walls = []
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            walls.append(reference.calibrate())
    finally:
        os.sched_setaffinity(0, mask)
    return sum(walls) / len(walls)


def main() -> int:
    cal_file, args = sys.argv[1], sys.argv[2:]
    parallel = "--workers" in args and int(args[args.index("--workers") + 1]) > 1
    start = time.perf_counter()
    before = calibrate(parallel)
    spent = time.perf_counter() - start
    from dipolepair.cli import main as cli_main

    sys.argv = ["dipolepair", *args]
    try:
        cli_main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    start = time.perf_counter()
    after = calibrate(parallel)
    spent += time.perf_counter() - start
    with open(cal_file, "w", encoding="utf-8") as fh:
        fh.write(f"{before!r} {after!r} {spent!r} {reference.peak_rss_mb()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
