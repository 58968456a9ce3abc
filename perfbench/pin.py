#!/usr/bin/env python3
"""Regenerate ``pinned.json``, the outputs every benchmark run is checked
against. Run from the repository root::

    python3 perfbench/pin.py --seeds 0-31

Re-pinning is a deliberate act: do it only in a change that means to alter
the program's output, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import defaultdict

import run

NOTE = ("The consumer uses the default RngBuffer, which never spills at the "
        "plans' SIB of 7 or 8, so spilled_words is 0 and stream_sha256 does "
        "not encode the spill order (stream_bits emits spilled words ahead "
        "of older buffered words). A fix of that order alone must leave "
        "every digest here unchanged; a change to the buffer that makes it "
        "spill must come with a deliberate re-pin of every stream digest, "
        "sim statistic and sts.csv here.")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args()
    p = run.load_program()
    pinned = {"note": NOTE}
    tally = run.Tally()
    for workload in run.WORKLOADS:
        device = run.build_device(p)
        if workload == "sweep":
            plan, fixed, _ = run.run_sweep(p, device, tally,
                                           defaultdict(list))
        else:
            plan, maps = run.PLANNERS[workload](p, device, tally)
            fixed = run.fixed_record(p, device, plan, maps)
        seeds = {}
        for seed in args.seeds:
            main = run.stream(p, run.build_device(p), plan, seed,
                              workload == "generate_drift", 0)
            if main.failed:
                sys.exit(f"{workload} seed {seed}: a request failed")
            workdir = run.RESULTS / f"pin-{workload}-{seed}"
            code, sts_csv, _ = run.qualify(p, main.prefix, workdir, repeats=1)
            shutil.rmtree(workdir, ignore_errors=True)
            seeds[str(seed)] = dict(main.snap, sts_csv=sts_csv, sts_exit=code)
            print(workload, seed, main.snap["stream_sha256"][:16], code,
                  flush=True)
        pinned[workload] = {
            "fixed": fixed,
            "seeds": seeds,
        }
    if tally.failed:
        sys.exit("a characterization or plan failed")
    run.PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
