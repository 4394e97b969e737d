#!/usr/bin/env python3
"""Record the reference verdicts that the benchmark's output checks compare
against, for seeds 0..15 of every workload.

Usage (from the root of a checkout)::

    python3 bench/record_reference.py

Records hold verdicts, exit codes, sample indices and the integer-only
``invariants`` text; no float digits.  Re-record only at a commit whose
outputs are known to be right, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, WORKLOADS, run_worker
from worker import REFERENCE

SEEDS = range(16)


def main() -> int:
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    reference: dict = {w: {} for w in WORKLOADS}
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                spec = {"workload": workload, "seed": seed, "trace": False,
                        "workdir": str(workdir), "record": True}
                result = run_worker(spec)
                if "error" in result:
                    print(f"{workload} seed {seed}: {result['error']}", file=sys.stderr)
                    return 1
                reference[workload][str(seed)] = result["records"]
                print(f"{workload} seed {seed}: recorded {result['ops']} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
