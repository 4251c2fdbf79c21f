"""Record the exact-output digests that ``run.py`` checks, one per workload and seed.

    python3 bench/record.py --seeds 0:100

Runs one untimed pass of every workload for each seed and writes the digests
to ``bench/digests.json``, keeping the entries of other seeds.  A seed whose
pass has a failed op is not recorded.  Re-record only when an output is meant
to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import BENCH, WORK, Pass, load_digests
from workloads import BUILDERS, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seeds", required=True, help="LO:HI, HI excluded")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split(":"))
    digests = load_digests()
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    status = 0
    try:
        for workload in args.workload or WORKLOADS:
            for seed in range(lo, hi):
                result = Pass(BUILDERS[workload](seed, workdir), traced=False)
                if result.failed:
                    print(f"{workload} seed {seed}: {result.failed} failed ops, not recorded", file=sys.stderr)
                    status = 1
                    continue
                digests.setdefault(workload, {})[str(seed)] = result.digest
                print(f"{workload} {seed} {result.digest}", flush=True)
            save(digests)
    finally:
        shutil.rmtree(workdir)
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return status


def save(digests: dict) -> None:
    ordered = {w: dict(sorted(d.items(), key=lambda kv: int(kv[0]))) for w, d in sorted(digests.items())}
    (BENCH / "digests.json").write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
