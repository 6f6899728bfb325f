"""Record the verdict of every benchmark job at the current commit.

    python3 bench/record.py --seeds 1 2 3

Runs each workload's jobs once per seed and writes bench/expected.json, the
signature (exit code, check lines with their counts, verdict lines) each job
key must reproduce.  It fails, writing nothing, if two seeds disagree on a
key, since the benchmark relies on seeds changing values and never verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import checks
import workloads
from run import HERE, OUT, Runner, job_env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    env = job_env()
    expected = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            work = os.path.join(OUT, "record", "%s-%d" % (name, seed))
            os.makedirs(work, exist_ok=True)
            runner = Runner(env, work, time.monotonic() + 3600)
            for job in workloads.generate(name, seed,
                                          os.path.join(work, "inputs")):
                if job.golden is not None:
                    continue
                rc, _, _, out, err, _ = runner.cli(job.argv, "job")
                if "Traceback" in err:
                    sys.stderr.write("%s raised:\n%s" % (job.key, err))
                    return 1
                sig = checks.signature(rc, out)
                if expected.setdefault(job.key, sig) != sig:
                    sys.stderr.write("%s: seed %d gives %r, earlier seeds %r\n"
                                     % (job.key, seed, sig, expected[job.key]))
                    return 1
            print("recorded %s seed %d" % (name, seed), flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
