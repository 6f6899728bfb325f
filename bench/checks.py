"""Per-job correctness checks: what a job printed, reduced to the parts that
must not change, compared with what was recorded at the benchmark's commit.
"""

from __future__ import annotations

import os
import re

CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL) \((\d+) checked\)"
                        r"(?: \[skipped \(budget\): (\d+)\])?")

# Lines that print seeded coefficients (Q, beta, relations, the exact H^2
# quotient, a report title naming Q); they differ between seeds by design and
# are not compared.
SEEDED_LINE = re.compile(r"^(Q: |beta1: |beta2: |H2_exact: |  )|\(Q=")


def parse_checks(text):
    """[(name, status, checked, skipped)] for every suite check line."""
    out = []
    for line in text.splitlines():
        m = CHECK_LINE.match(line)
        if m:
            out.append((m.group(1), m.group(2), int(m.group(3)),
                        int(m.group(4) or 0)))
    return out


def signature(exit_code, text):
    """The job's exit code, check lines and verdict lines, as JSON data."""
    verdict = [line for line in text.splitlines()
               if not CHECK_LINE.match(line)
               and not SEEDED_LINE.search(line)]
    return {"exit": exit_code,
            "checks": [list(c) for c in parse_checks(text)],
            "verdict": verdict}


def check_job(job, exit_code, text, stderr, expected, root):
    """None when the job's output is what was recorded, else the reason."""
    if "Traceback" in stderr:
        return "traceback: %s" % stderr.strip().splitlines()[-1]
    if job.golden is not None:
        with open(os.path.join(root, job.golden)) as fh:
            want = fh.read()
        if exit_code != 0 or text != want:
            return "differs from %s (exit %d)" % (job.golden, exit_code)
        return None
    want = expected.get(job.key)
    if want is None:
        return "no recorded verdict"
    got = signature(exit_code, text)
    for field in ("exit", "checks", "verdict"):
        if got[field] != want[field]:
            return "%s: got %r, recorded %r" % (field, got[field], want[field])
    return None


def suite_counts(text):
    """(tuples checked, tuples skipped for budget) summed over the suite
    check lines of one job's output."""
    checks = parse_checks(text)
    return sum(c[2] for c in checks), sum(c[3] for c in checks)
