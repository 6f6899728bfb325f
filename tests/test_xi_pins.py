"""The Section-7 Xi complex as the commands read it, pinned to known values.

`xi_pins.json` holds what `cohomology --format json` reports (`H_dim`,
`window` and the exit code) for degrees 0-3 on every poly2 fixture at
budgets 4 and 6, and the `h2_correspondence` verdict (status, detail and
the columns of the witness u) for each Xi(D_2) sample of `case2_beta1_Y`
and `case2_beta1_Y2` at budget 4, each sample against the trivial cocycle.
Rewrite the file with ``PYTHONPATH=src python tests/test_xi_pins.py --write``.
"""

import io
import json
import os
import sys

import pytest

from hopfcross.cli import main
from hopfcross.crossed import trivial_cocycle
from hopfcross.workbench import (WorkbenchSpec, classify_crossed_products,
                                 h2_correspondence, xi2_cocycle)

from test_crossed import _fixture_ctx, _xi2_samples

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
PINS = os.path.join(HERE, "goldens", "xi_pins.json")

POLY2 = ["case1a_q2", "case1a_qm1", "case1b_q1q2_1", "case1b_q1q2_ne1",
         "case2_beta1_Y", "case2_beta1_Y2", "case3a", "case3b"]
BUDGETS = (4, 6)
H2_CASES = ("case2_beta1_Y", "case2_beta1_Y2")


def _cohomology(name, budget, degree):
    out = io.StringIO()
    code = main(["cohomology", os.path.join(FIXTURES, name + ".json"),
                 "--budget", str(budget), "--degree", str(degree),
                 "--format", "json"], out=out)
    doc = json.loads(out.getvalue())
    return {"code": code, "H_dim": doc["H_dim"], "window": doc.get("window")}


def _cohomology_pins(name):
    return {"%s/N=%d/degree=%d" % (name, N, n): _cohomology(name, N, n)
            for N in BUDGETS for n in range(4)}


def _h2_pins(name):
    ctx = _fixture_ctx(name, 4)
    out = {}
    for b in _xi2_samples(ctx):
        v = h2_correspondence(ctx, xi2_cocycle(ctx, b), trivial_cocycle(ctx))
        u = None if v.u is None else [
            [repr(lab), [[repr(a), str(c)] for a, c in col.coeffs.items()]]
            for lab, col in v.u.values.columns.items()]
        key = "%s/b=%s" % (name, sorted((repr(a), str(c))
                                        for a, c in b.coeffs.items()))
        out[key] = {"status": v.status, "detail": v.detail, "u": u}
    return out


def compute_pins():
    pins = {}
    for name in POLY2:
        pins.update(_cohomology_pins(name))
    for name in H2_CASES:
        pins.update(_h2_pins(name))
    return pins


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", POLY2)
def test_cohomology_json_matches_pins(name, pins):
    for key, got in _cohomology_pins(name).items():
        assert got == pins[key], key


@pytest.mark.parametrize("name", H2_CASES)
def test_h2_verdicts_and_witnesses_match_pins(name, pins):
    got = _h2_pins(name)
    assert got
    for key, val in got.items():
        assert val == pins[key], key
    assert sorted(got) == sorted(k for k in pins if k.startswith(name + "/b="))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", POLY2)
def test_cohomology_agrees_with_classify_ranks(name, budget):
    """H^2 = Xi_D2 - d2_rank and H^1 = Xi_D1 - d1_rank - d2_rank, with the
    dimensions and ranks `classify` reports."""
    spec = WorkbenchSpec.load(os.path.join(FIXTURES, name + ".json"))
    spec.set_budget(budget)
    d = classify_crossed_products(spec).data
    dims = d["xi_dims"]
    assert d["H2_dim"] == dims[2] - d["d2_rank"]
    assert _cohomology(name, budget, 2)["H_dim"] == dims[2] - d["d2_rank"]
    assert _cohomology(name, budget, 1)["H_dim"] == \
        dims[1] - d["d1_rank"] - d["d2_rank"]
    assert _cohomology(name, budget, 0)["H_dim"] == dims[0] - d["d1_rank"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_xi_pins.py --write")
    with open(PINS, "w") as fh:
        json.dump(compute_pins(), fh, indent=1, sort_keys=True)
        fh.write("\n")
