"""The subspaces of A cut out by linear conditions, pinned to known values.

`solver_pins.json` holds the bases these routines gave before they shared
one solver: the windowed s-invariants and Z(sA) of every poly2 fixture, H^0
and the `is_inner` witness of the group fixtures, and the kernels of a few
maps.  Each basis is pinned with its coefficient dicts in order.  Rewrite
the file with ``PYTHONPATH=src python tests/test_solver.py --write``.
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from hopfcross.ce import center_of_invariants
from hopfcross.exact import (Element, LinMap, NotInvertible, Slot, Space,
                             invert_linmap, kernel_image_quotient)
from hopfcross.sweedler import (SweedlerContext, differential, h0,
                                invariant_subspace, is_inner,
                                _scalar_cochain)
from hopfcross.workbench import WorkbenchSpec, build_instance

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
PINS = os.path.join(HERE, "goldens", "solver_pins.json")

POLY2 = ["case1a_q2", "case1a_qm1", "case1b_q1q2_1", "case1b_q1q2_ne1",
         "case2_beta1_Y", "case2_beta1_Y2", "case3a", "case3b"]
GROUPS = ["z2_sign", "z3_inversion_graded"]


def _load(name, budget=None):
    spec = WorkbenchSpec.load(os.path.join(FIXTURES, name + ".json"))
    if budget is not None:
        spec.set_budget(budget)
    return spec


def _basis(elements):
    return [[[repr(lab), str(c)] for lab, c in e.coeffs.items()]
            for e in elements]


def _poly2_pins(name):
    out = {}
    for N in (4, 6, 8):
        mad = build_instance(_load(name, N)).mad
        for w in (N - 1, N - 2):
            key = "%s/N=%d/w=%d" % (name, N, w)
            out[key + "/sA"] = _basis(invariant_subspace(mad, window=w))
            out[key + "/Z(sA)"] = _basis(center_of_invariants(mad, w))
    return out


def _group_pins(name):
    mad = build_instance(_load(name)).mad
    A = mad.algebra
    t = Element.basis_vector(A.space, ("t",))
    out = {name + "/h0": _basis(h0(mad)[0])}
    ctx = SweedlerContext(mad)
    for k, a in enumerate([5 * A.unit, 2 * A.unit + t,
                           A.unit + Fraction(-3, 2) * t]):
        inner, witness = is_inner(ctx, differential(ctx, _scalar_cochain(ctx, a)))
        out["%s/is_inner/%d" % (name, k)] = [
            inner, None if witness is None else _basis([witness])]
    return out


def _random_maps():
    """Seeded degree-preserving maps on a graded two-slot space with sparse
    integer columns, fixing the degree-0 label so a singular block has
    degree 1 or 2."""
    S = Slot("S", ["x", "a", "b", "c"], {"x": 0, "a": 1, "b": 1, "c": 2})
    V = Space((S, S), budget=2)
    labels = list(V.basis())
    rng = random.Random(17)
    maps = []
    for _ in range(6):
        cols = {labels[0]: Element.basis_vector(V, labels[0])}
        for lab in labels[1:]:
            same = [m for m in labels if V.degree(m) == V.degree(lab)]
            cols[lab] = Element(V, {m: rng.randint(-2, 2) for m in same
                                    if rng.random() < 0.4})
        maps.append(LinMap(V, V, cols))
    return maps


def _kernel_pins():
    out = {}
    for k, f in enumerate(_random_maps()):
        ker, im, coker = kernel_image_quotient(f)
        out["kiq/%d" % k] = [_basis(ker), _basis(im), [repr(l) for l in coker]]
        try:
            invert_linmap(f)
            out["witness/%d" % k] = "invertible"
        except NotInvertible as exc:
            out["witness/%d" % k] = [str(exc), None if exc.witness is None
                                     else _basis([exc.witness])]
    return out


def all_pins():
    out = {}
    for name in POLY2:
        out.update(_poly2_pins(name))
    for name in GROUPS:
        out.update(_group_pins(name))
    out.update(_kernel_pins())
    return out


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", POLY2)
def test_poly2_invariants_and_center_pinned(pins, name):
    got = _poly2_pins(name)
    assert got == {k: pins[k] for k in got}


@pytest.mark.parametrize("name", GROUPS)
def test_group_h0_and_inner_witness_pinned(pins, name):
    got = _group_pins(name)
    assert got == {k: pins[k] for k in got}


def test_kernels_and_witnesses_pinned(pins):
    got = _kernel_pins()
    assert got == {k: pins[k] for k in got}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_solver.py --write")
    with open(PINS, "w") as fh:
        json.dump(all_pins(), fh, indent=1)
        fh.write("\n")
