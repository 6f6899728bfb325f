"""The public maps of CEAlgebra, pinned by digest.

`ce_pins.json` holds one SHA-256 per (Lie algebra, map, homological degree),
over every basis monomial of homological degree <= 3 and PBW degree <= 3 of
the Heisenberg algebra and of sl2, both in a basis rescaled by non-unit
rationals so that denominators other than 2 occur.  A digest is taken over
the `repr` of each result dict in insertion order, with `str` of each
coefficient, so it pins the coefficients and the key order.  The maps are
`nf` of each monomial's word and of its T words (one E letter made a T),
`differential`, `gamma`, `sigma` and `p_decompose`.  Rewrite the file with
``PYTHONPATH=src python tests/test_ce_pins.py --write``.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from hopfcross.ce import CEAlgebra
from hopfcross.hopf import LieSpec

PINS = os.path.join(os.path.dirname(__file__), "goldens", "ce_pins.json")
MAPS = ("nf", "differential", "gamma", "sigma", "p_decompose")


def _rescaled(dim, brackets, lam):
    """Structure constants in the basis y_i = lam_i x_i."""
    return LieSpec(dim, {(i, j): {k: Fraction(c) * lam[i] * lam[j] / lam[k]
                                  for k, c in val.items()}
                         for (i, j), val in brackets.items()})


LIES = {
    "heisenberg": (3, {(0, 1): {2: 1}},
                   (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 4))),
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
            (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3))),
}


def _plain(d):
    return [(k, _plain(v) if isinstance(v, dict) else str(v))
            for k, v in d.items()]


def _coefficients(d):
    for v in d.values():
        if isinstance(v, dict):
            yield from _coefficients(v)
        else:
            yield v


def ce_results(name):
    """{(map, degree): [result dicts]} of the Lie algebra `name`."""
    ce = CEAlgebra(_rescaled(*LIES[name]))
    out = {}
    for n in range(4):
        for mono in ce.monomials(n, 3):
            x = {mono: Fraction(1)}
            word = ce.mono_word(mono)
            t_words = [word[:k] + (("T", i),) + word[k + 1:]
                       for k, (kind, i) in enumerate(word) if kind == "E"]
            got = {"nf": [ce.nf(w) for w in [word] + t_words],
                   "differential": [ce.differential(x)],
                   "gamma": [ce.gamma(x)], "sigma": [ce.sigma(x)],
                   "p_decompose": [ce.p_decompose(x)]}
            for m in MAPS:
                out.setdefault((m, n), []).extend(got[m])
    return out


def digests(results):
    out = {}
    for (m, n), dicts in results.items():
        h = hashlib.sha256()
        for d in dicts:
            h.update(repr(_plain(d)).encode())
            h.update(b"\n")
        out["%s/%d" % (m, n)] = h.hexdigest()
    return out


def all_pins():
    return {"%s/%s" % (name, k): v for name in LIES
            for k, v in digests(ce_results(name)).items()}


@pytest.mark.parametrize("name", sorted(LIES))
def test_ce_maps_pinned(name):
    with open(PINS) as fh:
        pins = json.load(fh)
    results = ce_results(name)
    assert all(type(c) is Fraction for dicts in results.values()
               for d in dicts for c in _coefficients(d))
    got = {"%s/%s" % (name, k): v for k, v in digests(results).items()}
    assert len(got) == len(MAPS) * 4
    assert got == {k: pins[k] for k in got}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ce_pins.py --write")
    with open(PINS, "w") as fh:
        json.dump(all_pins(), fh, indent=1, sort_keys=True)
        fh.write("\n")
