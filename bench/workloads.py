"""Seeded workload generators for the hopfcross benchmark.

Each generator writes spec and cocycle files for one seed and returns the
workload's job list.  Nothing here imports hopfcross: the program only ever
sees the generated files.  The seed moves coefficient values, never the
support shape of a spec, so every job does the same combinatorial work and
reports the same check counts on every seed; only the rational arithmetic
differs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

HEIGHT = 4          # seeded rationals are +-p/q with 1 <= p, q <= HEIGHT
POLY2_BUDGETS = (4, 5, 6)
LIE_BUDGETS = (1, 2, 3)
CLASSIFY_BUDGETS = (8, 10, 12)
GROUP_ORDERS = (3, 4, 5, 6)
COMPARE_SAMPLES = 2     # exp/log trials per poly2 compare job (CLI default 10)

# compare on Q != I is a known wrong FAIL (see BENCHMARK.json); it is probed
# once per run, untimed, on this fixture at its own budget.
PROBE_ARGV = ("compare", "fixtures/case1a_q2.json")


class Job:
    """One CLI invocation.  ``key`` names it independently of the seed, so
    the verdict recorded for it at one seed must hold at every seed.

    ``size`` is the budget or group order; ``step`` is its 1-based position
    in the workload's size sweep (None for jobs outside the sweep), so
    commands swept over different sizes line up step by step.
    """

    def __init__(self, key, argv, command, size, step, golden=None):
        self.key = key
        self.argv = list(argv)
        self.command = command
        self.size = size
        self.step = step
        self.golden = golden

    def __repr__(self):
        return "Job(%s)" % self.key


def rational(rng, exclude=()):
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, HEIGHT),
                     rng.randint(1, HEIGHT))
        if q not in exclude:
            return q


def _q(x):
    return str(Fraction(x))


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# k[X1, X2] acting on k[Y]: one spec per Jordan-form family

def poly2_families(rng):
    """{family: (Q, beta1, beta2)} under the constraints of the fixtures."""
    q = rational(rng, exclude=(0, 1, -1))
    q1 = rational(rng, exclude=(0, 1, -1))
    return {
        # Jordan block with q^2 != 1, linear beta
        "1a": ([[q, 1], [0, q]], [0, rational(rng)], [0, rational(rng)]),
        # diagonal of infinite order with q1 q2 = 1, linear beta
        "1b": ([[q1, 0], [0, 1 / q1]], [0, rational(rng)], [0, rational(rng)]),
        # Q = I, beta1 = c Y, beta2 = 0
        "2": ([[1, 0], [0, 1]], [0, rational(rng)], [0]),
        # Q = -I, beta support = 1 mod 2
        "3a": ([[-1, 0], [0, -1]], [0, rational(rng), 0, rational(rng)],
               [0, rational(rng)]),
        # Q = diag(-1, 1), beta1 = c Y^3, beta2 = 0
        "3b": ([[-1, 0], [0, 1]], [0, 0, 0, rational(rng)], [0]),
    }


def poly2_spec(Q, beta1, beta2, budget):
    return {"kind": "poly2", "budget": budget,
            "payload": {"Q": [[_q(x) for x in row] for row in Q],
                        "beta1": [_q(x) for x in beta1],
                        "beta2": [_q(x) for x in beta2]}}


def _poly2_files(rng, out):
    return {fam: _write(os.path.join(out, "poly2_%s.json" % fam),
                        poly2_spec(Q, b1, b2, POLY2_BUDGETS[0]))
            for fam, (Q, b1, b2) in poly2_families(rng).items()}


def poly2_graded(seed, out):
    """crossed-product (with a seeded H^2 class) and compare on Q = I, and
    verify on the finite-order families 3a and 3b, whose beta of degree 3
    sends some suite tuples past the budget, over the budget sweep."""
    rng = random.Random(seed)
    files = _poly2_files(rng, out)
    # a class of H^2 = k[Y]/<Y>, the constants
    coc = _write(os.path.join(out, "cocycle_2.json"),
                 {"kind": "xi2", "b": [_q(rational(rng))]})
    compare_seed = str(rng.randrange(1 << 30))
    spec = files["2"]
    jobs = []
    for step, N in enumerate(POLY2_BUDGETS, 1):
        budget = ["--budget", str(N)]
        jobs.append(Job("crossed-product/poly2-2/%d" % N,
                        ["crossed-product", spec, "--cocycle", coc] + budget,
                        "crossed-product", N, step))
        jobs.append(Job("compare/poly2-2/%d" % N,
                        ["compare", spec, "--samples", str(COMPARE_SAMPLES),
                         "--seed", compare_seed] + budget,
                        "compare", N, step))
        for fam in ("3a", "3b"):
            jobs.append(Job("verify/poly2-%s/%d" % (fam, N),
                            ["verify", files[fam]] + budget,
                            "verify", N, step))
    return jobs


# ---------------------------------------------------------------------------
# Lie algebras: structure constants, rescaled diagonally

# The 4-dim filiform algebra (one verify at budget 3 takes about 16 s) and
# the 3-dim abelian one (4 s a sweep; abelian2 is the abelian control) are
# left out to keep a pass near 20 s.
LIE_ALGEBRAS = {
    "abelian2": (2, {}),
    "heisenberg": (3, {(0, 1): {2: 1}}),
    "nonabelian2": (2, {(0, 1): {1: 1}}),
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
}

GOLDEN_FIXTURES = ("case1a_q2", "case1a_qm1", "case1b_q1q2_1",
                   "case1b_q1q2_ne1", "case2_beta1_Y", "case2_beta1_Y2",
                   "case3a", "case3b")


def rescale(brackets, lam):
    """Structure constants in the basis y_i = lam_i x_i; Jacobi is preserved
    because this is a change of basis."""
    return {(i, j): {k: Fraction(c) * lam[i] * lam[j] / lam[k]
                     for k, c in val.items()}
            for (i, j), val in brackets.items()}


def lie_spec(dim, brackets, budget):
    return {"kind": "lie", "budget": budget,
            "payload": {"dim": dim, "brackets": {
                "%d,%d" % ij: {str(k): _q(c) for k, c in val.items()}
                for ij, val in sorted(brackets.items())}}}


def jacobi_holds(dim, brackets):
    def br(i, j):
        if i == j:
            return {}
        if i < j:
            return brackets.get((i, j), {})
        return {k: -c for k, c in brackets.get((j, i), {}).items()}

    for i, j, k in itertools.combinations(range(dim), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for g, u in br(a, b).items():
                for h, v in br(g, c).items():
                    total[h] = total.get(h, 0) + u * v
        if any(total.values()):
            return False
    return True


def resolution(seed, out):
    """verify on the rescaled Lie algebras over a budget sweep; classify and
    cohomology on poly2 families at budgets 8 and up; classify on each
    fixture at its own budget, against the golden text."""
    rng = random.Random(seed)
    lie_files = {}
    for name, (dim, brackets) in LIE_ALGEBRAS.items():
        lam = [rational(rng, exclude=(0,)) for _ in range(dim)]
        lie_files[name] = _write(os.path.join(out, "lie_%s.json" % name),
                                 lie_spec(dim, rescale(brackets, lam),
                                          LIE_BUDGETS[0]))
    files = _poly2_files(rng, out)
    jobs = []
    for step, N in enumerate(LIE_BUDGETS, 1):
        for name, spec in lie_files.items():
            jobs.append(Job("verify/lie-%s/%d" % (name, N),
                            ["verify", spec, "--budget", str(N)],
                            "verify", N, step))
    for step, N in enumerate(CLASSIFY_BUDGETS, 1):
        budget = ["--budget", str(N)]
        for fam, spec in files.items():
            jobs.append(Job("classify/poly2-%s/%d" % (fam, N),
                            ["classify", spec] + budget, "classify", N, step))
        for n in (1, 2):
            jobs.append(Job("cohomology-%d/poly2-2/%d" % (n, N),
                            ["cohomology", files["2"], "--degree", str(n)]
                            + budget, "cohomology", N, step))
    for name in GOLDEN_FIXTURES:
        jobs.append(Job("classify/fixture-%s" % name,
                        ["classify", "fixtures/%s.json" % name], "classify",
                        None, None, golden="tests/goldens/%s.txt" % name))
    return jobs


# ---------------------------------------------------------------------------
# group algebras k[G] with coefficients k[t]/(t^2)

DUAL_NUMBERS = {"basis": ["1", "t"], "unit": "1",
                "table": {"1|1": {"1": "1"}, "1|t": {"t": "1"},
                          "t|1": {"t": "1"}, "t|t": {}}}


def abelian_group(orders):
    """Z/n1 x ... x Z/nk as element tuples, with the identity first."""
    return list(itertools.product(*(range(n) for n in orders)))


def group_spec(orders, rng, graded, sign):
    """Elements are shuffled and renamed by the seed.  graded: t is graded by
    inversion; sign: t carries a seeded character G -> {+1, -1}."""
    elems = abelian_group(orders)
    perm = elems[1:]
    rng.shuffle(perm)
    order = [elems[0]] + perm
    name = {g: "g%d" % i for i, g in enumerate(order)}

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    payload = {"elements": [name[g] for g in order],
               "identity": name[elems[0]],
               "table": [[name[mul(a, b)] for b in order] for a in order],
               "algebra": DUAL_NUMBERS}
    if graded:
        inv = {name[g]: name[tuple((-x) % n for x, n in zip(g, orders))]
               for g in order}
        payload["automorphisms"] = {"id": {name[g]: name[g] for g in order},
                                    "inv": inv}
        payload["gradation"] = {"1": "id", "t": "inv"}
    if sign:
        # the character g -> (-1)^(parity of one seeded even-order coordinate)
        axis = rng.choice([i for i, n in enumerate(orders) if n % 2 == 0])
        action = {}
        for g in order:
            s = -1 if g[axis] % 2 else 1
            action["%s|1" % name[g]] = {"1": "1"}
            action["%s|t" % name[g]] = {"t": str(s)}
        payload["action"] = action
    return {"kind": "group", "payload": payload}


GROUPS = {3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)], 6: [(6,)]}


def group_cochains(seed, out):
    """compare (homogenization against the bar differential) on graded
    instances of every group, and verify with a sign action on the cyclic
    groups of even order, whose sign character is not trivial, over a sweep
    of group orders."""
    rng = random.Random(seed)
    jobs = []
    for step, n in enumerate(GROUP_ORDERS, 1):
        for orders in GROUPS[n]:
            tag = "x".join("Z%d" % k for k in orders)
            graded = _write(os.path.join(out, "group_%s_graded.json" % tag),
                            group_spec(orders, rng, graded=True, sign=False))
            jobs.append(Job("compare/%s" % tag,
                            ["compare", graded,
                             "--seed", str(rng.randrange(1 << 30))],
                            "compare", n, step))
            if orders in ((4,), (6,)):
                signed = _write(os.path.join(out, "group_%s_sign.json" % tag),
                                group_spec(orders, rng, graded=False,
                                           sign=True))
                jobs.append(Job("verify/%s" % tag, ["verify", signed],
                                "verify", n, step))
    return jobs


WORKLOADS = {
    "poly2-graded": poly2_graded,
    "resolution": resolution,
    "group-cochains": group_cochains,
}


def generate(workload, seed, out):
    """Write the inputs of ``workload`` for ``seed`` under ``out``; return
    its jobs."""
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[workload](seed, out)
