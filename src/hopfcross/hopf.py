"""Braided bialgebra / Hopf algebra containers, instances and axiom suites.

A `HopfData` stores every structure map (multiplication, unit, comultiplication,
counit, optional antipode, braid) as explicit columns over an ordered basis.
Nothing is ever assumed: `verify_braided_bialgebra` re-derives each axiom on
basis tuples and reports failures with witnesses, skipping (and counting)
tuples that cannot be formed inside the degree budget.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .exact import (ONE, Element, KSPACE, LinMap, Slot, Space,
                    TruncationOverflow, _element, apply_at, invert_linmap,
                    NotInvertible, slot_permutation, tensor)


class InvalidGroup(Exception):
    pass


class InvalidLieAlgebra(Exception):
    pass


class CheckResult:
    def __init__(self, name, checked=0, skipped=0, failures=None):
        self.name = name
        self.checked = checked
        self.skipped = skipped
        self.failures = failures if failures is not None else []

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        # a result read as a bool would pass every `assert` and `if`
        raise TypeError("read CheckResult.passed, not the result itself")

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.skipped:
            extra = " [skipped (budget): %d]" % self.skipped
        if self.failures:
            extra += " witness=%r" % (self.failures[0],)
        return "%-42s %s (%d checked)%s" % (self.name, status, self.checked, extra)


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, check):
        self.checks.append(check)
        return check

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self):
        lines = []
        if self.title:
            lines.append(self.title)
        lines.extend(c.line() for c in self.checks)
        lines.append("OVERALL: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def __repr__(self):
        return "Report(%s, ok=%s)" % (self.title, self.ok)


#: the failing labels a CheckResult keeps as witnesses
MAX_WITNESS = 3


def compare_on(space, lhs, rhs, budget=None, name="",
               first_failure=False) -> CheckResult:
    """The comparison loop behind every identity check.

    lhs and rhs are called as side(x, t) on each label t of space of degree
    <= budget and its basis vector x.  A label whose evaluation raises
    TruncationOverflow is skipped and counted; every other label is checked,
    and up to MAX_WITNESS failing labels are kept as witnesses.  With
    first_failure=True the loop stops at the first failure.
    """
    res = CheckResult(name)
    labels = space.basis()
    # space.basis() yields only labels of the space, so neither their degree
    # up to the space's own budget nor their basis vectors need a check
    if budget is not None and (space.budget is None or budget < space.budget):
        labels = (t for t in labels if space.degree(t) <= budget)
    for t in labels:
        x = _element(space, {t: ONE})
        try:
            a, b = lhs(x, t), rhs(x, t)
        except TruncationOverflow:
            res.skipped += 1
            continue
        res.checked += 1
        if a != b:
            if len(res.failures) < MAX_WITNESS:
                res.failures.append(t)
            if first_failure:
                break
    return res


def check_equal_on(report, name, space, lhs, rhs, budget=None):
    """Check lhs = rhs on the basis of space within the degree budget.

    lhs and rhs are called as side(x, t) on each label t of degree <= budget
    and its basis vector x.  Labels whose evaluation leaves the budget are
    counted as skipped, never as passing.  The CheckResult, with at most
    MAX_WITNESS failing labels as witnesses, is added to report and returned.
    """
    return report.add(compare_on(space, lhs, rhs, budget, name=name))


def check_item(report, name, failure=None):
    """A check on one item, failing with the witness failure unless that is
    None; the CheckResult is added to report and returned."""
    return report.add(CheckResult(
        name, checked=1, failures=None if failure is None else [failure]))


def check_invertible(report, name, f: LinMap):
    """One check that f is bijective; a failure keeps the NotInvertible
    message (a dimension mismatch or the first singular degree block)."""
    try:
        invert_linmap(f)
    except NotInvertible as exc:
        return check_item(report, name, str(exc))
    return check_item(report, name)


class HopfData:
    """Structure constants of a braided bialgebra, plus verified flags.

    The structure maps are fixed once constructed: what is derived from them
    (the tensor powers H^n and their maps, whether the braid is the flip) is
    built on first request and kept with the instance, see `derived`.
    """

    def __init__(self, name, space, mul, unit, comul, counit, antipode=None,
                 braid=None, cocommutative=False, involutive_braid=False):
        self.name = name
        self.space = space
        self.mul = mul                      # H (x) H -> H
        self.unit = unit                    # Element of H
        self.comul = comul                  # H -> H (x) H
        self.counit = counit                # H -> k
        self.antipode = antipode            # H -> H or None
        self.braid = braid                  # H (x) H -> H (x) H
        self.cocommutative = cocommutative
        self.involutive_braid = involutive_braid
        self._derived = {}

    def derived(self, key, build):
        """build(), computed on the first request for key and then shared."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def power(self, n):
        """The space H^(x)n (H^0 = k)."""
        sp = KSPACE
        for _ in range(n):
            sp = sp.tensor(self.space)
        return sp

    def unit_label(self):
        (lab, coeff), = self.unit.coeffs.items()
        if coeff != 1:
            raise ValueError("unit is not a basis vector")
        return lab[0]

    def counit_value(self, atom) -> Fraction:
        return self.counit.columns[(atom,)].scalar_value()

    def multiply(self, a: Element, b: Element) -> Element:
        return self.mul.apply(tensor(a, b))

    def __repr__(self):
        return "HopfData(%s, dim=%s, budget=%s)" % (
            self.name, self.space.dim(), self.space.budget)


# ---------------------------------------------------------------------------
# instances

class GroupSpec:
    """Finite group by multiplication table; checked at load."""

    def __init__(self, elements, table, identity):
        self.elements = tuple(elements)
        self.table = dict(table)
        self.identity = identity
        self._validate()

    def _validate(self):
        els = set(self.elements)
        if self.identity not in els:
            raise InvalidGroup("identity not among elements")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table or self.table[(a, b)] not in els:
                    raise InvalidGroup("table not closed at (%s,%s)" % (a, b))
            if self.table[(a, self.identity)] != a or self.table[(self.identity, a)] != a:
                raise InvalidGroup("identity law fails at %s" % a)
        for a in self.elements:
            if not any(self.table[(a, b)] == self.identity for b in self.elements):
                raise InvalidGroup("no inverse for %s" % a)
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                raise InvalidGroup("associativity fails at (%s,%s,%s)" % (a, b, c))

    def mul(self, a, b):
        return self.table[(a, b)]

    def inverse(self, a):
        for b in self.elements:
            if self.table[(a, b)] == self.identity:
                return b
        raise InvalidGroup("no inverse for %s" % a)

    @staticmethod
    def cyclic(n):
        els = ["e"] + ["g%d" % i for i in range(1, n)]
        table = {}
        for i in range(n):
            for j in range(n):
                table[(els[i], els[j])] = els[(i + j) % n]
        return GroupSpec(els, table, "e")

    @staticmethod
    def symmetric(n):
        perms = list(itertools.permutations(range(n)))
        name = {p: "s" + "".join(str(i) for i in p) for p in perms}
        table = {}
        for p in perms:
            for q in perms:
                pq = tuple(p[q[i]] for i in range(n))
                table[(name[p], name[q])] = name[pq]
        ident = tuple(range(n))
        return GroupSpec([name[p] for p in perms], table, name[ident])


class LieSpec:
    """Finite-dimensional Lie algebra by structure constants in a fixed basis.

    brackets maps (i, j) with i < j to {k: coefficient of x_k in [x_i, x_j]}.
    Antisymmetry is built in; the Jacobi identity is checked at load.
    """

    def __init__(self, dim, brackets):
        self.dim = dim
        self.brackets = {}
        for (i, j), val in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InvalidLieAlgebra("generator index out of range")
            if i >= j:
                raise InvalidLieAlgebra("brackets must be keyed by i < j")
            if not all(0 <= k < dim for k in val):
                raise InvalidLieAlgebra("bracket output index out of range")
            self.brackets[(i, j)] = {k: Fraction(c) for k, c in val.items()
                                     if Fraction(c) != 0}
        self._check_jacobi()

    def is_abelian(self):
        return not any(self.brackets.values())

    def bracket(self, i, j):
        """[x_i, x_j] as {k: coeff}."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def _bracket_elt(self, vec_i, vec_j):
        out = {}
        for a, ca in vec_i.items():
            for b, cb in vec_j.items():
                for k, c in self.bracket(a, b).items():
                    out[k] = out.get(k, Fraction(0)) + ca * cb * c
        return {k: v for k, v in out.items() if v != 0}

    def _check_jacobi(self):
        for i, j, k in itertools.combinations(range(self.dim), 3):
            total = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                term = self._bracket_elt(self.bracket(a, b), {c: Fraction(1)})
                for g, v in term.items():
                    total[g] = total.get(g, Fraction(0)) + v
            if any(v != 0 for v in total.values()):
                raise InvalidLieAlgebra("Jacobi fails on (%d,%d,%d)" % (i, j, k))

    @staticmethod
    def abelian(dim):
        return LieSpec(dim, {})

    @staticmethod
    def heisenberg():
        # [x, y] = z
        return LieSpec(3, {(0, 1): {2: 1}})


def flip_braid(space: Space) -> LinMap:
    h2 = space.tensor(space)
    return slot_permutation(h2, (1, 0))


def build_group_algebra(g: GroupSpec) -> HopfData:
    """k[G]: grouplike comultiplication, antipode g -> g^-1, flip braid."""
    slot = Slot("kG", g.elements)
    H = Space((slot,))
    H2 = H.tensor(H)

    mul = LinMap.from_function(H2, H, lambda lab: Element.basis_vector(
        H, (g.mul(lab[0], lab[1]),)))
    unit = Element.basis_vector(H, (g.identity,))
    comul = LinMap.from_function(H, H2, lambda lab: Element.basis_vector(
        H2, (lab[0], lab[0])))
    counit = LinMap.from_function(H, KSPACE, lambda lab: Element.scalar(1))
    antipode = LinMap.from_function(H, H, lambda lab: Element.basis_vector(
        H, (g.inverse(lab[0]),)))
    data = HopfData("k[G]", H, mul, unit, comul, counit, antipode,
                    flip_braid(H), cocommutative=True, involutive_braid=True)
    data.group = g
    return data


def _exponent_labels(nvars, budget):
    def rec(i, remaining):
        if i == nvars:
            yield ()
            return
        for a in range(remaining + 1):
            for rest in rec(i + 1, remaining - a):
                yield (a,) + rest
    return sorted(rec(0, budget), key=lambda e: (sum(e), e))


def _binomial_comul(H, H2):
    """Delta on the PBW basis of U(L), where every generator is primitive.

    Cross terms of the binomial expansion stay ordered, so the formula holds
    for every L, not only for the abelian L of k[X_1..X_m].
    """
    def column(lab):
        exp = lab[0]
        out = {}
        for parts in itertools.product(*[range(a + 1) for a in exp]):
            left = tuple(parts)
            right = tuple(a - p for a, p in zip(exp, parts))
            coeff = 1
            for a, p in zip(exp, parts):
                coeff *= comb(a, p)
            out[(left, right)] = Fraction(coeff)
        return Element(H2, out, validate=False)
    return LinMap.from_function(H, H2, column)


class _PBW:
    """Straightening engine: words in generator indices to ordered monomials."""

    def __init__(self, lie: LieSpec):
        self.lie = lie
        self.memo = {}

    def straighten(self, word):
        word = tuple(word)
        cached = self.memo.get(word)
        if cached is not None:
            return cached
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2:]
                out = self.straighten(swapped)
                bracket = self.lie.bracket(word[k], word[k + 1])
                # an empty bracket: the word shares its swap's entry
                if bracket:
                    out = dict(out)
                    for g, cb in bracket.items():
                        sub = word[:k] + (g,) + word[k + 2:]
                        for mono, c in self.straighten(sub).items():
                            out[mono] = out.get(mono, Fraction(0)) + cb * c
                    out = {m: c for m, c in out.items() if c != 0}
                self.memo[word] = out
                return out
        exp = [0] * self.lie.dim
        for g in word:
            exp[g] += 1
        out = {tuple(exp): Fraction(1)}
        self.memo[word] = out
        return out


def _word_of(exp):
    out = []
    for i, a in enumerate(exp):
        out.extend([i] * a)
    return tuple(out)


def build_truncated_enveloping(L: LieSpec, N: int) -> HopfData:
    """U(L) truncated at PBW degree N; multiplication by straightening."""
    r = L.dim
    labels = _exponent_labels(r, N)
    slot = Slot("UL%d" % r, labels, {e: sum(e) for e in labels})
    H = Space((slot,), budget=N)
    H2 = H.tensor(H)
    pbw = _PBW(L)

    def mul_col(lab):
        a, b = lab
        terms = pbw.straighten(_word_of(a) + _word_of(b))
        return Element(H, {(m,): c for m, c in terms.items()}, validate=False)

    mul = LinMap.from_function(H2, H, mul_col)
    unit = Element.basis_vector(H, ((0,) * r,))
    comul = _binomial_comul(H, H2)
    counit = LinMap.from_function(
        H, KSPACE, lambda lab: Element.scalar(1 if sum(lab[0]) == 0 else 0))

    def antipode_col(lab):
        word = tuple(reversed(_word_of(lab[0])))
        sign = Fraction(-1) ** len(word)
        terms = pbw.straighten(word)
        return Element(H, {(m,): sign * c for m, c in terms.items()},
                       validate=False)

    antipode = LinMap.from_function(H, H, antipode_col)
    return HopfData("U(L)/deg>%d" % N, H, mul, unit, comul, counit,
                    antipode, flip_braid(H),
                    cocommutative=True, involutive_braid=True)


def build_truncated_poly_hopf(m: int, N: int) -> HopfData:
    """k[X_1..X_m] truncated at total degree N: U(L) of the abelian L."""
    h = build_truncated_enveloping(LieSpec.abelian(m), N)
    h.name = "k[X1..X%d]/deg>%d" % (m, N)
    return h


# ---------------------------------------------------------------------------
# axiom suites

def verify_braided_bialgebra(h: HopfData, budget=None) -> Report:
    """Run every Definition-level axiom on basis tuples within the budget."""
    report = Report("braided bialgebra axioms: %s" % h.name)
    H = h.space
    H2 = H.tensor(H)
    H3 = H2.tensor(H)
    mul, comul, counit, c = h.mul, h.comul, h.counit, h.braid
    unit = h.unit

    check_equal_on(report, "algebra.associativity", H3,
                   lambda x, t: mul.apply(apply_at(mul, x, 0)),
                   lambda x, t: mul.apply(apply_at(mul, x, 1)), budget)
    check_equal_on(report, "algebra.unit", H,
                   lambda x, t: mul.apply(tensor(unit, x)),
                   lambda x, t: x, budget)
    check_equal_on(report, "algebra.unit_right", H,
                   lambda x, t: mul.apply(tensor(x, unit)),
                   lambda x, t: x, budget)
    check_equal_on(report, "coalgebra.coassociativity", H,
                   lambda x, t: apply_at(comul, comul.apply(x), 0),
                   lambda x, t: apply_at(comul, comul.apply(x), 1), budget)
    check_equal_on(report, "coalgebra.counit", H,
                   lambda x, t: apply_at(counit, comul.apply(x), 0),
                   lambda x, t: x, budget)
    check_equal_on(report, "coalgebra.counit_right", H,
                   lambda x, t: apply_at(counit, comul.apply(x), 1),
                   lambda x, t: x, budget)
    check_equal_on(report, "epsilon.algebra_map", H2,
                   lambda x, t: counit.apply(mul.apply(x)),
                   lambda x, t: Element.scalar(h.counit_value(t[0]) * h.counit_value(t[1])),
                   budget)
    eta_ok = (comul.apply(unit) == tensor(unit, unit)
              and counit.apply(unit) == Element.scalar(1))
    check_item(report, "eta.coalgebra_map", None if eta_ok else "unit")

    # compatibility of the braid with multiplication and unit, both slots
    check_equal_on(report, "braid.mul_compat_slot1", H3,
                   lambda x, t: c.apply(apply_at(mul, x, 0)),
                   lambda x, t: apply_at(mul, apply_at(c, apply_at(c, x, 1), 0), 1),
                   budget)
    check_equal_on(report, "braid.mul_compat_slot2", H3,
                   lambda x, t: c.apply(apply_at(mul, x, 1)),
                   lambda x, t: apply_at(mul, apply_at(c, apply_at(c, x, 0), 1), 0),
                   budget)
    check_equal_on(report, "braid.unit_compat_slot1", H,
                   lambda x, t: c.apply(tensor(unit, x)),
                   lambda x, t: tensor(x, unit), budget)
    check_equal_on(report, "braid.unit_compat_slot2", H,
                   lambda x, t: c.apply(tensor(x, unit)),
                   lambda x, t: tensor(unit, x), budget)

    # compatibility of the braid with comultiplication and counit, both slots
    check_equal_on(report, "braid.comul_compat_slot1", H2,
                   lambda x, t: apply_at(comul, c.apply(x), 1),
                   lambda x, t: apply_at(c, apply_at(c, apply_at(comul, x, 0), 1), 0),
                   budget)
    check_equal_on(report, "braid.comul_compat_slot2", H2,
                   lambda x, t: apply_at(comul, c.apply(x), 0),
                   lambda x, t: apply_at(c, apply_at(c, apply_at(comul, x, 1), 0), 1),
                   budget)
    check_equal_on(report, "braid.counit_compat_slot1", H2,
                   lambda x, t: apply_at(counit, c.apply(x), 1),
                   lambda x, t: Element(H, {(t[1],): h.counit_value(t[0])}, validate=False),
                   budget)
    check_equal_on(report, "braid.counit_compat_slot2", H2,
                   lambda x, t: apply_at(counit, c.apply(x), 0),
                   lambda x, t: Element(H, {(t[0],): h.counit_value(t[1])}, validate=False),
                   budget)

    def delta_mu_rhs(x, t):
        x = apply_at(comul, x, 0)                 # Delta (x) H
        x = apply_at(comul, x, 2)                 # Delta (x) Delta
        x = apply_at(c, x, 1)                     # H (x) c (x) H
        x = apply_at(mul, x, 0)
        return apply_at(mul, x, 1)

    check_equal_on(report, "bialgebra.delta_mu_twisted", H2,
                   lambda x, t: comul.apply(mul.apply(x)),
                   delta_mu_rhs, budget)

    check_equal_on(report, "braid.yang_baxter", H3,
                   lambda x, t: apply_at(c, apply_at(c, apply_at(c, x, 0), 1), 0),
                   lambda x, t: apply_at(c, apply_at(c, apply_at(c, x, 1), 0), 1),
                   budget)

    check_invertible(report, "braid.bijective", c)

    # flags are verified both ways: the flag must match what the data does
    for name, flag, space, lhs, rhs in (
            ("flags.cocommutative", h.cocommutative, H,
             lambda x, t: c.apply(comul.apply(x)),
             lambda x, t: comul.apply(x)),
            ("flags.involutive_braid", h.involutive_braid, H2,
             lambda x, t: c.apply(c.apply(x)),
             lambda x, t: x)):
        res = report.add(compare_on(space, lhs, rhs, budget, name=name,
                                    first_failure=True))
        holds = res.passed
        res.failures = [] if holds == flag else [
            "flag %s but identity holds=%s" % (flag, holds)]
    return report


def verify_antipode(h: HopfData, budget=None) -> Report:
    report = Report("antipode axioms: %s" % h.name)
    if h.antipode is None:
        check_item(report, "antipode.present", "no antipode supplied")
        return report
    H = h.space
    S, mul, comul = h.antipode, h.mul, h.comul

    def eta_eps(x, t):
        return h.counit_value(t[0]) * h.unit

    check_equal_on(report, "antipode.left_inverse", H,
                   lambda x, t: mul.apply(apply_at(S, comul.apply(x), 0)),
                   eta_eps, budget)
    check_equal_on(report, "antipode.right_inverse", H,
                   lambda x, t: mul.apply(apply_at(S, comul.apply(x), 1)),
                   eta_eps, budget)
    if h.cocommutative:
        # (H (x) S) o Delta o S = (S (x) H) o Delta, used in the iota_n proof
        check_equal_on(report, "antipode.cocommutative_twist", H,
                       lambda x, t: apply_at(S, comul.apply(S.apply(x)), 1),
                       lambda x, t: apply_at(S, comul.apply(x), 0), budget)
    return report
