"""Transpositions, braided module (co)algebras and entwining structures.

Builds the iterated braids c^m_n and sc_n (slot permutations when the braid
is the flip, their defining recursions otherwise), the module-coalgebra
structure on tensor powers of H, the Aut(G)-graded transposition of the
group variant, and the two-variable polynomial action on k[Y] with its
validity analysis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .exact import (ONE, ColumnOverflow, Element, KSPACE, LinMap,
                    NotInvertible, Slot, Space, TruncationOverflow, _element,
                    apply_at, rat, rat_str, slot_permutation,
                    span_coefficients, tensor)
from .hopf import (HopfData, Report, build_group_algebra,
                   build_truncated_poly_hopf, check_equal_on, check_invertible,
                   GroupSpec)


class InvalidGradation(Exception):
    pass


class InvalidAction(Exception):
    def __init__(self, equation, msg=""):
        super().__init__("%s violated%s" % (equation, ": " + msg if msg else ""))
        self.equation = equation


class AlgebraData:
    """Plain associative unital algebra by structure constants."""

    def __init__(self, name, space, mul, unit):
        self.name = name
        self.space = space
        self.mul = mul
        self.unit = unit

    @staticmethod
    def from_table(name, labels, table, unit_label):
        """table maps (a, b) to {label: coeff}; absent pairs multiply to 0."""
        space = Space((Slot(name, labels),))
        sq = space.tensor(space)
        cols = {}
        for lab in sq.basis():
            a, b = lab
            cols[lab] = Element(space, {(m,): rat(c)
                                        for m, c in table.get((a, b), {}).items()})
        return AlgebraData(name, space, LinMap(sq, space, cols),
                           Element.basis_vector(space, (unit_label,)))

    def multiply(self, a, b):
        return self.mul.apply(tensor(a, b))

    def element_inverse(self, a: Element) -> Element:
        """Two-sided inverse via an exact linear solve; loud on one-sided."""
        labels = list(self.space.basis())
        sol = span_coefficients(
            [self.multiply(a, Element.basis_vector(self.space, lab)).coeffs
             for lab in labels], self.unit.coeffs)
        if sol is None:
            raise NotInvertible("element has no right inverse")
        cand = Element(self.space,
                       {labels[j]: v for j, v in enumerate(sol) if v},
                       validate=False)
        if self.multiply(cand, a) != self.unit:
            raise NotInvertible("element is only one-sided invertible")
        return cand


def poly_algebra(N) -> AlgebraData:
    """k[Y] truncated at degree N; atoms are the exponents 0..N."""
    labels = list(range(N + 1))
    slot = Slot("kY", labels, {n: n for n in labels})
    space = Space((slot,), budget=N)
    sq = space.tensor(space)
    cols = {}
    for lab in sq.basis():
        cols[lab] = Element.basis_vector(space, (lab[0] + lab[1],))
    return AlgebraData("kY", space, LinMap(sq, space, cols),
                       Element.basis_vector(space, (0,)))


class ModuleAlgebraData:
    def __init__(self, hopf: HopfData, algebra: AlgebraData, s: LinMap,
                 rho: LinMap, name=""):
        self.hopf = hopf
        self.algebra = algebra
        self.s = s          # H (x) A -> A (x) H
        self.rho = rho      # H (x) A -> A
        self.name = name or "%s-module algebra %s" % (hopf.name, algebra.name)

    def act(self, h: Element, a: Element) -> Element:
        return self.rho.apply(tensor(h, a))

    def __repr__(self):
        return "ModuleAlgebraData(%s)" % self.name


class ModuleCoalgebraData:
    def __init__(self, hopf: HopfData, space, comul, counit, s, rho, varsigma,
                 kind="other", name="", walk=None):
        self.hopf = hopf
        self.space = space
        self.comul = comul          # C -> C (x) C
        # (label, keep) -> the kept terms of Delta(label)
        self._walk = walk or stored_walk(comul, space.arity)
        self.counit = counit        # C -> k
        self.s = s                  # H (x) C -> C (x) H
        self.rho = rho              # H (x) C -> C
        self._varsigma = varsigma   # a LinMap, or a function building it
        self.kind = kind            # grouplike | graded_connected | other
        self.name = name

    @property
    def varsigma(self) -> LinMap:
        """The braid of C (c^n_n on tensor powers); when it was given as a
        function, that function runs on the first read."""
        if not isinstance(self._varsigma, LinMap):
            self._varsigma = self._varsigma()
        return self._varsigma

    def counit_value(self, label) -> Fraction:
        return self.counit.columns[label].scalar_value()

    def comul_column(self, label, keep=None) -> Element:
        """Delta(label), or only its terms that `keep` keeps (see
        `kept_terms`), in the order of Delta: built by the coalgebra's walk
        when it was given one (H^n), else read from its stored comul
        column."""
        return self._walk(label, keep)


class EntwiningData:
    def __init__(self, coalgebra: ModuleCoalgebraData, algebra: AlgebraData,
                 psi: LinMap):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.psi = psi              # C (x) A -> A (x) C


# ---------------------------------------------------------------------------
# iterated braids (Notations 1.9)

def braid_is_flip(h: HopfData) -> bool:
    """Whether h.braid has exactly the columns of the flip; decided once per
    HopfData.  An involutive braid need not be the flip, so the
    involutive_braid flag is not consulted."""
    return h.derived("braid_is_flip", lambda: _is_flip(h.braid, h.space))


def _is_flip(braid: LinMap, space: Space) -> bool:
    """braid == flip_braid(space), decided column by column without
    building the flip."""
    sq = space.tensor(space)
    if braid.domain != sq or braid.codomain != sq:
        return False
    cols = braid.columns
    labels = list(sq.basis())
    return all(cols.get((a, b)) == Element.basis_vector(sq, (b, a))
               for a, b in labels) and len(cols) == len(labels)


def braid_cross(m: int, n: int, h: HopfData) -> LinMap:
    """c^m_n: H^m (x) H^n -> H^n (x) H^m.

    For the flip braid the defining recursion reduces to the slot
    permutation (m..m+n-1, 0..m-1), which is built directly; any other
    braid goes through `braid_cross_recursive`.
    """
    if m < 1 or n < 1:
        raise ValueError("arities must be >= 1")
    if m == 1 and n == 1:
        return h.braid
    if braid_is_flip(h):
        return slot_permutation(h.power(m + n),
                                tuple(range(m, m + n)) + tuple(range(m)))
    return braid_cross_recursive(m, n, h)


def braid_cross_recursive(m: int, n: int, h: HopfData) -> LinMap:
    """c^m_n by the defining recursion, for any braid (the reference path)."""
    if m < 1 or n < 1:
        raise ValueError("arities must be >= 1")
    c = h.braid
    if m == 1 and n == 1:
        return c
    dom = h.power(m + n)
    cod = dom
    if m == 1:
        inner = braid_cross_recursive(1, n - 1, h)

        def col(lab):
            x = Element.basis_vector(dom, lab)
            x = apply_at(c, x, 0)
            return apply_at(inner, x, 1)
    else:
        tail = braid_cross_recursive(1, n, h)
        head = braid_cross_recursive(m - 1, n, h)

        def col(lab):
            x = Element.basis_vector(dom, lab)
            x = apply_at(tail, x, m - 1)
            return apply_at(head, x, 0)

    return LinMap.from_function(dom, cod, col)


def braid_shuffle(n: int, h: HopfData) -> LinMap:
    """sc_n: H^2n -> H^2n; carries the odd-position entries to the right.

    For the flip braid this is the slot permutation (1, 3, ..., 0, 2, ...),
    built directly; any other braid goes through `braid_shuffle_recursive`.
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    if n == 1:
        return h.braid
    if braid_is_flip(h):
        return slot_permutation(h.power(2 * n), tuple(range(1, 2 * n, 2))
                                + tuple(range(0, 2 * n, 2)))
    return braid_shuffle_recursive(n, h)


def braid_shuffle_recursive(n: int, h: HopfData) -> LinMap:
    """sc_n by the defining recursion, for any braid (the reference path)."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    if n == 1:
        return h.braid
    inner = braid_shuffle_recursive(n - 1, h)
    dom = h.power(2 * n)

    def col(lab):
        x = Element.basis_vector(dom, lab)
        for i in range(n):
            x = apply_at(h.braid, x, 2 * i)
        return apply_at(inner, x, 1)

    return LinMap.from_function(dom, dom, col)


def kept_terms(terms, keep):
    """The terms (left, right, c) of a coproduct that keep = (lefts,
    rights) keeps, in their order: those whose left label is in lefts and,
    unless rights is None, whose right label is in rights.  The walk
    filters prefixes of the labels with it, so each set holds the prefixes
    of the labels it keeps."""
    lefts, rights = keep
    return [t for t in terms
            if t[0] in lefts and (rights is None or t[1] in rights)]


def stored_walk(comul: LinMap, n: int):
    """The walk of a coalgebra on n slots whose coproduct columns are the
    stored columns of comul."""
    columns = comul.columns

    def walk(lab, keep=None):
        col = columns[lab]
        if keep is None:
            return col
        terms = [(img[:n], img[n:], c) for img, c in col.coeffs.items()]
        return _element(col.space, {left + right: c for left, right, c
                                    in kept_terms(terms, keep)})

    return walk


def _walk(h: HopfData, n: int):
    """The walk of H^n, flip braid and n >= 2: (label, keep=None) to the
    column of its coproduct, or to its terms that `keep` keeps (see
    `kept_terms`).  The column is built on every call from the per-slot
    coproduct parts, computed once per HopfData, and kept by no one:
    sc_{n-1} only reorders slots, so the first factors and the second
    factors of the parts are joined, slot 0 varying fastest.  With keep,
    the joined prefixes are filtered after each slot, so a dropped prefix
    is never extended.  A label past the budget, or an atom without a
    coproduct, is a defect of Delta and raises ColumnOverflow, whatever
    keep drops."""
    C = h.power(n)
    CC = C.tensor(C)
    budget = CC.budget
    parts, tops = h.derived("coproduct_parts", lambda: _coproduct_parts(h))

    def walk(lab, keep=None):
        # the last slot first, so a label with several atoms lacking a
        # coproduct names the last of them
        try:
            factors = [parts[atom] for atom in reversed(lab)]
        except KeyError as exc:
            raise ColumnOverflow.at(lab, C, CC, "no column for %r"
                                    % ((exc.args[0],),)) from None
        # a label whose atoms' top pair degrees fit the budget has every
        # term inside it; any other has all its terms checked, so nothing
        # is dropped before the check
        check = budget is not None and sum(map(tops.__getitem__, lab)) > budget
        prune = None if check else keep
        # each slot's terms run inside the next slot's, so slot 0 varies
        # fastest and each coefficient product is one multiplication
        terms = factors[-1]
        for part in factors[-2::-1]:
            if prune is not None:
                terms = kept_terms(terms, prune)
            terms = [(l1 + l2, r1 + r2,
                      c1 if c2 is ONE else c2 if c1 is ONE else c1 * c2)
                     for l2, r2, c2 in part for l1, r1, c1 in terms]
        if check:
            for left, right, _ in terms:
                if CC.degree(left + right) > budget:
                    raise ColumnOverflow.at(lab, C, CC, "label exceeds budget")
        if keep is not None:
            terms = kept_terms(terms, keep)
        return _element(CC, {left + right: c for left, right, c in terms})

    return walk


def _coproduct_parts(h: HopfData):
    """Per atom, the terms ((left,), (right,), coefficient) of its coproduct
    column, a coefficient equal to 1 given as ONE, and the largest degree of
    a pair among them."""
    H2 = h.comul.codomain
    parts, tops = {}, {}
    for lab, col in h.comul.columns.items():
        parts[lab[0]] = [(pair[:1], pair[1:], ONE if c == 1 else c)
                         for pair, c in col.coeffs.items()]
        tops[lab[0]] = max(map(H2.degree, col.coeffs), default=0)
    return parts, tops


def coproduct_preserves_degree(h: HopfData) -> bool:
    """Whether every term of the coproduct of each atom has the atom's
    degree; decided once per HopfData from its coproduct parts."""
    def decide():
        degree = h.space.degree
        parts, _ = h.derived("coproduct_parts", lambda: _coproduct_parts(h))
        return all(degree(left) + degree(right) == degree((atom,))
                   for atom, part in parts.items() for left, right, _ in part)
    return h.derived("coproduct_preserves_degree", decide)


def tensor_power_comul_shuffled(h: HopfData, n: int) -> LinMap:
    """Delta of H^n by Delta on every slot, then the recursive sc_{n-1} on
    the middle slots, for any braid (the reference path)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return h.comul
    C = h.power(n)
    shuffle = braid_shuffle_recursive(n - 1, h)

    def comul_col(lab):
        x = Element.basis_vector(C, lab)
        for i in range(n - 1, -1, -1):
            x = apply_at(h.comul, x, i)
        return apply_at(shuffle, x, 1)

    return LinMap.from_function(C, C.tensor(C), comul_col)


def tensor_power_coalgebra(h: HopfData, n: int) -> ModuleCoalgebraData:
    """H^n as a left H-braided module coalgebra, the one builder of H^n.

    Its maps are built once per HopfData, in one `derived` entry, and
    shared by every call; each call returns its own ModuleCoalgebraData
    over them, so changing one's attributes leaves the others alone.  The
    coproduct is h.comul at n = 1; for the flip braid it is read through
    `_walk`, which stores no column, and its map builds a column only when
    an oracle reads it; any other braid gives `tensor_power_comul_shuffled`.
    varsigma = c^n_n is built on its first read, then shared too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    comul, walk, counit, s, rho, kind = h.derived(
        ("tensor_power", n), lambda: _tensor_power_maps(h, n))
    return ModuleCoalgebraData(
        h, h.power(n), comul, counit, s, rho,
        lambda: h.derived(("varsigma", n), lambda: braid_cross(n, n, h)),
        kind=kind, name="%s^%d" % (h.name, n), walk=walk)


def _tensor_power_maps(h: HopfData, n: int):
    C = h.power(n)
    if n == 1:
        comul, walk = h.comul, None
    elif braid_is_flip(h):
        walk = _walk(h, n)
        comul = LinMap.from_function(C, C.tensor(C), walk)
    else:
        comul, walk = tensor_power_comul_shuffled(h, n), None

    def counit_col(lab):
        v = Fraction(1)
        for atom in lab:
            v *= h.counit_value(atom)
        return Element.scalar(v)

    counit = LinMap.from_function(C, KSPACE, counit_col)

    s = braid_cross(1, n, h)

    HC = h.space.tensor(C)

    def rho_col(lab):
        x = Element.basis_vector(HC, lab)
        return apply_at(h.mul, x, 0)

    rho = LinMap.from_function(HC, C, rho_col)

    graded = any(s_.degrees for s_ in h.space.slots)
    kind = "graded_connected" if graded else "grouplike"
    if not graded:
        # grouplike only when every basis atom really is grouplike
        for atom in h.space.slots[0].labels:
            x = Element.basis_vector(h.space, (atom,))
            if h.comul.apply(x) != tensor(x, x):
                kind = "other"
                break
    return comul, walk, counit, s, rho, kind


# ---------------------------------------------------------------------------
# verification suites

def verify_transposition(h: HopfData, target: AlgebraData, s: LinMap,
                         report=None, budget=None, coalgebra=None) -> Report:
    """Braided-space + braid + algebra (or coalgebra) compatibility of s."""
    report = report if report is not None else Report("transposition")
    H, V = h.space, target.space if coalgebra is None else coalgebra.space
    mul, comul, counit, c = h.mul, h.comul, h.counit, h.braid
    nc = V.arity
    HV = H.tensor(V)
    HHV = H.tensor(HV)

    check_equal_on(report, "transposition.hopf_mul_compat", HHV,
                   lambda x, t: s.apply(apply_at(mul, x, 0)),
                   lambda x, t: apply_at(mul, apply_at(s, apply_at(s, x, 1), 0), nc),
                   budget)
    check_equal_on(report, "transposition.hopf_unit_compat", V,
                   lambda x, t: s.apply(tensor(h.unit, x)),
                   lambda x, t: tensor(x, h.unit), budget)
    check_equal_on(report, "transposition.hopf_comul_compat", HV,
                   lambda x, t: apply_at(comul, s.apply(x), nc),
                   lambda x, t: apply_at(s, apply_at(s, apply_at(comul, x, 0), 1), 0),
                   budget)
    check_equal_on(report, "transposition.hopf_counit_compat", HV,
                   lambda x, t: apply_at(counit, s.apply(x), nc),
                   lambda x, t: h.counit_value(t[0])
                   * Element.basis_vector(V, t[1:]), budget)
    check_equal_on(report, "transposition.braid_hexagon", HHV,
                   lambda x, t: apply_at(s, apply_at(s, apply_at(c, x, 0), 1), 0),
                   lambda x, t: apply_at(c, apply_at(s, apply_at(s, x, 1), 0), nc),
                   budget)

    if coalgebra is None:
        amul, aunit = target.mul, target.unit
        HVV = HV.tensor(V)
        check_equal_on(report, "transposition.target_mul_compat", HVV,
                       lambda x, t: s.apply(apply_at(amul, x, 1)),
                       lambda x, t: apply_at(amul, apply_at(s, apply_at(s, x, 0), 1), 0),
                       budget)
        check_equal_on(report, "transposition.target_unit_compat", H,
                       lambda x, t: s.apply(tensor(x, aunit)),
                       lambda x, t: tensor(aunit, x), budget)
    else:
        ccomul, ccounit = coalgebra.comul, coalgebra.counit
        check_equal_on(report, "transposition.target_comul_compat", HV,
                       lambda x, t: apply_at(ccomul, s.apply(x), 0),
                       lambda x, t: apply_at(s, apply_at(s, apply_at(ccomul, x, 1), 0),
                                             V.arity), budget)
        check_equal_on(report, "transposition.target_counit_compat", HV,
                       lambda x, t: apply_at(ccounit, s.apply(x), 0),
                       lambda x, t: coalgebra.counit_value(t[1:])
                       * Element.basis_vector(H, t[:1]), budget)

    check_invertible(report, "transposition.bijective", s)
    return report


def verify_module_algebra(d: ModuleAlgebraData, budget=None) -> Report:
    """Items (1)-(5) of the module-algebra characterization, plus the
    transposition suite for s."""
    report = Report("module algebra: %s" % d.name)
    h, A = d.hopf, d.algebra
    H, V = h.space, A.space
    rho, s = d.rho, d.s
    HV = H.tensor(V)
    HHV = H.tensor(HV)
    HVV = HV.tensor(V)

    check_equal_on(report, "module.unit_acts_trivially", V,
                   lambda x, t: rho.apply(tensor(h.unit, x)),
                   lambda x, t: x, budget)
    check_equal_on(report, "module.action_associative", HHV,
                   lambda x, t: rho.apply(apply_at(rho, x, 1)),
                   lambda x, t: rho.apply(apply_at(h.mul, x, 0)), budget)
    verify_transposition(h, A, s, report=report, budget=budget)
    check_equal_on(report, "module.item3_rho_transposition", HHV,
                   lambda x, t: s.apply(apply_at(rho, x, 1)),
                   lambda x, t: apply_at(rho, apply_at(s, apply_at(h.braid, x, 0), 1), 0),
                   budget)
    check_equal_on(report, "module.item4_braided_leibniz", HVV,
                   lambda x, t: rho.apply(apply_at(A.mul, x, 1)),
                   lambda x, t: _item4_rhs(d, x), budget)
    check_equal_on(report, "module.item5_unit_of_A", H,
                   lambda x, t: rho.apply(tensor(x, A.unit)),
                   lambda x, t: h.counit_value(t[0]) * A.unit, budget)
    return report


def _item4_rhs(d: ModuleAlgebraData, x: Element) -> Element:
    # mu_A o (rho (x) rho) o (H (x) s (x) A) o (Delta (x) A (x) A)
    x = apply_at(d.hopf.comul, x, 0)
    x = apply_at(d.s, x, 1)
    x = apply_at(d.rho, x, 0)
    x = apply_at(d.rho, x, 1)
    return d.algebra.mul.apply(x)


def verify_module_coalgebra(d: ModuleCoalgebraData, budget=None) -> Report:
    """Items (1)-(5) of the module-coalgebra characterization."""
    report = Report("module coalgebra: %s" % d.name)
    h = d.hopf
    H, C = h.space, d.space
    rho, s = d.rho, d.s
    HC = H.tensor(C)
    HHC = H.tensor(HC)

    check_equal_on(report, "comodule.coassociativity", C,
                   lambda x, t: apply_at(d.comul, d.comul.apply(x), 0),
                   lambda x, t: apply_at(d.comul, d.comul.apply(x), C.arity),
                   budget)
    check_equal_on(report, "comodule.counit", C,
                   lambda x, t: apply_at(d.counit, d.comul.apply(x), 0),
                   lambda x, t: x, budget)
    check_equal_on(report, "module.unit_acts_trivially", C,
                   lambda x, t: rho.apply(tensor(h.unit, x)),
                   lambda x, t: x, budget)
    check_equal_on(report, "module.action_associative", HHC,
                   lambda x, t: rho.apply(apply_at(rho, x, 1)),
                   lambda x, t: rho.apply(apply_at(h.mul, x, 0)), budget)
    verify_transposition(h, None, s, report=report, budget=budget,
                         coalgebra=d)
    check_equal_on(report, "module.item3_rho_transposition", HHC,
                   lambda x, t: s.apply(apply_at(rho, x, 1)),
                   lambda x, t: apply_at(rho, apply_at(s, apply_at(h.braid, x, 0), 1), 0),
                   budget)
    check_equal_on(report, "module.item4_delta_of_action", HC,
                   lambda x, t: d.comul.apply(rho.apply(x)),
                   lambda x, t: _coalg_item4_rhs(d, x), budget)
    check_equal_on(report, "module.item5_counit_of_action", HC,
                   lambda x, t: d.counit.apply(rho.apply(x)),
                   lambda x, t: Element.scalar(h.counit_value(t[0])
                                               * d.counit_value(t[1:])),
                   budget)
    return report


def _coalg_item4_rhs(d: ModuleCoalgebraData, x: Element) -> Element:
    # (rho (x) rho) o (H (x) s (x) C) o (Delta_H (x) Delta_C)
    nc = d.space.arity
    x = apply_at(d.comul, x, 1)
    x = apply_at(d.hopf.comul, x, 0)
    x = apply_at(d.s, x, 1)
    x = apply_at(d.rho, x, 0)
    return apply_at(d.rho, x, nc)


def verify_entwining(e_data: EntwiningData, budget=None) -> Report:
    """Mixed compatibilities of psi and the braid hexagon with varsigma."""
    report = Report("entwining structure")
    C, A = e_data.coalgebra, e_data.algebra
    psi = e_data.psi
    CA = C.space.tensor(A.space)
    CCA = C.space.tensor(CA)
    CAA = CA.tensor(A.space)
    nc = C.space.arity

    check_equal_on(report, "entwining.counit_compat", CA,
                   lambda x, t: apply_at(C.counit, psi.apply(x), 1),
                   lambda x, t: C.counit_value(t[:nc])
                   * Element.basis_vector(A.space, t[nc:]), budget)
    check_equal_on(report, "entwining.comul_compat", CA,
                   lambda x, t: apply_at(C.comul, psi.apply(x), 1),
                   lambda x, t: apply_at(psi, apply_at(psi, apply_at(
                       C.comul, x, 0), nc), 0), budget)
    check_equal_on(report, "entwining.mul_compat", CAA,
                   lambda x, t: psi.apply(apply_at(A.mul, x, nc)),
                   lambda x, t: apply_at(A.mul, apply_at(psi, apply_at(
                       psi, x, 0), 1), 0), budget)
    check_equal_on(report, "entwining.unit_compat", C.space,
                   lambda x, t: psi.apply(tensor(x, A.unit)),
                   lambda x, t: tensor(A.unit, x), budget)
    check_equal_on(report, "entwining.varsigma_hexagon", CCA,
                   lambda x, t: apply_at(C.varsigma, apply_at(psi, apply_at(
                       psi, x, nc), 0), 1),
                   lambda x, t: apply_at(psi, apply_at(psi, apply_at(
                       C.varsigma, x, 0), nc), 0), budget)
    check_invertible(report, "entwining.bijective", psi)
    return report


def power_transposition(mad: ModuleAlgebraData, n: int) -> LinMap:
    """s^n: H^n (x) A -> A (x) H^n, s^n = (s^{n-1} (x) H) o (H^{n-1} (x) s)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mad.s
    prev = power_transposition(mad, n - 1)
    dom = mad.hopf.power(n).tensor(mad.algebra.space)

    def col(lab):
        x = Element.basis_vector(dom, lab)
        x = apply_at(mad.s, x, n - 1)
        return apply_at(prev, x, 0)

    return LinMap.from_function(dom, dom.permuted(
        (n,) + tuple(range(n))), col)


def example_entwining(mad: ModuleAlgebraData, n: int) -> EntwiningData:
    """(H^n, c^n_n, A, s^n): the canonical entwining of a module algebra."""
    coalg = tensor_power_coalgebra(mad.hopf, n)
    return EntwiningData(coalg, mad.algebra, power_transposition(mad, n))


# ---------------------------------------------------------------------------
# instance builders

def trivial_module_algebra(h: HopfData,
                           algebra: AlgebraData) -> ModuleAlgebraData:
    """Flip transposition and the counit action h.a = eps(h)a."""
    H, V = h.space, algebra.space
    HV = H.tensor(V)

    s = slot_permutation(HV, (1, 0))
    rho = LinMap.from_function(
        HV, V, lambda t: h.counit_value(t[0]) * Element.basis_vector(V, t[1:]))
    return ModuleAlgebraData(h, algebra, s, rho,
                             name="trivial %s on %s" % (h.name, algebra.name))


def action_module_algebra(h: HopfData, algebra: AlgebraData, action_table,
                          s: LinMap = None, name="") -> ModuleAlgebraData:
    """Action from a table (h_atom, a_atom) -> {a_label: coeff}; flip s by default."""
    H, V = h.space, algebra.space
    HV = H.tensor(V)
    if s is None:
        s = slot_permutation(HV, (1, 0))

    def rho_col(t):
        vals = action_table.get((t[0], t[1]))
        if vals is None:
            raise KeyError("action table missing (%r, %r)" % (t[0], t[1]))
        return Element(V, {(m,): rat(c) for m, c in vals.items()})

    rho = LinMap.from_function(HV, V, rho_col)
    return ModuleAlgebraData(h, algebra, s, rho, name=name)


def _auto_compose(f, g):
    return {x: f[g[x]] for x in g}


def build_graded_transposition(g: GroupSpec, algebra: AlgebraData,
                               grading, autos):
    """(k[G], s) with s(g (x) a) = a (x) zeta(g) for a homogeneous of
    degree zeta.

    grading maps each basis label of A to an automorphism name; autos maps
    names to permutation tables of G.  The gradation must be multiplicative
    for the opposite composition, or InvalidGradation is raised.
    """
    h = build_group_algebra(g)

    for name, table in autos.items():
        if set(table) != set(g.elements) or set(table.values()) != set(g.elements):
            raise InvalidGradation("table %s is not a bijection of G" % name)
        for a, b in itertools.product(g.elements, repeat=2):
            if table[g.mul(a, b)] != g.mul(table[a], table[b]):
                raise InvalidGradation("table %s is not an automorphism" % name)

    alabels = list(algebra.space.basis())
    for la in alabels:
        if grading.get(la[0]) not in autos:
            raise InvalidGradation("label %r has no automorphism assigned" % (la[0],))

    # A_zeta . A_xi must land in the component acting as xi o zeta
    for la, lb in itertools.product(alabels, repeat=2):
        za, zb = autos[grading[la[0]]], autos[grading[lb[0]]]
        want = _auto_compose(zb, za)
        prod = algebra.multiply(Element.basis_vector(algebra.space, la),
                                Element.basis_vector(algebra.space, lb))
        for m in prod.coeffs:
            if autos[grading[m[0]]] != want:
                raise InvalidGradation(
                    "product %r * %r leaves its gradation component"
                    % (la[0], lb[0]))

    HV = h.space.tensor(algebra.space)

    def s_col(t):
        zeta = autos[grading[t[1]]]
        return Element.basis_vector(HV.permuted((1, 0)), (t[1], zeta[t[0]]))

    s = LinMap.from_function(HV, HV.permuted((1, 0)), s_col)
    return h, s


def graded_module_algebra(g: GroupSpec, algebra: AlgebraData, grading, autos,
                          action_table=None, name="") -> ModuleAlgebraData:
    """Module algebra over k[G] with an Aut(G)-graded transposition."""
    h, s = build_graded_transposition(g, algebra, grading, autos)
    if action_table is None:
        action_table = {(ga, la): {la: 1} for ga in g.elements
                        for la in [l[0] for l in algebra.space.basis()]}
    mad = action_module_algebra(h, algebra, action_table, s=s, name=name)
    mad.grading = dict(grading)
    mad.autos = {k: dict(v) for k, v in autos.items()}
    return mad


# ---------------------------------------------------------------------------
# the two-variable polynomial action on k[Y]   (validity per the eq-analysis)

def _mat_mul(P, R):
    return [[sum(P[i][k] * R[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]

IDENT2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def matrix_order(spec):
    """Order of spec.Q, read from its power table, or None if infinite.

    Rational 2x2 matrices of finite order have order in {1,2,3,4,6} (their
    eigenvalues are roots of degree <= 2 cyclotomic polynomials).
    """
    for n in (1, 2, 3, 4, 6):
        if spec.qpower(n) == IDENT2:
            return n
    return None


class PolyActionSpec:
    """Q and the beta coefficient lists defining the action on k[Y].

    The facts about Q are decided here, once: Q must be invertible; `order`
    is its order (None if infinite); `case` is the Section-7 case tag, 2 for
    Q = ide, 1a for a single Jordan block, and for any other diagonal Q 1b
    (infinite order), 3a (finite order, no diagonal entry 1) or 3b (one
    diagonal entry 1), or None when Q is neither diagonal nor a single
    Jordan block.
    """

    def __init__(self, Qm, beta1, beta2):
        self.Q = Q = [[rat(x) for x in row] for row in Qm]
        if Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0] == 0:
            raise InvalidAction("Q", "Q is not invertible")
        self.beta = [[rat(x) for x in beta1], [rat(x) for x in beta2]]
        # tables indexed by n, extended on demand; their entries are shared
        # and read-only
        self._qpowers = [IDENT2]                                  # Q^n
        self._qpartials = [[[Fraction(0), Fraction(0)],
                            [Fraction(0), Fraction(0)]]]          # Q^(n)
        self._beta_powers = ({}, {})                  # l -> {n: beta_l(Y^n)}
        self.order = matrix_order(self)
        if self.order == 1:
            self.case = "2"
        elif Q[1][0] == 0 and Q[0][1] == 1 and Q[0][0] == Q[1][1]:
            self.case = "1a"
        elif Q[0][1] != 0 or Q[1][0] != 0:
            self.case = None
        elif self.order is None:
            self.case = "1b"
        else:
            self.case = "3a" if Q[0][0] != 1 and Q[1][1] != 1 else "3b"

    def beta_support(self, l):
        return [u for u, c in enumerate(self.beta[l]) if c != 0]

    def qpower(self, n):
        """Q^n, n >= 0 (read-only)."""
        table = self._qpowers
        while len(table) <= n:
            table.append(_mat_mul(table[-1], self.Q))
        return table[n]

    def qpartial(self, n):
        """Q^(n) = ide + Q + ... + Q^{n-1} (read-only)."""
        table = self._qpartials
        while len(table) <= n:
            prev, P = table[-1], self.qpower(len(table) - 1)
            table.append([[prev[i][j] + P[i][j] for j in range(2)]
                          for i in range(2)])
        return table[n]

    def beta_of_power(self, l, n):
        """beta_l(Y^n) as {exponent: coeff} (read-only)."""
        cached = self._beta_powers[l].get(n)
        if cached is not None:
            return cached
        out = {}
        if n:
            Qp = self.qpartial(n)
            for src in range(2):
                for u, c in enumerate(self.beta[src]):
                    coeff = Qp[l][src] * c
                    if coeff == 0:
                        continue
                    e_ = n - 1 + u
                    out[e_] = out.get(e_, Fraction(0)) + coeff
            out = {e_: c for e_, c in out.items() if c != 0}
        self._beta_powers[l][n] = out
        return out

    def act(self, a, b, n):
        """X1^a X2^b . Y^n as {exponent: coeff}, extending beta by the
        braided Leibniz rule."""
        vec = {n: Fraction(1)}
        for l, times in ((1, b), (0, a)):
            for _ in range(times):
                nxt = {}
                for e_, c in vec.items():
                    for e2, c2 in self.beta_of_power(l, e_).items():
                        nxt[e2] = nxt.get(e2, Fraction(0)) + c * c2
                vec = {e_: c for e_, c in nxt.items() if c != 0}
        return vec


def check_poly_action_validity(spec: PolyActionSpec):
    """The verdict of each of eq10-eq13 on the action of Q and beta: "pass",
    or "n/a (...)" where the equation does not apply to Q.  A violated
    equation raises InvalidAction with its identifier.

    eq11 is checked in its n = 1 reduction: for every u >= -1, Q^u = ide or
    both coefficient lists vanish at u+1.  eq10, the commutation family for
    every n >= 1, then holds: its (n, l, u) coefficient is
    Q^(n)_{l1} beta_1[u+1] + Q^(n)_{l2} beta_2[u+1], and both betas vanish
    at every u+1 with Q^u != ide.  For Q of finite order m the same
    reduction puts the support of each beta in 1 + m Z, so each beta lies
    in Y k[Y^m].
    """
    verdicts = dict.fromkeys(("eq10", "eq11", "eq12", "eq13"), "pass")
    m = spec.order
    maxu = max(spec.beta_support(0) + spec.beta_support(1), default=0)

    for u in range(-1, maxu):
        # Q^u = ide exactly when the order of Q divides u; for Q of infinite
        # order, only at u = 0
        qu_is_ident = u == 0 if m is None else u % m == 0
        if not qu_is_ident:
            b1 = spec.beta[0][u + 1] if u + 1 < len(spec.beta[0]) else Fraction(0)
            b2 = spec.beta[1][u + 1] if u + 1 < len(spec.beta[1]) else Fraction(0)
            if b1 != 0 or b2 != 0:
                raise InvalidAction("eq11",
                                    "Q^%d != ide but beta coefficient %d nonzero"
                                    % (u, u + 1))

    if m == 1:
        # commutativity of the two beta operators
        rmax = len(spec.beta[0]) + len(spec.beta[1])
        for r in range(rmax + 1):
            total = Fraction(0)
            for u in range(r + 1):
                v = r - u
                b1 = spec.beta[0][u] if u < len(spec.beta[0]) else Fraction(0)
                b2 = spec.beta[1][v] if v < len(spec.beta[1]) else Fraction(0)
                total += (u - v) * b1 * b2
            if total != 0:
                raise InvalidAction("eq12", "beta operators do not commute (r=%d)" % r)
        verdicts["eq13"] = "n/a (Q = ide)"
        return verdicts
    if m is None:
        verdicts["eq12"] = verdicts["eq13"] = "n/a (Q has infinite order)"
        return verdicts
    verdicts["eq12"] = "n/a (Q != ide)"
    if spec.case == "3b":
        # exactly one diagonal entry is 1: beta_other = 0 or beta_one linear
        lin, free = (0, 1) if spec.Q[1][1] == 1 else (1, 0)
        if spec.beta_support(free) and \
                any(u > 1 for u in spec.beta_support(lin)):
            raise InvalidAction("eq13",
                                "beta_%d nonlinear while beta_%d nonzero"
                                % (lin + 1, free + 1))
    return verdicts


def build_poly_action(Qm, beta1, beta2, N,
                      validate=True) -> ModuleAlgebraData:
    """Module-algebra structure of truncated k[X1,X2] on truncated k[Y].

    The transposition is the multiplicative extension of the matrix action
    alpha(Y^n) = Q^n Y^n and the action extends beta on Y by the braided
    Leibniz rule; validity of the defining constraints is checked first,
    and its verdicts are kept as `poly_spec.validity` (None unvalidated).
    """
    spec = PolyActionSpec(Qm, beta1, beta2)
    spec.validity = check_poly_action_validity(spec) if validate else None

    h = build_truncated_poly_hopf(2, N)
    A = poly_algebra(N)
    H, V = h.space, A.space
    HV = H.tensor(V)
    VH = HV.permuted((1, 0))

    def s_col(t):
        (a, b), yn = t
        # X1^a X2^b crosses Y^n: substitute X_i -> sum_j (Q^n)_{ij} X_j and
        # expand (x1 X1 + y1 X2)^a (x2 X1 + y2 X2)^b
        (x1, y1), (x2, y2) = spec.qpower(yn)
        row1 = [comb(a, i) * x1 ** i * y1 ** (a - i) for i in range(a + 1)]
        row2 = [comb(b, j) * x2 ** j * y2 ** (b - j) for j in range(b + 1)]
        out = {}
        for i, c1 in enumerate(row1):
            if not c1:
                continue
            for j, c2 in enumerate(row2):
                if not c2:
                    continue
                key = (yn, (i + j, a - i + b - j))
                old = out.get(key)
                out[key] = c1 * c2 if old is None else old + c1 * c2
        return Element(VH, out, validate=False)

    s = LinMap.from_function(HV, VH, s_col)

    def rho_col(t):
        (a, b), yn = t
        vec = spec.act(a, b, yn)
        if any(e_ > N for e_ in vec):
            raise TruncationOverflow("action leaves the budget")
        return Element(V, {(e_,): c for e_, c in vec.items()}, validate=False)

    # partial columns: using one that left the budget raises, callers skip
    rho = LinMap.from_function(HV, V, rho_col, partial=True)

    qtext = ", ".join("[%s]" % ", ".join(map(rat_str, row)) for row in spec.Q)
    mad = ModuleAlgebraData(h, A, s, rho,
                            name="k[X1,X2] on k[Y] (Q=[%s])" % qtext)
    mad.poly_spec = spec
    return mad
