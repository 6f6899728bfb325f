"""The convolution algebra Hom_k(C, A) and its distinguished subalgebras.

Convolution inverses are exact: pointwise algebra inversion on grouplike
bases, a terminating geometric series on graded-connected ones.  Maps from
any other kind of coalgebra are refused rather than searched for.
"""

from __future__ import annotations

import itertools

from .exact import (Element, KSPACE, LinMap, NotInvertible,
                    TruncationOverflow, _Columns, add_into, apply_at,
                    nullspace, tensor)
from .actions import (AlgebraData, EntwiningData, ModuleAlgebraData,
                      ModuleCoalgebraData, coproduct_preserves_degree)
from .hopf import compare_on


class NotConvolutionInvertible(Exception):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


def unit_coalgebra(h) -> ModuleCoalgebraData:
    """The ground field as an H-module coalgebra (domain of 0-cochains)."""
    kk = KSPACE.tensor(KSPACE)
    comul = LinMap(KSPACE, kk, {(): Element.basis_vector(kk, ())})
    counit = LinMap(KSPACE, KSPACE, {(): Element.scalar(1)})
    Hk = h.space.tensor(KSPACE)
    s = LinMap.from_function(Hk, Hk, lambda t: Element.basis_vector(Hk, t))
    rho = LinMap.from_function(Hk, KSPACE,
                               lambda t: Element.scalar(h.counit_value(t[0])))
    varsigma = LinMap(kk, kk, {(): Element.basis_vector(kk, ())})
    return ModuleCoalgebraData(h, KSPACE, comul, counit, s, rho, varsigma,
                               kind="grouplike", name="k")


class ConvMap:
    """A linear map from a coalgebra to an algebra, under convolution."""

    def __init__(self, coalgebra: ModuleCoalgebraData, algebra: AlgebraData,
                 values: LinMap):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.values = values
        self._inverse = None
        self._profile = None

    @staticmethod
    def from_function(coalgebra, algebra, fn, partial=False):
        vals = LinMap.from_function(coalgebra.space, algebra.space,
                                    lambda lab: fn(lab), partial=partial)
        return ConvMap(coalgebra, algebra, vals)

    @staticmethod
    def from_table(coalgebra, algebra, table):
        def fn(lab):
            return table[lab] if lab in table else Element.zero(algebra.space)
        return ConvMap.from_function(coalgebra, algebra, fn)

    def __call__(self, label):
        col = self.values.columns.get(label)
        if col is None:
            if not self.coalgebra.space.contains(label):
                raise KeyError(label)
            raise TruncationOverflow(
                "cochain value at %r left the budget" % (label,))
        return col

    def apply(self, elt: Element) -> Element:
        return self.values.apply(elt)

    def __eq__(self, other):
        return (isinstance(other, ConvMap) and self.values == other.values)

    def __add__(self, other):
        keys = self.values.columns.keys() & other.values.columns.keys()
        return ConvMap(self.coalgebra, self.algebra, LinMap(
            self.values.domain, self.values.codomain,
            {lab: self.values.columns[lab] + other.values.columns[lab]
             for lab in keys}))

    def __rmul__(self, scalar):
        return ConvMap(self.coalgebra, self.algebra, LinMap(
            self.values.domain, self.values.codomain,
            {lab: scalar * col for lab, col in self.values.columns.items()}))

    def __sub__(self, other):
        return self + (-1) * other

    def is_zero(self):
        return all(col.is_zero() for col in self.values.columns.values())


def conv_equal(f: ConvMap, g: ConvMap):
    """Equality on every label defined on both sides, as the `compare_on`
    CheckResult; skips are counted.

    Missing columns mark values whose computation left the degree budget;
    they are reported, never silently treated as zero.
    """
    return compare_on(f.coalgebra.space, lambda x, t: f(t), lambda x, t: g(t),
                      name="conv_equal", first_failure=True)


def conv_unit(coalgebra, algebra) -> ConvMap:
    """eta_A o eps_C, the convolution unit, built on every label (none of
    its columns can leave the budget)."""
    return ConvMap(coalgebra, algebra, LinMap(
        coalgebra.space, algebra.space,
        {lab: coalgebra.counit_value(lab) * algebra.unit
         for lab in coalgebra.space.basis()}))


def support_profile(f: ConvMap):
    """(support, bounded) of f, read once per cochain.

    support holds every prefix, the empty one included, of each label whose
    column is absent, nonzero or not yet built: a coproduct term whose
    factor is outside it reads a zero column.  Every column of a partial
    map is built for it, but only the built columns of any other map, since
    building one there could raise ColumnOverflow on a column the
    convolution never reads.  f is bounded when every column is built and
    present, no value has a degree above its label's, and A has no budget
    or that of C.
    """
    if f._profile is None:
        space, A = f.coalgebra.space, f.algebra.space
        cols = f.values.columns
        if isinstance(cols, _Columns) and cols.partial:
            cols.complete()
        bounded = A.budget is None or A.budget == space.budget
        support = set()
        for lab in space.basis():
            col = dict.get(cols, lab)
            if col is None:
                bounded = False
            elif not col.coeffs:
                continue
            elif bounded and max(map(A.degree, col.coeffs)) > space.degree(lab):
                bounded = False
            support.update(lab[:k] for k in range(len(lab) + 1))
        f._profile = (frozenset(support), bounded)
    return f._profile


def convolve(f: ConvMap, g: ConvMap) -> ConvMap:
    """f * g = mu_A o (f (x) g) o Delta, reading only the coproduct terms
    that can add to a column or leave the budget.

    A term whose f factor is outside f's support (`support_profile`) adds
    nothing.  One whose g factor is outside g's support adds nothing
    either, and when f is bounded and Delta preserves degree, its product
    a (x) c2 has degree at most the label's, so it cannot leave the budget
    and is dropped too.  Kept terms are read in the order of Delta, so
    every column, its coefficient order, and which columns are absent are
    those of reading all of Delta.
    """
    if f.coalgebra is not g.coalgebra and f.coalgebra.space != g.coalgebra.space:
        raise ValueError("convolution requires a shared domain coalgebra")
    C = f.coalgebra
    keep = None

    def column(lab):
        nonlocal keep
        if keep is None:
            lefts, bounded = support_profile(f)
            rights = (support_profile(g)[0] if bounded
                      and coproduct_preserves_degree(C.hopf) else None)
            keep = (lefts, rights)
        x = C.comul_column(lab, keep)
        if not x.coeffs:
            return Element.zero(f.algebra.space)
        x = apply_at(f.values, x, 0)
        x = apply_at(g.values, x, 1)
        return f.algebra.mul.apply(x)

    return ConvMap(C, f.algebra,
                   LinMap.from_function(C.space, f.algebra.space, column,
                                        partial=True))


def conv_series(e: ConvMap, x: ConvMap, coeff, with_unit, stop) -> ConvMap:
    """sum coeff(i) x^{*i} over 1 <= i <= stop, plus e when `with_unit`: the
    one power series loop of exp, log and the inverse.  The caller knows the
    powers past `stop` vanish; the loop also ends at a zero power.  Columns
    are summed in place, and one missing from a power (it left the budget)
    leaves the sum, as in `ConvMap` addition."""
    C, A = e.coalgebra, e.algebra
    acc = {lab: dict(col.coeffs) if with_unit else {}
           for lab, col in e.values.columns.items()}
    term = e
    for i in range(1, stop + 1):
        term = convolve(term, x)
        if term.is_zero():
            break
        cols = term.values.columns
        c = coeff(i)
        for gone in [lab for lab in acc if lab not in cols]:
            del acc[gone]
        for lab, vals in acc.items():
            add_into(vals, cols[lab].coeffs, c)
    return ConvMap(C, A, LinMap(C.space, A.space, {
        lab: Element(A.space, vals, validate=False)
        for lab, vals in acc.items()}))


def _value_inverse(A: AlgebraData, value, lab):
    """value^-1 in A, for a cochain's value at lab; refused when A has none
    or the budget cannot certify one (a trial product left it)."""
    try:
        return A.element_inverse(value)
    except (NotInvertible, TruncationOverflow) as exc:
        raise NotConvolutionInvertible(
            "value at %r is not invertible in A" % (lab,), lab) from exc


def conv_inverse(f: ConvMap) -> ConvMap:
    """Cached two-sided convolution inverse; strategy depends on the domain."""
    if f._inverse is not None:
        return f._inverse
    C, A = f.coalgebra, f.algebra
    e = conv_unit(C, A)
    if C.kind == "grouplike":
        inv = ConvMap(C, A, LinMap(C.space, A.space, {
            lab: _value_inverse(A, f(lab), lab) for lab in C.space.basis()}))
    elif C.kind == "graded_connected":
        degree0 = [lab for lab in C.space.basis() if C.space.degree(lab) == 0]
        if len(degree0) != 1:
            raise NotConvolutionInvertible("domain is not connected")
        u_inv = _value_inverse(A, f(degree0[0]), degree0[0])
        delta = e - ConvMap(C, A, LinMap(C.space, A.space, {
            lab: A.multiply(u_inv, col)
            for lab, col in f.values.columns.items()}))
        # e - u^-1 f kills degree 0, so its i-th power kills every label of
        # degree below i: the geometric series stops at the top degree
        top = max(C.space.degree(lab) for lab in C.space.basis())
        acc = conv_series(e, delta, lambda i: 1, with_unit=True, stop=top)
        inv = ConvMap(C, A, LinMap(C.space, A.space, {
            lab: A.multiply(col, u_inv)
            for lab, col in acc.values.columns.items()}))
    else:
        raise NotConvolutionInvertible(
            "no inversion strategy for coalgebra kind %r" % C.kind)

    for side in (convolve(f, inv), convolve(inv, f)):
        res = compare_on(C.space, lambda x, t: side(t), lambda x, t: e(t),
                         first_failure=True)
        if not res.passed:
            raise NotConvolutionInvertible("inverse check failed",
                                           res.failures[0])
    f._inverse = inv
    inv._inverse = f
    return inv


# ---------------------------------------------------------------------------
# psi-compatibility and psi-centrality: each predicate returns the
# `compare_on` CheckResult, which stops at its first failure

def is_psi_compatible(f: ConvMap, ent: EntwiningData):
    """psi o (C (x) f) = (f (x) C) o varsigma, exactly on every basis label."""
    C = ent.coalgebra
    nc = C.space.arity
    return compare_on(C.space.tensor(C.space),
                      lambda x, t: ent.psi.apply(apply_at(f.values, x, nc)),
                      lambda x, t: apply_at(f.values, C.varsigma.apply(x), 0),
                      name="psi_compatible", first_failure=True)


def is_s_compatible(f: ConvMap, mad: ModuleAlgebraData):
    """The one-H form: s o (H (x) f) = (f (x) H) o c^1_n, c^1_n = C.s."""
    C = f.coalgebra
    return compare_on(mad.hopf.space.tensor(C.space),
                      lambda x, t: mad.s.apply(apply_at(f.values, x, 1)),
                      lambda x, t: apply_at(f.values, C.s.apply(x), 0),
                      name="s_compatible", first_failure=True)


def is_psi_central(f: ConvMap, ent: EntwiningData):
    """mu_A o (A (x) f) o psi = mu_A o (f (x) A), exactly on every label."""
    C, A = ent.coalgebra, ent.algebra
    return compare_on(C.space.tensor(A.space),
                      lambda x, t: A.mul.apply(apply_at(f.values, ent.psi.apply(x), 1)),
                      lambda x, t: A.mul.apply(apply_at(f.values, x, 0)),
                      name="psi_central", first_failure=True)


def is_h_linear(f: ConvMap, mad: ModuleAlgebraData, rho_C: LinMap):
    """f(h . x) = h . f(x) for the first-slot action on the domain."""
    return compare_on(mad.hopf.space.tensor(f.coalgebra.space),
                      lambda x, t: f.values.apply(rho_C.apply(x)),
                      lambda x, t: mad.rho.apply(apply_at(f.values, x, 1)),
                      name="h_linear", first_failure=True)


def transfer_TAC(f: ConvMap) -> LinMap:
    """T(g)(c (x) a) = c_(1) (x) g(c_(2)) a; an algebra map to End(C (x) A)."""
    C, A = f.coalgebra, f.algebra
    nc = C.space.arity
    CA = C.space.tensor(A.space)

    def column(lab):
        x = Element.basis_vector(CA, lab)
        x = apply_at(C.comul, x, 0)
        x = apply_at(f.values, x, nc)
        return apply_at(A.mul, x, nc)

    return LinMap.from_function(CA, CA, column)


def transfer_TAC_inverse(G: LinMap, coalgebra, algebra) -> ConvMap:
    """(T^-1)(G)(c) = (eps (x) A)(G(c (x) 1))."""
    C, A = coalgebra, algebra

    def fn(lab):
        x = tensor(Element.basis_vector(C.space, lab), A.unit)
        x = G.apply(x)
        return apply_at(C.counit, x, 0)

    return ConvMap.from_function(C, A, fn)


# ---------------------------------------------------------------------------
# the carrier: cochains compatible with psi and psi-central, solved exactly

def carrier_grid(C: ModuleCoalgebraData, A: AlgebraData):
    """The unknowns (c, a) of a cochain C -> A, in basis order.

    On a graded-connected C, c runs over the tuples with no scalar slot
    (every slot of degree >= 1) and a over the values with deg a <= deg c,
    so every term of the carrier equations, and every product and series
    of such cochains, stays inside the budget.  On any other C every pair
    is an unknown.
    """
    space = C.space
    if C.kind != "graded_connected":
        return list(itertools.product(space.basis(), A.space.basis()))
    return [(c, a) for c in space.basis() if space.min_slot_degree(c) != 0
            for a in A.space.basis() if A.space.degree(a) <= space.degree(c)]


def carrier_solve(ent: EntwiningData, grid):
    """A basis of the carrier, the cochains on `grid` (the `carrier_grid`
    of ent) that are compatible with psi and psi-central, as coefficient
    vectors over the grid.

    Both conditions are linear in f, so the carrier is the nullspace of an
    exact rational system, in `nullspace`'s free-variable form.  Each site
    (a label of C (x) C, and of C (x) A for centrality) gives one equation
    per output label, with a term for each unknown the site reads.  A term
    that leaves the budget raises TruncationOverflow, so no equation is
    dropped; on the grid none does.  At n = 1, psi = s and varsigma =
    c^1_1 = C.s, so compatibility is `is_s_compatible`.
    """
    C, A = ent.coalgebra, ent.algebra
    bv = Element.basis_vector
    nc, na = C.space.arity, A.space.arity
    unknowns = {}
    for j, (c, a) in enumerate(grid):
        unknowns.setdefault(c, []).append((j, bv(A.space, a)))
    rows = []

    def site(terms):
        """The rows of sum w x_j img = 0 over the terms (j, img, w)."""
        eq = {}
        for j, img, w in terms:
            for out, v in img.coeffs.items():
                row = eq.setdefault(out, {})
                row[j] = row.get(j, 0) + w * v
        rows.extend(eq.values())

    # compatibility: psi(c1 (x) f(c2)) = sum f(d1) (x) d2 over varsigma(c1, c2)
    for lab in C.space.tensor(C.space).basis():
        c1 = bv(C.space, lab[:nc])
        site([(j, ent.psi.apply(tensor(c1, a)), 1)
              for j, a in unknowns.get(lab[nc:], ())]
             + [(j, tensor(a, bv(C.space, pair[nc:])), -w)
                for pair, w in C.varsigma.columns[lab].coeffs.items()
                for j, a in unknowns.get(pair[:nc], ())])

    # centrality: sum a' f(c') over psi(c (x) aa)  =  f(c) aa
    for lab in C.space.tensor(A.space).basis():
        aa = bv(A.space, lab[nc:])
        mid = ent.psi.apply(tensor(bv(C.space, lab[:nc]), aa))
        site([(j, A.multiply(bv(A.space, pair[:na]), a), w)
              for pair, w in mid.coeffs.items()
              for j, a in unknowns.get(pair[na:], ())]
             + [(j, A.multiply(a, aa), -1)
                for j, a in unknowns.get(lab[:nc], ())])

    return nullspace(rows, len(grid))

