"""The convolution algebra Hom_k(C, A) and its distinguished subalgebras.

Convolution inverses are exact: pointwise algebra inversion on grouplike
bases, a terminating geometric series on graded-connected ones.  Maps from
any other kind of coalgebra are refused rather than searched for.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import (Element, KSPACE, LinMap, NotInvertible,
                    TruncationOverflow, apply_at, nullspace, tensor)
from .actions import (AlgebraData, EntwiningData, ModuleAlgebraData,
                      ModuleCoalgebraData, tensor_power_coalgebra)
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
    """eta_A o eps_C, the convolution unit."""
    return ConvMap.from_function(
        coalgebra, algebra,
        lambda lab: coalgebra.counit_value(lab) * algebra.unit)


def convolve(f: ConvMap, g: ConvMap) -> ConvMap:
    if f.coalgebra is not g.coalgebra and f.coalgebra.space != g.coalgebra.space:
        raise ValueError("convolution requires a shared domain coalgebra")
    C = f.coalgebra
    nc = C.space.arity

    def column(lab):
        x = C.comul.columns[lab]
        x = apply_at(f.values, x, 0)
        x = apply_at(g.values, x, 1)
        return f.algebra.mul.apply(x)

    return ConvMap(C, f.algebra,
                   LinMap.from_function(C.space, f.algebra.space, column,
                                        partial=True))


def conv_inverse(f: ConvMap) -> ConvMap:
    """Cached two-sided convolution inverse; strategy depends on the domain."""
    if f._inverse is not None:
        return f._inverse
    C, A = f.coalgebra, f.algebra
    if C.kind == "grouplike":
        cols = {}
        for lab in C.space.basis():
            try:
                cols[lab] = A.element_inverse(f(lab))
            except NotInvertible as exc:
                raise NotConvolutionInvertible(
                    "value at %r is not invertible in A" % (lab,), lab) from exc
        inv = ConvMap(C, A, LinMap(C.space, A.space, cols))
    elif C.kind == "graded_connected":
        degree0 = [lab for lab in C.space.basis() if C.space.degree(lab) == 0]
        if len(degree0) != 1:
            raise NotConvolutionInvertible("domain is not connected")
        top = max(C.space.degree(lab) for lab in C.space.basis())
        u = f(degree0[0])
        try:
            u_inv = A.element_inverse(u)
        except NotInvertible as exc:
            raise NotConvolutionInvertible(
                "degree-0 value is not invertible in A", degree0[0]) from exc
        g = ConvMap(C, A, LinMap(C.space, A.space, {
            lab: A.multiply(u_inv, col)
            for lab, col in f.values.columns.items()}))
        e = conv_unit(C, A)
        delta = e - g
        # (e - g) kills degree 0, so the geometric series stops at the budget
        acc, term = e, e
        for _ in range(top):
            term = convolve(term, delta)
            if term.is_zero():
                break
            acc = acc + term
        inv = ConvMap(C, A, LinMap(C.space, A.space, {
            lab: A.multiply(col, u_inv)
            for lab, col in acc.values.columns.items()}))
    else:
        raise NotConvolutionInvertible(
            "no inversion strategy for coalgebra kind %r" % C.kind)

    e = conv_unit(C, A)
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
    """The one-H form: s o (H (x) f) = (f (x) H) o c^1_n."""
    C = f.coalgebra
    c1n = tensor_power_coalgebra(mad.hopf, C.space.arity).s
    return compare_on(mad.hopf.space.tensor(C.space),
                      lambda x, t: mad.s.apply(apply_at(f.values, x, 1)),
                      lambda x, t: apply_at(f.values, c1n.apply(x), 0),
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
    nc = C.space.arity

    def fn(lab):
        x = tensor(Element.basis_vector(C.space, lab), A.unit)
        x = G.apply(x)
        return apply_at(C.counit, x, 0)

    return ConvMap.from_function(C, A, fn)


def iota(f: ConvMap, mad: ModuleAlgebraData) -> ConvMap:
    """iota_n: Reg^s_H(H^{n+1}, A) -> Reg^s(H^n, A): g(x) = f(1 (x) x)."""
    hopf = mad.hopf
    C_big = f.coalgebra
    n = C_big.space.arity - 1
    unit_atom = hopf.unit_label()
    C = tensor_power_coalgebra(hopf, n) if n >= 1 else unit_coalgebra(hopf)

    def fn(lab):
        return f((unit_atom,) + lab)

    return ConvMap.from_function(C, f.algebra, fn)


def iota_inverse(g: ConvMap, mad: ModuleAlgebraData) -> ConvMap:
    """The H-linear extension f(h0 (x) x) = h0 . g(x)."""
    hopf = mad.hopf
    n = g.coalgebra.space.arity
    C_big = tensor_power_coalgebra(hopf, n + 1)

    def fn(lab):
        return mad.act(Element.basis_vector(hopf.space, lab[:1]), g(lab[1:]))

    return ConvMap.from_function(C_big, g.algebra, fn)


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
    return [(c, a) for c in space.basis()
            if all(s.degree(x) > 0 for s, x in zip(space.slots, c))
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


def random_combination(rng, basis):
    """Random exact-rational combination of a subspace basis."""
    if not basis:
        raise ValueError("empty basis")
    out = Fraction(0) * basis[0]
    for b in basis:
        out = out + Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * b
    return out
