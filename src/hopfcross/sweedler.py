"""The braided Sweedler cochain complex and its group / Lie comparisons.

Cochains live in Reg^s(H^n, A).  The differential is the alternating
convolution product of the coface operators; the additive complex of the
enveloping-algebra case uses the same cofaces with alternating sums, and
exp/log convert between the two exactly (all series terminate inside the
degree budget).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .exact import (Element, KSPACE, LinMap, NotInvertible, add_into,
                    apply_at, echelon_basis, solution_space,
                    span_coefficients, tensor)
from .actions import ModuleAlgebraData, example_entwining, \
    tensor_power_coalgebra
from .convolution import (ConvMap, carrier_grid, carrier_solve, conv_inverse,
                          conv_series, conv_unit, convolve, unit_coalgebra)
from .hopf import compare_on


class SeriesPreconditionViolated(Exception):
    pass


class SweedlerContext:
    """Caches the module-coalgebra structure on every tensor power used, and
    owns the carrier C^n_s of the additive complex.

    A cochain of C^n_s is a coefficient vector over `grid(n)` (a dict from
    grid positions to coefficients): it vanishes whenever a slot is scalar,
    and its value at a tuple has degree at most the tuple's, which keeps
    products and the exp/log series inside the budget.  The carrier
    condition (compatible with s and s-central) is `carrier_solve`.
    """

    def __init__(self, mad: ModuleAlgebraData):
        if not mad.hopf.cocommutative:
            raise ValueError("the Sweedler complex requires a cocommutative H")
        self.mad = mad
        self._derived = {}

    def derived(self, key, build):
        """build(), computed on the first request for key and then kept
        with the context: the caches below, and maps other modules derive."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def domain(self, n):
        h = self.mad.hopf
        return self.derived(("domain", n), lambda: (
            tensor_power_coalgebra(h, n) if n else unit_coalgebra(h)))

    def unit_cochain(self, n) -> ConvMap:
        return conv_unit(self.domain(n), self.mad.algebra)

    def grid(self, n):
        """The `carrier_grid` of H^n -> A, the coordinates of every vector."""
        return self.derived(("grid", n), lambda: carrier_grid(
            self.domain(n), self.mad.algebra))

    def entwining(self, n):
        """(H^n, c^n_n, A, s^n), built once."""
        return self.derived(("entwining", n),
                            lambda: example_entwining(self.mad, n))

    def carrier(self, n):
        """Basis of C^n_s: the vectors `carrier_solve` returns."""
        return self.derived(("carrier", n), lambda: carrier_solve(
            self.entwining(n), self.grid(n)))

    def cochain(self, n, vec) -> ConvMap:
        """The cochain whose value at c is the sum of vec[j] a over the grid
        positions j with grid[j] = (c, a), and 0 where there is none."""
        C, A = self.domain(n), self.mad.algebra
        grid = self.grid(n)
        cols = {c: {} for c in C.space.basis()}
        for j, v in vec.items():
            if v:
                c, a = grid[j]
                cols[c][a] = v
        return ConvMap(C, A, LinMap(C.space, A.space, {
            c: Element(A.space, vals, validate=False)
            for c, vals in cols.items()}))

    def coboundary_preimage(self, vectors, w: ConvMap):
        """A combination v of the 1-cochain vectors in `vectors` (non-empty)
        with additive_coboundary(v) = w on every label where w is defined,
        as a cochain, or None when there is none."""
        labels = list(w.values.columns)

        def flat(g):
            return {(lab, out): v for lab in labels
                    for out, v in g(lab).coeffs.items()}

        sol = span_coefficients(
            [flat(additive_coboundary(self, self.cochain(1, vec)))
             for vec in vectors], flat(w))
        if sol is None:
            return None
        out = {}
        for c, vec in zip(sol, vectors):
            if c:
                add_into(out, vec, c)
        return self.cochain(1, out)


def coface(ctx: SweedlerContext, i: int, f: ConvMap) -> ConvMap:
    """delta^i: cochains on H^{n-1} to cochains on H^n (0 <= i <= n)."""
    n = f.coalgebra.space.arity + 1
    if not 0 <= i <= n:
        raise IndexError("coface index %d out of range 0..%d" % (i, n))
    mad = ctx.mad
    C = ctx.domain(n)
    h = mad.hopf

    if i == 0:
        def fn(lab):
            return mad.act(Element.basis_vector(h.space, lab[:1]), f(lab[1:]))
    elif i == n:
        def fn(lab):
            return h.counit_value(lab[-1]) * f(lab[:-1])
    else:
        def fn(lab):
            x = Element.basis_vector(C.space, lab)
            x = apply_at(h.mul, x, i - 1)
            return f.values.apply(x)

    return ConvMap.from_function(C, mad.algebra, fn, partial=True)


def codegeneracy(ctx: SweedlerContext, i: int, f: ConvMap) -> ConvMap:
    """sigma^i: cochains on H^{n+1} to cochains on H^n (insert a unit)."""
    n = f.coalgebra.space.arity - 1
    if not 0 <= i <= n:
        raise IndexError("codegeneracy index %d out of range 0..%d" % (i, n))
    C = ctx.domain(n)
    unit_atom = ctx.mad.hopf.unit_label()

    def fn(lab):
        return f(lab[:i] + (unit_atom,) + lab[i:])

    return ConvMap.from_function(C, ctx.mad.algebra, fn, partial=True)


def differential(ctx: SweedlerContext, f: ConvMap) -> ConvMap:
    """D^n = delta^0 * (delta^1)^-1 * delta^2 * ... with exponents (-1)^i.

    Inverses are taken as cofaces of the convolution inverse; each coface is
    an algebra map for convolution, so (delta^i f)^-1 = delta^i(f^-1).
    """
    n = f.coalgebra.space.arity
    f_inv = conv_inverse(f)
    out = None
    for i in range(n + 2):
        factor = coface(ctx, i, f if i % 2 == 0 else f_inv)
        out = factor if out is None else convolve(out, factor)
    return out


def additive_coboundary(ctx: SweedlerContext, f: ConvMap) -> ConvMap:
    """The Hochschild-type coboundary: alternating sum of the same cofaces.

    Each column is one coefficient dict the cofaces are added into with
    signs +-1.  A column missing from any coface (it left the budget) is
    missing from the sum, as in `ConvMap` addition.
    """
    n = f.coalgebra.space.arity
    faces = [coface(ctx, i, f) for i in range(n + 2)]
    A = ctx.mad.algebra

    def fn(lab):
        out = {}
        for i, face in enumerate(faces):
            add_into(out, face(lab).coeffs, -1 if i % 2 else 1)
        return Element(A.space, out, validate=False)

    return ConvMap.from_function(ctx.domain(n + 1), A, fn, partial=True)


def is_normalized(ctx: SweedlerContext, f: ConvMap) -> bool:
    """Membership in the normalized subcomplex: every codegeneracy is trivial."""
    n = f.coalgebra.space.arity
    if n == 0:
        return True
    e = ctx.unit_cochain(n - 1)
    return all(codegeneracy(ctx, i, f) == e for i in range(n))


# ---------------------------------------------------------------------------
# degree 0 and 1

def invariant_subspace(mad: ModuleAlgebraData, window=None):
    """Basis of {a : s(h (x) a) = a (x) h for all h} (the s-invariants of A).

    For graded H it is enough to impose the condition against the degree-one
    atoms (s is multiplicative in the Hopf slot); for ungraded H every atom
    is used.  Candidates are restricted so every row can be formed inside
    the budget: to degree <= window, and without a window to the labels
    whose every invariance equation has degree within the budget.
    """
    return solution_space(mad.algebra.space, *_s_invariance(mad, window))


def _s_invariance(mad, window):
    """(candidates, conditions) of the s-invariants, as `invariant_subspace`
    states them."""
    A, h = mad.algebra, mad.hopf
    graded = any(s_.degrees for s_ in h.space.slots)
    h_labels = [hl for hl in h.space.basis()
                if not graded or h.space.degree(hl) == 1]
    budget = h.space.tensor(A.space).budget
    if window is None and budget is not None:
        window = budget - max(map(h.space.degree, h_labels), default=0)
    candidates = [Element.basis_vector(A.space, l) for l in A.space.basis()
                  if window is None or A.space.degree(l) <= window]

    def condition(hl):
        hv = Element.basis_vector(h.space, hl)
        return lambda a: mad.s.apply(tensor(hv, a)) - tensor(a, hv)

    return candidates, [condition(hl) for hl in h_labels]


def _commutators(algebra, elements):
    """The conditions a -> a g - g a, one per g in `elements`."""
    def condition(g):
        return lambda a: algebra.multiply(a, g) - algebra.multiply(g, a)
    return [condition(g) for g in elements]


def _invariant_center(mad):
    """(candidates, conditions) of sA intersect Z(A)."""
    A = mad.algebra
    candidates, conditions = _s_invariance(mad, None)
    return candidates, conditions + _commutators(
        A, [Element.basis_vector(A.space, l) for l in A.space.basis()])


def _h_invariance(mad):
    """The conditions a -> h.a - eps(h) a, one per basis label h of H."""
    h = mad.hopf

    def condition(hl):
        hv, eps = Element.basis_vector(h.space, hl), h.counit_value(hl[0])
        return lambda a: mad.act(hv, a) - eps * a

    return [condition(hl) for hl in h.space.basis()]


def h0(mad: ModuleAlgebraData):
    """H^0 as a subspace plus an exact invertibility decision procedure.

    The unit group of the carrier is infinite over the rationals, so the
    cohomology in degree zero is reported as the subspace
    sA  intersect  Z(A)  intersect  (H-invariants), in reduced echelon
    form, together with a test for membership in its unit group.
    """
    A = mad.algebra
    candidates, conditions = _invariant_center(mad)
    carrier = echelon_basis(A.space, solution_space(
        A.space, candidates, conditions + _h_invariance(mad)))

    def is_invertible(a: Element) -> bool:
        try:
            mad.algebra.element_inverse(a)
            return True
        except NotInvertible:
            return False

    return carrier, is_invertible


def is_crossed_homomorphism(ctx: SweedlerContext, f: ConvMap) -> bool:
    """f(hl) = f(h_(1)) (h_(2) . f(l)), exactly on basis pairs."""
    mad = ctx.mad
    h = mad.hopf

    def rhs(x, t):
        y = apply_at(h.comul, x, 0)             # h1 (x) h2 (x) l
        y = apply_at(f.values, y, 2)            # h1 (x) h2 (x) f(l)
        y = apply_at(mad.rho, y, 1)             # h1 (x) h2.f(l)
        y = apply_at(f.values, y, 0)
        return mad.algebra.mul.apply(y)

    return compare_on(h.space.tensor(h.space),
                      lambda x, t: f.values.apply(h.mul.apply(x)), rhs,
                      first_failure=True).passed


def is_inner(ctx: SweedlerContext, f: ConvMap):
    """Does f = D^0(a) for an invertible a in sA cap Z(A)?

    f = D^0(a) iff f(h) a = h . a for all h, which is linear in a; the
    solution space is then searched for an invertible representative.
    """
    mad = ctx.mad
    A, h = mad.algebra, mad.hopf
    carrier = echelon_basis(A.space, solution_space(A.space,
                                                    *_invariant_center(mad)))

    def condition(hl):
        hv = Element.basis_vector(h.space, hl)
        return lambda b: A.multiply(f(hl), b) - mad.act(hv, b)

    candidates = solution_space(A.space, carrier,
                                [condition(hl) for hl in h.space.basis()])
    # deterministic search for an invertible witness in the solution space
    trials = list(candidates)
    if len(candidates) > 1:
        acc = Element.zero(A.space)
        for c_ in candidates:
            acc = acc + c_
            trials.append(acc)
        for k in range(2, 5):
            trials.append(candidates[0] + k * (candidates[-1]))
    for cand in trials:
        if cand.is_zero():
            continue
        try:
            A.element_inverse(cand)
        except NotInvertible:
            continue
        if differential(ctx, _scalar_cochain(ctx, cand)) == f:
            return True, cand
    return False, None


def _scalar_cochain(ctx: SweedlerContext, a: Element) -> ConvMap:
    C = ctx.domain(0)
    return ConvMap(C, ctx.mad.algebra,
                   LinMap(KSPACE, ctx.mad.algebra.space, {(): a}))


# ---------------------------------------------------------------------------
# group variant: the cochain-level comparison isomorphism

def gimel(ctx: SweedlerContext, f: ConvMap):
    """Homogenize: (g0, ..., gn) -> g0 . f(g1 (x) ... (x) gn)."""
    mad = ctx.mad
    group = mad.hopf.group
    n = f.coalgebra.space.arity
    table = {}
    for tup in itertools.product(group.elements, repeat=n + 1):
        table[tup] = mad.act(Element.basis_vector(mad.hopf.space, (tup[0],)),
                             f(tup[1:]))
    return table


def gimel_inverse(ctx: SweedlerContext, table, n: int) -> ConvMap:
    ident = ctx.mad.hopf.group.identity
    C = ctx.domain(n)

    def fn(lab):
        return table[(ident,) + lab]

    return ConvMap.from_function(C, ctx.mad.algebra, fn)


def digamma_membership(ctx: SweedlerContext, table, n: int):
    """Check the defining conditions of the homogeneous side.

    These are: values invertible and in the center of the identity
    component, k[G]-linearity in the leading slot, and the grading exchange
    condition value(m) a = a value(zeta . m) for homogeneous a.
    """
    mad = ctx.mad
    group, grading, autos = mad.hopf.group, mad.grading, mad.autos
    A = mad.algebra
    ident_basis = [Element.basis_vector(A.space, (l,))
                   for l, z in grading.items()
                   if autos[z] == autos[grading_identity(mad)]]
    failures = []
    for tup, val in table.items():
        try:
            A.element_inverse(val)
        except NotInvertible:
            failures.append(("invertible", tup))
        for b in ident_basis:
            if A.multiply(val, b) != A.multiply(b, val):
                failures.append(("central_in_identity_component", tup))
        for l in val.coeffs:
            if autos[grading[l[0]]] != autos[grading_identity(mad)]:
                failures.append(("in_identity_component", tup))
    for tup in table:
        for g in group.elements:
            shifted = (group.mul(g, tup[0]),) + tup[1:]
            if table[shifted] != mad.act(
                    Element.basis_vector(mad.hopf.space, (g,)), table[tup]):
                failures.append(("kG_linear", (g, tup)))
    for tup, val in table.items():
        for name, zeta in autos.items():
            moved = tuple(zeta[g] for g in tup)
            for al, comp in grading.items():
                if autos[comp] != zeta:
                    continue
                a = Element.basis_vector(A.space, (al,))
                if A.multiply(val, a) != A.multiply(a, table[moved]):
                    failures.append(("grading_exchange", (tup, name, al)))
    return failures


def grading_identity(mad):
    for name, table in mad.autos.items():
        if all(table[g] == g for g in table):
            return name
    raise ValueError("no identity automorphism declared")


def barr_differential(ctx: SweedlerContext, table, n: int):
    """The transported differential on the homogenized cochains.

    Faces of the non-normalized Barr resolution multiply adjacent entries
    (the last one is the augmentation), so the cochain differential is the
    alternating multiplicative product over those faces.
    """
    mad = ctx.mad
    group = mad.hopf.group
    A = mad.algebra
    out = {}
    for tup in itertools.product(group.elements, repeat=n + 2):
        acc = A.unit
        for i in range(n + 2):
            if i < n + 1:
                face = tup[:i] + (group.mul(tup[i], tup[i + 1]),) + tup[i + 2:]
            else:
                face = tup[:n + 1]
            val = table[face]
            if i % 2 == 1:
                val = A.element_inverse(val)
            acc = A.multiply(acc, val)
        out[tup] = acc
    return out


# ---------------------------------------------------------------------------
# exp / log

def _series_stop(x: ConvMap, need) -> int:
    """The last power of x that can be nonzero, once x is checked to vanish
    on every label with a scalar slot (values left out for budget unread).
    Then x^{*i} vanishes on every label with a slot of degree below i; a
    label with no slot (the domain k of 0-cochains) bounds nothing."""
    space = x.coalgebra.space
    stop = 0
    for lab in space.basis():
        low = space.min_slot_degree(lab)
        if low is None:
            raise SeriesPreconditionViolated("the domain k has no slot: "
                                             + need)
        if low == 0:
            val = x.values.columns.get(lab)
            if val is not None and not val.is_zero():
                raise SeriesPreconditionViolated(need)
        stop = max(stop, low)
    return stop


def conv_exp(f: ConvMap) -> ConvMap:
    """exp(f) = sum f^{*i} / i!; exact because f kills scalar slots."""
    stop = _series_stop(f, "exp needs a normalized cochain")
    return conv_series(conv_unit(f.coalgebra, f.algebra), f,
                       lambda i: Fraction(1, factorial(i)),
                       with_unit=True, stop=stop)


def conv_log(g: ConvMap) -> ConvMap:
    """log(g) = sum (-1)^{i+1} (g - e)^{*i} / i on normalized g."""
    e = conv_unit(g.coalgebra, g.algebra)
    delta = g - e
    stop = _series_stop(delta, "log needs g = unit on scalar slots")
    return conv_series(e, delta, lambda i: Fraction((-1) ** (i + 1), i),
                       with_unit=False, stop=stop)
