"""Braided crossed products A #_f H and their equivalence theory.

The multiplication is built literally from chi and F_f; verifying
associativity on basis triples is what makes a cocycle trustworthy, and it
doubles as an end-to-end oracle for every cocycle we construct.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (Element, LinMap, Slot, Space, TruncationOverflow,
                    add_basis_term, apply_at, tensor)
from .actions import AlgebraData, ModuleAlgebraData
from .convolution import (ConvMap, NotConvolutionInvertible, conv_equal,
                          conv_inverse, convolve, is_psi_central,
                          is_s_compatible)
from .hopf import Report, check_equal_on, check_item, compare_on
from .sweedler import SweedlerContext, coface, conv_log, differential


class AssociativityFailure(Exception):
    def __init__(self, triple):
        super().__init__("crossed product fails associativity at %r" % (triple,))
        self.triple = triple


def chi_map(mad: ModuleAlgebraData) -> LinMap:
    """chi = (rho (x) H) o (H (x) s) o (Delta (x) A)."""
    h, A = mad.hopf, mad.algebra
    HA = h.space.tensor(A.space)
    AH = HA.permuted((1, 0))

    def col(lab):
        x = Element.basis_vector(HA, lab)
        x = apply_at(h.comul, x, 0)
        x = apply_at(mad.s, x, 1)
        return apply_at(mad.rho, x, 0)

    return LinMap.from_function(HA, AH, col, partial=True)


def script_F(ctx: SweedlerContext, f: ConvMap) -> LinMap:
    """F_f = (f (x) mu) o Delta_{H^2}: H^2 -> A (x) H."""
    mad = ctx.mad
    h = mad.hopf
    C2 = ctx.domain(2)
    AH = mad.algebra.space.tensor(h.space)

    def col(lab):
        x = C2.comul.columns[lab]
        x = apply_at(f.values, x, 0)
        return apply_at(h.mul, x, 1)

    return LinMap.from_function(C2.space, AH, col, partial=True)


def trivial_cocycle(ctx: SweedlerContext) -> ConvMap:
    return ctx.unit_cochain(2)


class Cocycle2:
    """A 2-cochain together with its verified crossed-product flags."""

    def __init__(self, f, normal, cocycle, twisted_module, s_compatible,
                 invertible):
        self.f = f
        self.normal = normal
        self.cocycle = cocycle
        self.twisted_module = twisted_module
        self.s_compatible = s_compatible
        self.invertible = invertible

    @property
    def all_flags(self):
        return (self.normal and self.cocycle and self.twisted_module
                and self.s_compatible and self.invertible)

    def __repr__(self):
        return ("Cocycle2(normal=%s, cocycle=%s, twisted_module=%s, "
                "s_compatible=%s, invertible=%s)"
                % (self.normal, self.cocycle, self.twisted_module,
                   self.s_compatible, self.invertible))


def check_cocycle_conditions(ctx: SweedlerContext, f: ConvMap) -> Cocycle2:
    """Normality, the cosimplicial cocycle identity, the twisted-module
    condition (as s-centrality, valid since H is cocommutative),
    s-compatibility and convolution invertibility."""
    mad = ctx.mad
    h = mad.hopf
    unit_atom = h.unit_label()

    def unit_slots(x, t):
        return f((unit_atom,) + t), f(t + (unit_atom,))

    def counit_twice(x, t):
        want = h.counit_value(t[0]) * mad.algebra.unit
        return want, want

    normal = compare_on(h.space, unit_slots, counit_twice,
                        first_failure=True).passed

    # (delta^0 f) * (delta^2 f) = (delta^3 f) * (delta^1 f) on H^3
    lhs = convolve(coface(ctx, 0, f), coface(ctx, 2, f))
    rhs = convolve(coface(ctx, 3, f), coface(ctx, 1, f))
    cocycle = compare_on(ctx.domain(3).space, lambda x, t: lhs(t),
                         lambda x, t: rhs(t), first_failure=True).passed

    twisted = is_psi_central(f, ctx.entwining(2)).passed
    s_comp = is_s_compatible(f, mad).passed
    try:
        conv_inverse(f)
        invertible = True
    except NotConvolutionInvertible:
        invertible = False
    return Cocycle2(f, normal, cocycle, twisted, s_comp, invertible)


class CrossedProductAlgebra(AlgebraData):
    """A #_f H on pair labels, with the comodule transposition and coaction.

    The multiplication is built from the 2-cochain f as given; callers that
    need a crossed product check f's cocycle flags first."""

    def __init__(self, ctx: SweedlerContext, f: ConvMap):
        mad = ctx.mad
        h, A = mad.hopf, mad.algebra
        self.ctx = ctx
        self.mad = mad
        chi = chi_map(mad)
        Ff = script_F(ctx, f)

        AH = A.space.tensor(h.space)
        pair_labels = list(AH.basis())
        degrees = {lab: AH.degree(lab) for lab in pair_labels}
        slot = Slot("A#H", pair_labels,
                    degrees if AH.budget is not None else None)
        space = Space((slot,), AH.budget)
        sq = space.tensor(space)

        def mul_col(lab):
            (a, hh), (b, ll) = lab
            x = Element.basis_vector(AH.tensor(AH), (a, hh, b, ll))
            x = apply_at(chi, x, 1)
            x = apply_at(Ff, x, 2)
            x = apply_at(A.mul, x, 1)
            x = apply_at(A.mul, x, 0)
            return Element(space, {(pair,): v for pair, v in x.coeffs.items()},
                           validate=False)

        unit = Element.basis_vector(space, ((A.unit.items()[0][0][0],
                                             h.unit_label()),))
        super().__init__("A#_f H", space,
                         LinMap.from_function(sq, space, mul_col, partial=True),
                         unit)
        self._AH = AH

        rho_space = space.tensor(h.space)

        def rho_col(lab):
            (a, hh), = lab
            dh = h.comul.columns[(hh,)]
            return Element(rho_space, {((a, h1), h2): c
                                       for (h1, h2), c in dh.coeffs.items()})

        # the coaction A (x) Delta: A#H -> (A#H) (x) H
        self.rho = LinMap.from_function(space, rho_space, rho_col, partial=True)
        self._s_hat = None

    def pair(self, a_elt: Element, h_elt: Element) -> Element:
        """a # h as an element of the crossed product."""
        x = tensor(a_elt, h_elt)
        return Element(self.space,
                       {(pair,): v for pair, v in x.coeffs.items()},
                       validate=False)

    def include_algebra(self, a_elt: Element) -> Element:
        return self.pair(a_elt, Element.basis_vector(self.mad.hopf.space,
                                                     (self.mad.hopf.unit_label(),)))

    def include_hopf(self, h_elt: Element) -> Element:
        return self.pair(self.mad.algebra.unit, h_elt)

    def coaction(self, x: Element) -> Element:
        """A (x) Delta, landing in (A#H) (x) H."""
        return self.rho.apply(x)

    def twisted_multiply(self, x: Element, y: Element) -> Element:
        """x y in the s_hat-twisted algebra (A#H) (x) H:
        (mul (x) mu_H) o ((A#H) (x) s_hat (x) H) applied to x (x) y."""
        z = apply_at(self.hat_transposition(), tensor(x, y), 1)
        z = apply_at(self.mul, z, 0)
        return apply_at(self.mad.hopf.mul, z, 1)

    def hat_transposition(self) -> LinMap:
        """s_hat = (A (x) c) o (s (x) H): H (x) (A#H) -> (A#H) (x) H, built
        on the first request and then kept."""
        if self._s_hat is not None:
            return self._s_hat
        mad = self.mad
        h = mad.hopf
        dom = h.space.tensor(self.space)
        cod = self.space.tensor(h.space)

        def col(lab):
            hh, pair = lab
            a, l = pair
            x = Element.basis_vector(
                h.space.tensor(self._AH), (hh, a, l))
            x = apply_at(mad.s, x, 0)
            x = apply_at(h.braid, x, 1)
            out = {}
            for (aa, l1, h1), v in x.coeffs.items():
                add_basis_term(out, cod, ((aa, l1), h1), v)
            return Element(cod, out, validate=False)

        self._s_hat = LinMap.from_function(dom, cod, col)
        return self._s_hat


def build_crossed_product(ctx: SweedlerContext,
                          cocycle: Cocycle2) -> CrossedProductAlgebra:
    if not cocycle.all_flags:
        raise ValueError("cocycle flags not all true: %r" % cocycle)
    cp = CrossedProductAlgebra(ctx, cocycle.f)
    rep = verify_crossed_product(cp)
    if not rep.ok:
        for c in rep.failures():
            if c.failures:
                raise AssociativityFailure(c.failures[0])
        raise AssociativityFailure(None)
    return cp


def verify_crossed_product(cp: CrossedProductAlgebra, budget=None) -> Report:
    """Associativity and unit laws on all basis tuples within budget, plus
    the comodule-algebra structure (coaction multiplicativity under s_hat)."""
    report = Report("crossed product: %s" % cp.name)
    space = cp.space
    sq = space.tensor(space)
    cube = sq.tensor(space)

    check_equal_on(report, "crossed.associativity", cube,
                   lambda x, t: cp.mul.apply(apply_at(cp.mul, x, 0)),
                   lambda x, t: cp.mul.apply(apply_at(cp.mul, x, 1)), budget)
    check_equal_on(report, "crossed.unit", space,
                   lambda x, t: cp.multiply(cp.unit, x),
                   lambda x, t: x, budget)
    check_equal_on(report, "crossed.unit_right", space,
                   lambda x, t: cp.multiply(x, cp.unit),
                   lambda x, t: x, budget)

    # embeddings respect multiplication
    A = cp.mad.algebra
    check_equal_on(report, "crossed.A_embedding", A.space.tensor(A.space),
                   lambda x, t: cp.include_algebra(A.mul.apply(x)),
                   lambda x, t: cp.multiply(
                       cp.include_algebra(Element.basis_vector(A.space, t[:1])),
                       cp.include_algebra(Element.basis_vector(A.space, t[1:]))),
                   budget)

    # coaction multiplicativity in the s_hat-twisted algebra (A#H) (x) H
    check_equal_on(report, "crossed.comodule_algebra", sq,
                   lambda x, t: cp.coaction(cp.mul.apply(x)),
                   lambda x, t: cp.twisted_multiply(
                       cp.coaction(Element.basis_vector(space, t[:1])),
                       cp.coaction(Element.basis_vector(space, t[1:]))),
                   budget)
    return report


# ---------------------------------------------------------------------------
# equivalence of crossed products

def equivalence_conditions(ctx: SweedlerContext, f: ConvMap, f2: ConvMap,
                           u: ConvMap) -> Report:
    """Conditions (1), (2), (3) and (4') for u to carry f to f2."""
    mad = ctx.mad
    h, A = mad.hopf, mad.algebra
    report = Report("crossed-product equivalence")
    unit_atom = h.unit_label()

    check_item(report, "equivalence.1_normal",
               None if u((unit_atom,)) == A.unit else "u(1) != 1")

    H2 = h.space.tensor(h.space)
    check_equal_on(report, "equivalence.2_compatible", H2,
                   lambda x, t: apply_at(u.values, h.braid.apply(x), 0),
                   lambda x, t: mad.s.apply(apply_at(u.values, x, 1)))

    # condition (3), via its centrality equivalent plus the raw display
    check_item(report, "equivalence.3_s_central",
               None if is_psi_central(u, ctx.entwining(1)).passed
               else "u is not s-central")
    try:
        u_inv = conv_inverse(u)
        HA = h.space.tensor(A.space)

        def raw3(x, t):
            x = apply_at(h.comul, x, 0)
            x = apply_at(u_inv.values, x, 0)
            x = apply_at(chi_map(mad), x, 1)
            x = apply_at(u.values, x, 2)
            x = apply_at(A.mul, x, 1)
            return A.mul.apply(x)

        check_equal_on(report, "equivalence.3_raw_display", HA,
                       lambda x, t: mad.rho.apply(x), raw3)
    except NotConvolutionInvertible:
        check_item(report, "equivalence.3_raw_display",
                   "u not convolution invertible")

    # condition (4'): [rho o (H (x) u)] * (u (x) eps) * f2 = f * (u o mu_H)
    C2 = ctx.domain(2)

    def rho_Hu(lab):
        return mad.act(Element.basis_vector(h.space, lab[:1]), u(lab[1:]))

    def u_eps(lab):
        return h.counit_value(lab[1]) * u(lab[:1])

    def u_mul(lab):
        return u.values.apply(h.mul.apply(Element.basis_vector(H2, lab)))

    lhs = convolve(convolve(ConvMap.from_function(C2, A, rho_Hu, partial=True),
                            ConvMap.from_function(C2, A, u_eps, partial=True)),
                   f2)
    rhs = convolve(f, ConvMap.from_function(C2, A, u_mul, partial=True))
    check_equal_on(report, "equivalence.4prime", C2.space,
                   lambda x, t: lhs(t), lambda x, t: rhs(t))
    return report


def equivalence_isomorphism(ctx: SweedlerContext, f: ConvMap, f2: ConvMap,
                            u: ConvMap):
    """The A-linear comodule-algebra isomorphism g(a # h) = a u(h_(1)) # h_(2),
    verified multiplicative on basis pairs.  Returns (ok, g or witness)."""
    mad = ctx.mad
    h, A = mad.hopf, mad.algebra
    cp_f = CrossedProductAlgebra(ctx, f)
    cp_g = CrossedProductAlgebra(ctx, f2)

    pair_set = cp_g.space.slots[0]._set

    def g_col(lab):
        a, hh = lab[0]
        out = {}
        dh = h.comul.columns[(hh,)]
        for (h1, h2), w in dh.coeffs.items():
            val = A.multiply(Element.basis_vector(A.space, (a,)), u((h1,)))
            for (aa,), v in val.coeffs.items():
                if (aa, h2) not in pair_set:
                    raise TruncationOverflow("isomorphism column leaves budget")
                add_basis_term(out, cp_g.space, ((aa, h2),), w * v)
        return Element(cp_g.space, out, validate=False)

    g = LinMap.from_function(cp_f.space, cp_g.space, g_col, partial=True)

    def g_of(t):
        return g.apply(Element.basis_vector(cp_f.space, t))

    res = compare_on(cp_f.space.tensor(cp_f.space),
                     lambda x, t: g.apply(cp_f.mul.apply(x)),
                     lambda x, t: cp_g.mul.apply(tensor(g_of(t[:1]), g_of(t[1:]))),
                     first_failure=True)
    return (True, g) if res.passed else (False, res.failures[0])


def check_equivalence(ctx: SweedlerContext, f: ConvMap, f2: ConvMap,
                      u: ConvMap):
    """Full report on (1),(2),(3),(4'); materializes the isomorphism when
    every condition passes."""
    report = equivalence_conditions(ctx, f, f2, u)
    iso = None
    if report.ok:
        ok, g = equivalence_isomorphism(ctx, f, f2, u)
        check_item(report, "equivalence.isomorphism", None if ok else g)
        iso = g if ok else None
    return report, iso


# ---------------------------------------------------------------------------
# deciding cohomology classes: the H^2 correspondence

class H2Verdict:
    def __init__(self, status, u=None, detail=""):
        self.status = status        # cohomologous | inequivalent | inconclusive
        self.u = u
        self.detail = detail

    def __repr__(self):
        return "H2Verdict(%s%s)" % (self.status,
                                    ", " + self.detail if self.detail else "")


def h2_correspondence(ctx: SweedlerContext, f: ConvMap, f2: ConvMap) -> H2Verdict:
    """Decide whether the cocycles f and f2 are cohomologous: search for u
    in Reg_+^s(H, A) with q = f * f2^-1 = D(u).

    Both inputs must pass every cocycle flag; otherwise ValueError, as in
    `build_crossed_product`.  Graded-connected domains go through
    `workbench.xi_h2_witness`: on a poly2 instance the Lie class of
    w = log q is solved against d2(Xi(D_1)) on the value window, and no
    preimage there certifies inequivalence (unless d2 met the truncation
    boundary or can lower degrees).  A preimage is transported to the bar
    side and completed by one carrier solve; an instance with no Xi side
    gets the carrier solve alone.  Group domains use the pointwise
    reduction for cyclic groups.  Either way, `cohomologous` is answered
    only once q * D(u)^-1 = e holds on every tuple inside the budget; the
    detail counts the tuples skipped for budget.
    """
    for g in (f, f2):
        coc = check_cocycle_conditions(ctx, g)
        if not coc.all_flags:
            raise ValueError("cocycle flags not all true: %r" % coc)
    q = convolve(f, conv_inverse(f2))
    e2 = ctx.unit_cochain(2)
    u = ctx.unit_cochain(1)
    res = conv_equal(q, e2)
    if not res.passed:
        kind = ctx.domain(2).kind
        if kind == "graded_connected":
            from .workbench import xi_h2_witness
            u = xi_h2_witness(ctx, conv_log(q))
        elif kind == "grouplike":
            u = _h2_group(ctx, q)
        else:
            return H2Verdict("inconclusive",
                             detail="unsupported domain kind %r" % kind)
        if isinstance(u, H2Verdict):
            return u
        res = conv_equal(convolve(q, conv_inverse(differential(ctx, u))), e2)
        if not res.passed:
            return H2Verdict("inconclusive",
                             detail="the witness fails q * D(u)^-1 = e")
    return H2Verdict("cohomologous", u,
                     "q * D(u)^-1 = e on %d tuples, %d skipped for budget"
                     % (res.checked, res.skipped))


def _h2_group(ctx, q):
    """Cyclic-group pointwise reduction over the scalar line plus
    nilpotents: the witness u to check, or the verdict if there is none."""
    mad = ctx.mad
    A = mad.algebra
    group = getattr(mad, "group", None) or getattr(mad.hopf, "group", None)
    if group is None:
        return H2Verdict("inconclusive", detail="no group data on the instance")
    # cyclicity check: some element generates
    gen = None
    for g in group.elements:
        seen, cur = {group.identity}, g
        while cur != group.identity:
            seen.add(cur)
            cur = group.mul(cur, g)
        if len(seen) == len(group.elements):
            gen = g
            break
    if gen is None:
        return H2Verdict("inconclusive", detail="group is not cyclic")
    n = len(group.elements)
    unit_lab = A.unit.items()[0][0]

    def scalar_part(elt):
        return elt.coeffs.get(unit_lab, Fraction(0))

    # scalar 2-cocycle: the class is the norm N = prod_i q0(gen, gen^i)
    power = {0: group.identity}
    for i in range(1, n):
        power[i] = group.mul(power[i - 1], gen)
    norm = Fraction(1)
    for i in range(n):
        val = scalar_part(q((gen, power[i])))
        if val == 0:
            return H2Verdict("inconclusive", detail="non-unit scalar part")
        norm *= val
    root = _rational_nth_root(norm, n)
    if root is None:
        return H2Verdict(
            "inequivalent",
            detail="scalar class %s is not an n-th power in Q" % norm)

    # build u0 on the scalar line: u0(gen^k) = r^k / prod_{i<k} q0(gen, gen^i)
    u0 = {group.identity: Fraction(1)}
    run = Fraction(1)
    for k in range(1, n):
        run *= scalar_part(q((gen, power[k - 1])))
        u0[power[k]] = root ** k / run

    C1 = ctx.domain(1)
    cand = ConvMap.from_function(
        C1, A, lambda lab: u0[lab[0]] * A.unit)
    resid = convolve(q, conv_inverse(differential(ctx, cand)))

    # nilpotent residue: solve the linearized coboundary equation
    units = [{j: 1} for j in range(len(ctx.grid(1)))]
    v = ctx.coboundary_preimage(units, resid - ctx.unit_cochain(2))
    if v is None:
        return H2Verdict("inconclusive",
                         detail="scalar part trivial but nilpotent residue "
                                "not linearizable")
    return convolve(cand, v + ctx.unit_cochain(1))


def _rational_nth_root(x: Fraction, n: int):
    if x == 0:
        return None
    sign = 1
    if x < 0:
        if n % 2 == 0:
            return None
        sign, x = -1, -x
    p, q_ = x.numerator, x.denominator
    rp, rq = _int_nth_root(p, n), _int_nth_root(q_, n)
    if rp is None or rq is None:
        return None
    return Fraction(sign * rp, rq)


def _int_nth_root(m: int, n: int):
    if m == 0:
        return 0
    lo, hi = 1, 1
    while hi ** n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == m else None
