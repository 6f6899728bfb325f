"""Braided crossed products A #_f H and their equivalence theory.

A #_f H is the space A (x) H itself, so its labels are those of A (x) H and
its maps are `apply_at` chains on them.  The multiplication is built
literally from chi and F_f; verifying associativity on basis triples is what
makes a cocycle trustworthy, and it doubles as an end-to-end oracle for
every cocycle we construct.  Doi's condition (4') for an equivalence is a
convolution identity between the Sweedler cofaces of u.
"""

from __future__ import annotations

from .exact import Element, LinMap, apply_at, tensor
from .actions import AlgebraData, ModuleAlgebraData
from .convolution import (ConvMap, NotConvolutionInvertible, conv_inverse,
                          convolve, is_psi_central, is_s_compatible,
                          support_profile)
from .hopf import Report, check_equal_on, check_item, compare_on
from .sweedler import SweedlerContext, coface


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


def _chi(ctx: SweedlerContext) -> LinMap:
    """chi_map of ctx's module algebra, built once per context: it depends
    on the module algebra alone, so every crossed product shares it."""
    return ctx.derived("chi", lambda: chi_map(ctx.mad))


def script_F(ctx: SweedlerContext, f: ConvMap) -> LinMap:
    """F_f = (f (x) mu) o Delta_{H^2}: H^2 -> A (x) H, reading only the
    coproduct terms whose f factor is in f's support, as `convolve` does."""
    mad = ctx.mad
    h = mad.hopf
    C2 = ctx.domain(2)
    AH = mad.algebra.space.tensor(h.space)
    keep = None

    def col(lab):
        nonlocal keep
        if keep is None:
            keep = (support_profile(f)[0], None)
        x = apply_at(f.values, C2.comul_column(lab, keep), 0)
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
    cocycle = _is_cocycle(ctx, f)
    twisted = is_psi_central(f, ctx.entwining(2)).passed
    s_comp = is_s_compatible(f, mad).passed
    try:
        conv_inverse(f)
        invertible = True
    except NotConvolutionInvertible:
        invertible = False
    return Cocycle2(f, normal, cocycle, twisted, s_comp, invertible)


def _is_cocycle(ctx: SweedlerContext, f: ConvMap) -> bool:
    """(delta^0 f) * (delta^2 f) = (delta^3 f) * (delta^1 f) on H^3.  The
    cofaces and products on H^3 are freed when it returns, before the
    other flags are checked."""
    lhs = convolve(coface(ctx, 0, f), coface(ctx, 2, f))
    rhs = convolve(coface(ctx, 3, f), coface(ctx, 1, f))
    return compare_on(ctx.domain(3).space, lambda x, t: lhs(t),
                      lambda x, t: rhs(t), first_failure=True).passed


class CrossedProductAlgebra(AlgebraData):
    """A #_f H on the space A (x) H, with the comodule transposition and the
    coaction A (x) Delta.

    The multiplication is built from the 2-cochain f as given; callers that
    need a crossed product check f's cocycle flags first."""

    def __init__(self, ctx: SweedlerContext, f: ConvMap):
        mad = ctx.mad
        h, A = mad.hopf, mad.algebra
        self.ctx = ctx
        self.mad = mad
        chi = _chi(ctx)
        Ff = script_F(ctx, f)
        space = A.space.tensor(h.space)
        sq = space.tensor(space)

        def mul_col(lab):
            x = Element.basis_vector(sq, lab)
            x = apply_at(chi, x, 1)
            x = apply_at(Ff, x, 2)
            x = apply_at(A.mul, x, 1)
            return apply_at(A.mul, x, 0)

        mul = LinMap.from_function(sq, space, mul_col, partial=True)
        super().__init__("A#_f H", space, mul, tensor(A.unit, h.unit))
        self._s_hat = None

    def include_algebra(self, a_elt: Element) -> Element:
        return tensor(a_elt, self.mad.hopf.unit)

    def include_hopf(self, h_elt: Element) -> Element:
        return tensor(self.mad.algebra.unit, h_elt)

    def coaction(self, x: Element) -> Element:
        """A (x) Delta, landing in (A#H) (x) H."""
        return apply_at(self.mad.hopf.comul, x, self.mad.algebra.space.arity)

    def twisted_multiply(self, x: Element, y: Element) -> Element:
        """x y in the s_hat-twisted algebra (A#H) (x) H:
        (mul (x) mu_H) o ((A#H) (x) s_hat (x) H) applied to x (x) y."""
        n = self.space.arity
        z = apply_at(self.hat_transposition(), tensor(x, y), n)
        z = apply_at(self.mul, z, 0)
        return apply_at(self.mad.hopf.mul, z, n)

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
            x = apply_at(mad.s, Element.basis_vector(dom, lab), 0)
            return apply_at(h.braid, x, mad.algebra.space.arity)

        self._s_hat = LinMap.from_function(dom, cod, col)
        return self._s_hat


def verify_crossed_product(cp: CrossedProductAlgebra, budget=None) -> Report:
    """Associativity and unit laws on all basis tuples within budget, plus
    the comodule-algebra structure (coaction multiplicativity under s_hat)."""
    report = Report("crossed product: %s" % cp.name)
    space = cp.space
    n = space.arity
    sq = space.tensor(space)
    cube = sq.tensor(space)

    check_equal_on(report, "crossed.associativity", cube,
                   lambda x, t: cp.mul.apply(apply_at(cp.mul, x, 0)),
                   lambda x, t: cp.mul.apply(apply_at(cp.mul, x, n)), budget)
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
                       cp.coaction(Element.basis_vector(space, t[:n])),
                       cp.coaction(Element.basis_vector(space, t[n:]))),
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
        chi = _chi(ctx)

        def raw3(x, t):
            x = apply_at(h.comul, x, 0)
            x = apply_at(u_inv.values, x, 0)
            x = apply_at(chi, x, 1)
            x = apply_at(u.values, x, 2)
            x = apply_at(A.mul, x, 1)
            return A.mul.apply(x)

        check_equal_on(report, "equivalence.3_raw_display", HA,
                       lambda x, t: mad.rho.apply(x), raw3)
    except NotConvolutionInvertible:
        check_item(report, "equivalence.3_raw_display",
                   "u not convolution invertible")

    # condition (4'): (delta^0 u) * (delta^2 u) * f2 = f * (delta^1 u), where
    # delta^0 u = rho o (H (x) u), delta^2 u = u (x) eps, delta^1 u = u o mu_H
    lhs = convolve(convolve(coface(ctx, 0, u), coface(ctx, 2, u)), f2)
    rhs = convolve(f, coface(ctx, 1, u))
    check_equal_on(report, "equivalence.4prime", ctx.domain(2).space,
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

    na, n = A.space.arity, cp_f.space.arity

    def g_col(lab):
        x = apply_at(h.comul, Element.basis_vector(cp_f.space, lab), na)
        x = apply_at(u.values, x, na)
        return apply_at(A.mul, x, 0)

    g = LinMap.from_function(cp_f.space, cp_g.space, g_col, partial=True)

    def g_of(t):
        return g.apply(Element.basis_vector(cp_f.space, t))

    res = compare_on(cp_f.space.tensor(cp_f.space),
                     lambda x, t: g.apply(cp_f.mul.apply(x)),
                     lambda x, t: cp_g.mul.apply(
                         tensor(g_of(t[:n]), g_of(t[n:]))),
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
