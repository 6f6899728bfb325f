import itertools
import math
import os
import random

import pytest
from fractions import Fraction

from hopfcross.exact import Element, LinMap, TruncationOverflow
from hopfcross.hopf import GroupSpec
from hopfcross.actions import (build_poly_action, example_entwining,
                               graded_module_algebra, trivial_module_algebra)
from hopfcross.convolution import (ConvMap, conv_equal, conv_inverse,
                                   conv_unit, convolve, is_psi_central,
                                   is_psi_compatible, is_s_compatible)
from hopfcross.sweedler import (SeriesPreconditionViolated,
                                SweedlerContext, additive_coboundary,
                                barr_differential, codegeneracy, coface,
                                conv_exp, conv_log, differential,
                                digamma_membership, gimel, gimel_inverse, h0,
                                invariant_subspace, is_crossed_homomorphism,
                                is_inner, is_normalized, _scalar_cochain)
from hopfcross.workbench import WorkbenchSpec, build_instance


@pytest.fixture(scope="module")
def ctx(sign_action):
    return SweedlerContext(sign_action)


@pytest.fixture(scope="module")
def ctx3(z3_graded):
    return SweedlerContext(z3_graded)


def one(mad, c=1):
    return Fraction(c) * mad.algebra.unit


def test_coface_formulas(ctx, sign_action):
    mad = sign_action
    A = mad.algebra
    a = _scalar_cochain(ctx, 3 * A.unit)
    # delta^0(a)(h) = h . a  and  delta^1(a)(h) = a eps(h)
    d0 = coface(ctx, 0, a)
    d1 = coface(ctx, 1, a)
    assert d0(("g1",)) == 3 * A.unit
    assert d1(("g1",)) == 3 * A.unit
    # top coface on a 1-cochain: delta^2(f)(h1, h2) = f(h1) eps(h2)
    C1 = ctx.domain(1)
    f = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 5 * A.unit})
    d2 = coface(ctx, 2, f)
    assert d2(("g1", "g1")) == 5 * A.unit
    # codegeneracy: sigma^0(f)(h) = f(1 (x) h)
    C2 = ctx.domain(2)
    f2 = ConvMap.from_function(
        C2, A, lambda lab: (2 if lab[0] == "g1" else 1) * A.unit)
    s0 = codegeneracy(ctx, 0, f2)
    assert s0(("g1",)) == f2(("e", "g1"))


def test_D0_formula(ctx, sign_action):
    A = sign_action.algebra
    a = _scalar_cochain(ctx, 3 * A.unit)
    D0 = differential(ctx, a)
    # (h . a) a^{-1} = 1 for the trivial part of the action
    assert D0(("g1",)) == A.unit
    assert D0(("e",)) == A.unit


def test_D1_of_unit_is_unit(ctx):
    e1 = ctx.unit_cochain(1)
    D1 = differential(ctx, e1)
    e2 = ctx.unit_cochain(2)
    assert all(D1(l) == e2(l) for l in ctx.domain(2).space.basis())


def test_cosimplicial_identity_D2_D1(ctx, sign_action):
    # derived oracle: direct expansion of both differentials on samples
    A = sign_action.algebra
    C1 = ctx.domain(1)
    rng = random.Random(1)
    t = Element.basis_vector(A.space, ("t",))
    for _ in range(6):
        u = ConvMap.from_table(
            C1, A, {("e",): A.unit,
                    ("g1",): rng.randint(1, 5) * A.unit + rng.randint(-3, 3) * t})
        DDu = differential(ctx, differential(ctx, u))
        e3 = ctx.unit_cochain(3)
        assert all(DDu(l) == e3(l) for l in ctx.domain(3).space.basis())


def test_normalized_subcomplex_closure(ctx, sign_action):
    A = sign_action.algebra
    C1 = ctx.domain(1)
    u = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 7 * A.unit})
    assert is_normalized(ctx, u)
    assert is_normalized(ctx, differential(ctx, u))


def test_h0_trivial_action_is_center(z2, dual_numbers):
    mad = trivial_module_algebra(z2, dual_numbers)
    carrier, is_inv = h0(mad)
    assert len(carrier) == 2               # all of A = Z(A)
    assert is_inv(dual_numbers.unit)


def test_h0_sign_action(sign_action):
    # the H-invariants cut k[t]/(t^2) down to the scalar line
    carrier, is_inv = h0(sign_action)
    assert len(carrier) == 1
    assert carrier[0].coeffs == {("1",): 1}
    assert is_inv(carrier[0])
    t = Element.basis_vector(sign_action.algebra.space, ("t",))
    assert not is_inv(t)


def test_coboundaries_are_inner_crossed_homs(ctx, sign_action):
    A = sign_action.algebra
    f = differential(ctx, _scalar_cochain(ctx, 5 * A.unit))
    assert is_crossed_homomorphism(ctx, f)
    inner, witness = is_inner(ctx, f)
    assert inner and witness is not None


def test_non_cocycle_is_not_crossed_hom(ctx, sign_action):
    A = sign_action.algebra
    C1 = ctx.domain(1)
    f = ConvMap.from_table(C1, A, {("e",): 2 * A.unit, ("g1",): A.unit})
    # f(e) != 1 already breaks the crossed-homomorphism identity at (e, e)
    assert not is_crossed_homomorphism(ctx, f)


def test_gimel_pointwise_formula(ctx3, z3_graded):
    A = z3_graded.algebra
    a = _scalar_cochain(ctx3, 4 * A.unit)
    table = gimel(ctx3, a)
    for g in z3_graded.hopf.group.elements:
        assert table[(g,)] == 4 * A.unit      # trivial action: g . a = a


def test_gimel_trivial_gradation_reduces_to_classical(dual_numbers):
    # with everything in the identity component the transposition is the
    # flip and the homogeneous dictionary is the classical one
    g3 = GroupSpec.cyclic(3)
    autos = {"id": {e: e for e in g3.elements}}
    mad = graded_module_algebra(g3, dual_numbers, {"1": "id", "t": "id"},
                                autos, name="trivially graded")
    ctx = SweedlerContext(mad)
    A = mad.algebra
    C1 = ctx.domain(1)
    phi = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 2 * A.unit,
                                     ("g2",): 5 * A.unit})
    table = gimel(ctx, phi)
    for g0 in g3.elements:
        for g1 in g3.elements:
            assert table[(g0, g1)] == phi((g1,))


def test_gimel_group_isomorphism_exhaustive(ctx3, z3_graded):
    # multiplicativity on all of G^2, injectivity and surjectivity onto the
    # homogeneous side, for inversion-invariant scalar cochains
    mad = z3_graded
    A = mad.algebra
    C1 = ctx3.domain(1)
    g3 = mad.hopf.group

    def inv_cochain(v_e, v_g):
        return ConvMap.from_table(C1, A, {("e",): v_e * A.unit,
                                          ("g1",): v_g * A.unit,
                                          ("g2",): v_g * A.unit})

    f = inv_cochain(1, 2)
    g = inv_cochain(1, 5)
    tf, tg = gimel(ctx3, f), gimel(ctx3, g)
    tprod = gimel(ctx3, convolve(f, g))
    for tup in itertools.product(g3.elements, repeat=2):
        assert tprod[tup] == A.multiply(tf[tup], tg[tup])
    assert not digamma_membership(ctx3, tf, 1)
    # surjectivity with witness: phi := table(e, -) recovers the cochain
    back = gimel_inverse(ctx3, tf, 1)
    assert all(back(l) == f(l) for l in C1.space.basis())
    # injectivity: distinct cochains stay distinct
    assert any(tf[k] != tg[k] for k in tf)


def test_gimel_transports_differential_to_barr(ctx3, z3_graded):
    rng = random.Random(5)
    g3 = z3_graded.hopf.group
    A = z3_graded.algebra
    for n in (0, 1, 2):
        C = ctx3.domain(n)
        vals = {}
        for lab in C.space.basis():
            if lab in vals:
                continue
            c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            vals[lab] = c * A.unit
            vals[tuple(g3.inverse(x) for x in lab)] = c * A.unit
        phi = ConvMap.from_table(C, A, vals)
        lhs = gimel(ctx3, differential(ctx3, phi))
        rhs = barr_differential(ctx3, gimel(ctx3, phi), n)
        assert all(lhs[k] == rhs[k] for k in lhs)


def test_strongly_graded_centrality_equivalence(ctx3, z3_graded):
    # s-centrality of a homogenized cochain is equivalent to invariance
    # under every grading automorphism (strongly graded identity component)
    mad = z3_graded
    A = mad.algebra
    ent = example_entwining(mad, 1)
    C1 = ctx3.domain(1)
    sym = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 2 * A.unit,
                                     ("g2",): 2 * A.unit})
    asym = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 2 * A.unit,
                                      ("g2",): 3 * A.unit})
    inv = mad.autos["inv"]
    for f, expect in ((sym, True), (asym, False)):
        central = is_psi_central(f, ent).passed
        invariant = all(f((g,)) == f((inv[g],)) for g in mad.hopf.group.elements)
        assert central == invariant == expect


# ---------------------------------------------------------------------------
# additive complex and exp/log


@pytest.fixture(scope="module")
def poly_ctx(case2_beta_y):
    return SweedlerContext(case2_beta_y)


def _additive_cochain(poly_ctx, n, table):
    mad = poly_ctx.mad
    C = poly_ctx.domain(n)
    A = mad.algebra
    cols = {}
    for lab in C.space.basis():
        cols[lab] = table.get(lab, Element.zero(A.space))
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def test_additive_delta_example(poly_ctx):
    # three-term formula with a trivial-action slot: delta(f)(x, x) = -f(x^2)
    # on the 1-variable-style input with f supported on X1
    mad = poly_ctx.mad
    A = mad.algebra
    x1 = (1, 0)
    f = _additive_cochain(poly_ctx, 1, {
        (x1,): Element.basis_vector(A.space, (0,))})
    df = additive_coboundary(poly_ctx, f)
    # delta(f)(X1, X1) = X1 . f(X1) - f(X1^2) + f(X1) eps(X1)
    want = mad.act(Element.basis_vector(mad.hopf.space, (x1,)), f((x1,))) \
        - f(((2, 0),))
    assert df((x1, x1)) == want


def test_zero_cochain_is_cocycle(poly_ctx):
    z = _additive_cochain(poly_ctx, 1, {})
    assert all(additive_coboundary(poly_ctx, z)(l).is_zero()
               for l in poly_ctx.domain(2).space.basis())


def test_additive_complex_dimensions(case2_beta_y, case1b):
    # at budget 5 the carrier C^1_s is every normalized cochain of the grid
    # when Q = ide and a proper subspace when Q = diag(2, 1/2); delta o delta
    # = 0 on the basis either way
    for mad, dim in ((case2_beta_y, 90), (case1b, 38)):
        ctx = SweedlerContext(mad)
        b1 = ctx.carrier(1)
        assert len(b1) == dim
        for vec in b1:
            f = ctx.cochain(1, vec)
            ddf = additive_coboundary(ctx, additive_coboundary(ctx, f))
            assert all(col.is_zero() for col in ddf.values.columns.values())


# the dimension of C^1_s at budget 5, on a grid of 90 unknowns
CARRIER_DIMS = {"case2_beta1_Y": 90, "case1a_q2": 36, "case1a_qm1": 38,
                "case1b_q1q2_1": 38, "case1b_q1q2_ne1": 36, "case3a": 57,
                "case3b": 54}


@pytest.mark.parametrize("name", sorted(CARRIER_DIMS))
def test_carrier_dimension(name):
    assert len(SweedlerContext(_poly2(name, 5)).carrier(1)) == \
        CARRIER_DIMS[name]


@pytest.mark.parametrize("name", ["case1a_q2", "case3a"])
def test_carrier_maps_are_compatible_and_central(name):
    ctx = SweedlerContext(_poly2(name, 4))
    for n in (1, 2):
        ent = ctx.entwining(n)
        basis = [ctx.cochain(n, v) for v in ctx.carrier(n)]
        assert basis
        for f in basis:
            assert is_psi_compatible(f, ent).passed
            assert is_psi_central(f, ent).passed


def test_carrier_equation_past_the_budget_raises():
    # on a domain taken as ungraded every (c, a) is an unknown, so the
    # compatibility site X1 (x) 1 reads f(1) at Y^N: psi(X1 (x) Y^N) leaves
    # the budget, and the solve says so instead of dropping the equation
    ctx = SweedlerContext(_poly2("case1a_q2", 3))
    ctx.domain(1).kind = "other"
    with pytest.raises(TruncationOverflow):
        ctx.carrier(1)


def test_coboundary_preimage_solves_the_carrier_and_refuses_a_class():
    # delta of a seeded carrier draw comes back solved on case2_beta1_Y;
    # the b = 1 class, which acceptance 10 certifies inequivalent, has no
    # preimage on the carrier
    from hopfcross.cli import _random_additive
    from hopfcross.workbench import xi2_cocycle
    ctx = SweedlerContext(_poly2("case2_beta1_Y", 4))
    w = additive_coboundary(ctx, _random_additive(random.Random(3), ctx, 1,
                                                  ctx.carrier(1)))
    assert not w.is_zero()
    v = ctx.coboundary_preimage(ctx.carrier(1), w)
    assert v is not None
    assert additive_coboundary(ctx, v) == w
    f = xi2_cocycle(ctx, ctx.mad.algebra.unit)
    assert ctx.coboundary_preimage(ctx.carrier(1), conv_log(f)) is None


def _exp_intertwines(ctx, f):
    res = conv_equal(conv_exp(additive_coboundary(ctx, f)),
                     differential(ctx, conv_exp(f)))
    return res.passed and not res.skipped


def test_per_column_draw_leaves_the_carrier():
    # negative control: drawn column by column over the whole grid, the
    # cochain is not s-compatible on case1a_q2 and exp(delta f) = D(exp f)
    # fails
    from hopfcross.cli import _random_additive
    mad = _poly2("case1a_q2", 4)
    ctx = SweedlerContext(mad)
    f = _random_additive(random.Random(0), ctx, 1)
    assert not is_s_compatible(f, mad).passed
    assert not _exp_intertwines(ctx, f)


def test_carrier_draw_is_s_compatible_and_intertwines():
    from hopfcross.cli import _random_additive
    mad = _poly2("case1a_q2", 4)
    ctx = SweedlerContext(mad)
    f = _random_additive(random.Random(0), ctx, 1, ctx.carrier(1))
    assert is_s_compatible(f, mad).passed
    assert _exp_intertwines(ctx, f)


def test_exp_examples(poly_ctx):
    mad = poly_ctx.mad
    A = mad.algebra
    # exp(0) = unit
    z = _additive_cochain(poly_ctx, 2, {})
    e = poly_ctx.unit_cochain(2)
    assert conv_exp(z) == e
    # the antisymmetrized generator cochain reproduces the half-coefficient
    # values f(X1 (x) X2) = -f(X2 (x) X1) = b/2
    b = Fraction(1)
    f = _additive_cochain(poly_ctx, 2, {
        ((1, 0), (0, 1)): Fraction(b, 2) * A.unit,
        ((0, 1), (1, 0)): Fraction(-b, 2) * A.unit})
    F = conv_exp(f)
    assert F(((1, 0), (0, 1))) == Fraction(1, 2) * A.unit
    assert F(((0, 1), (1, 0))) == Fraction(-1, 2) * A.unit


def test_exp_log_roundtrip_random(poly_ctx):
    rng = random.Random(17)
    mad = poly_ctx.mad
    A = mad.algebra
    C2 = poly_ctx.domain(2)
    for _ in range(20):
        table = {}
        for lab in C2.space.basis():
            if any(sum(a) == 0 for a in lab):
                continue
            deg = C2.space.degree(lab)
            vals = {(d,): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for d in range(deg + 1) if rng.random() < 0.3}
            table[lab] = Element(A.space, vals)
        f = _additive_cochain(poly_ctx, 2, table)
        g = conv_exp(f)
        assert conv_log(g) == f
        assert conv_exp(conv_log(g)) == g


def test_exp_intertwines_coboundaries(poly_ctx):
    rng = random.Random(23)
    mad = poly_ctx.mad
    A = mad.algebra
    C1 = poly_ctx.domain(1)
    C2 = poly_ctx.domain(2)
    for _ in range(8):
        table = {}
        for lab in C1.space.basis():
            if sum(lab[0]) == 0:
                continue
            deg = C1.space.degree(lab)
            vals = {(d,): Fraction(rng.randint(-2, 2))
                    for d in range(deg + 1) if rng.random() < 0.4}
            table[lab] = Element(A.space, vals)
        f = _additive_cochain(poly_ctx, 1, table)
        lhs = conv_exp(additive_coboundary(poly_ctx, f))
        rhs = differential(poly_ctx, conv_exp(f))
        assert all(lhs(l) == rhs(l) for l in C2.space.basis())


def test_exp_precondition(poly_ctx):
    mad = poly_ctx.mad
    A = mad.algebra
    bad = _additive_cochain(poly_ctx, 1, {((0, 0),): A.unit})
    with pytest.raises(SeriesPreconditionViolated):
        conv_exp(bad)
    not_normal = _additive_cochain(poly_ctx, 1, {((0, 0),): 2 * A.unit})
    with pytest.raises(SeriesPreconditionViolated):
        conv_log(not_normal)    # g(1) != 1
    # the domain k of a 0-cochain has no slot, so no degree bounds the
    # powers and neither series stops
    y = Element.basis_vector(A.space, (1,))
    with pytest.raises(SeriesPreconditionViolated):
        conv_exp(_scalar_cochain(poly_ctx, y))
    with pytest.raises(SeriesPreconditionViolated):
        conv_log(_scalar_cochain(poly_ctx, A.unit + y))


def test_a_0_cochain_over_a_budgeted_algebra():
    # k (x) k has no budget; the products of 0-cochain values still land in
    # the budgeted A (x) A that A's multiplication reads
    ctx = SweedlerContext(_poly2("case2_beta1_Y", 4))
    A = ctx.mad.algebra
    f = _scalar_cochain(ctx, 2 * A.unit)
    assert conv_inverse(f)(()) == Fraction(1, 2) * A.unit
    assert differential(ctx, f) == ctx.unit_cochain(1)


def test_additive_d1_matches_resolution_side(case2_beta_y):
    # the degree-one coboundary evaluates the action on generators, matching
    # the resolution-side formula d^1(b) = (beta_1(b), beta_2(b))
    mad = case2_beta_y
    ctx = SweedlerContext(mad)
    A = mad.algebra
    b = Element.basis_vector(A.space, (2,))
    f = _scalar_cochain(ctx, b)
    df = additive_coboundary(ctx, f)
    x1, x2 = (1, 0), (0, 1)
    h = mad.hopf
    for gen in (x1, x2):
        want = mad.act(Element.basis_vector(h.space, (gen,)), b)
        assert df((gen,)) == want


def _series_by_convmap_sums(start, x, coeffs):
    """start + sum coeffs[i-1] x^{*i}, summed with ConvMap addition."""
    acc, term = start, conv_unit(x.coalgebra, x.algebra)
    for c in coeffs:
        term = convolve(term, x)
        if term.is_zero():
            break
        acc = acc + c * term
    return acc


def test_exp_log_drop_columns_missing_from_a_power(poly_ctx):
    # a cochain with a column left out (a value past the budget): every
    # power that needs it lacks that column, and so do exp and log, as with
    # ConvMap addition
    mad = poly_ctx.mad
    A = mad.algebra
    C2 = poly_ctx.domain(2)
    gone = ((1, 0), (1, 0))
    cols = {lab: Element(A.space, {(0,): Fraction(C2.space.degree(lab), 3)})
            for lab in C2.space.basis()
            if lab != gone and not any(sum(a) == 0 for a in lab)}
    cols.update({lab: Element.zero(A.space) for lab in C2.space.basis()
                 if any(sum(a) == 0 for a in lab)})
    f = ConvMap(C2, A, LinMap(C2.space, A.space, cols))
    e = poly_ctx.unit_cochain(2)
    top = max(C2.space.degree(lab) for lab in C2.space.basis())
    g = conv_exp(f)
    assert g == _series_by_convmap_sums(
        e, f, [Fraction(1, math.factorial(i)) for i in range(1, top + 1)])
    assert gone in e.values.columns and gone not in g.values.columns
    assert any(not g(lab).is_zero() and C2.space.degree(lab) > 2
               for lab in g.values.columns)
    log_g = conv_log(g)
    assert log_g == _series_by_convmap_sums(
        Fraction(0) * e, g - e,
        [Fraction((-1) ** (i + 1), i) for i in range(1, top + 1)])
    assert gone not in log_g.values.columns


def _series_to_top(e, x, coeff, with_unit):
    """The exp/log series loop run to the coalgebra's top degree (or the
    first zero power), the reference for the degree bound of the series."""
    from hopfcross.exact import add_into
    C, A = e.coalgebra, e.algebra
    top = max((C.space.degree(l) for l in C.space.basis()), default=0)
    acc = {lab: dict(col.coeffs) if with_unit else {}
           for lab, col in e.values.columns.items()}
    term = e
    for i in range(1, top + 1):
        term = convolve(term, x)
        if term.is_zero():
            break
        cols = term.values.columns
        for gone in [lab for lab in acc if lab not in cols]:
            del acc[gone]
        for lab, vals in acc.items():
            add_into(vals, cols[lab].coeffs, coeff(i))
    return ConvMap(C, A, LinMap(C.space, A.space, {
        lab: Element(A.space, vals, validate=False)
        for lab, vals in acc.items()}))


def _same_columns(f, g):
    """Equal key order, values and coefficient order, column by column."""
    return [(lab, list(col.coeffs.items()))
            for lab, col in f.values.columns.items()] == \
        [(lab, list(col.coeffs.items()))
         for lab, col in g.values.columns.items()]


def _compare_style_cochains(N, n):
    from hopfcross.cli import _random_additive
    ctx = SweedlerContext(build_poly_action([[1, 0], [0, 1]], [0, 1], [0], N))
    f = _random_additive(random.Random(10 * N + n), ctx, n)
    # the same cochain with one nonscalar column left out
    C = f.coalgebra.space
    gone = next(lab for lab in C.basis() if C.degree(lab) == n + 1
                and all(sum(a) for a in lab))
    cut = ConvMap(f.coalgebra, f.algebra, LinMap(C, f.values.codomain, {
        lab: col for lab, col in f.values.columns.items() if lab != gone}))
    return ctx, f, cut, gone


@pytest.mark.parametrize("N,n", [(4, 1), (5, 1), (6, 1), (4, 2), (5, 2),
                                 (6, 2)])
def test_series_degree_bound_matches_the_loop_to_top(N, n):
    _, f, cut, gone = _compare_style_cochains(N, n)
    for x in (f, cut):
        e = conv_unit(x.coalgebra, x.algebra)
        g = conv_exp(x)
        assert _same_columns(g, _series_to_top(
            e, x, lambda i: Fraction(1, math.factorial(i)), True))
        assert _same_columns(conv_log(g), _series_to_top(
            e, g - e, lambda i: Fraction((-1) ** (i + 1), i), False))
    assert gone not in conv_exp(cut).values.columns


def _coboundary_by_convmap_sums(ctx, f):
    """The alternating coface sum with ConvMap scaling and addition."""
    out = None
    for i in range(f.coalgebra.space.arity + 2):
        term = Fraction(-1) ** i * coface(ctx, i, f)
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("N,n", [(4, 1), (5, 1), (4, 2)])
def test_additive_coboundary_matches_convmap_sums(N, n):
    ctx, f, cut, gone = _compare_style_cochains(N, n)
    for x in (f, cut):
        got = additive_coboundary(ctx, x)
        want = _coboundary_by_convmap_sums(ctx, x)
        assert got == want
        for lab, col in want.values.columns.items():
            assert list(got(lab).coeffs.items()) == list(col.coeffs.items())
    # a column missing from a coface is missing from the sum
    dcut = additive_coboundary(ctx, cut)
    C = dcut.coalgebra.space
    assert gone + ((0, 0),) not in dcut.values.columns
    assert len(dcut.values.columns) < C.dim()


def _poly2(name, budget):
    spec = WorkbenchSpec.load(os.path.join(os.path.dirname(__file__), "..",
                                           "fixtures", name + ".json"))
    spec.set_budget(budget)
    return build_instance(spec).mad


@pytest.mark.parametrize("budget", [4, 5])
def test_top_degree_label_is_not_a_free_s_invariant(budget):
    # s(X2 (x) Y^N) leaves the budget, so Y^N is no candidate; s(X2 (x) Y)
    # = 2 Y (x) X2 on case1a_q2, so only the constants are s-invariant
    mad = _poly2("case1a_q2", budget)
    one = [mad.algebra.unit]
    assert invariant_subspace(mad) == one
    assert h0(mad)[0] == one


@pytest.mark.parametrize("budget", [3, 4, 6])
def test_no_window_is_the_window_below_the_budget(budget):
    mad = _poly2("case2_beta1_Y", budget)
    assert invariant_subspace(mad) == invariant_subspace(mad,
                                                         window=budget - 1)
