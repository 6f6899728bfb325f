import itertools
import json
import os
import random
import re

import pytest
from fractions import Fraction

from hopfcross.exact import (Element, TruncationOverflow, add_basis_term,
                             tensor)
from hopfcross.hopf import compare_on
from hopfcross.actions import (build_poly_action, example_entwining,
                               trivial_module_algebra)
from hopfcross.convolution import (ConvMap, conv_inverse, conv_unit, convolve,
                                   is_psi_central)
from hopfcross.sweedler import (SweedlerContext, additive_coboundary,
                                conv_exp, differential, _scalar_cochain)
from hopfcross.crossed import (AssociativityFailure, CrossedProductAlgebra,
                               H2Verdict, build_crossed_product,
                               check_cocycle_conditions, check_equivalence,
                               chi_map, equivalence_conditions,
                               h2_correspondence, script_F, trivial_cocycle,
                               verify_crossed_product)


@pytest.fixture(scope="module")
def sctx(sign_action):
    return SweedlerContext(sign_action)


@pytest.fixture(scope="module")
def pctx(case2_beta_y):
    return SweedlerContext(case2_beta_y)


@pytest.fixture(scope="module")
def weyl_cocycle(pctx):
    """The case-2 cocycle with class b = 1: f(X1, X2) = -f(X2, X1) = 1/2."""
    mad = pctx.mad
    A = mad.algebra
    C2 = pctx.domain(2)
    table = {}
    for lab in C2.space.basis():
        u, v = lab
        if (u, v) == ((1, 0), (0, 1)):
            table[lab] = Fraction(1, 2) * A.unit
        elif (u, v) == ((0, 1), (1, 0)):
            table[lab] = Fraction(-1, 2) * A.unit
        else:
            table[lab] = Element.zero(A.space)
    from hopfcross.exact import LinMap
    g = ConvMap(C2, A, LinMap(C2.space, A.space, table))
    return conv_exp(g)


def test_chi_trivial_action(z2, dual_numbers):
    mad = trivial_module_algebra(z2, dual_numbers)
    chi = chi_map(mad)
    for lab in chi.domain.basis():
        assert chi.columns[lab].coeffs == {(lab[1], lab[0]): 1}


def test_chi_sign_action(sign_action):
    chi = chi_map(sign_action)
    assert chi.columns[("g1", "t")].coeffs == {("t", "g1"): -1}


def test_script_F_trivial(sctx, sign_action):
    Ff = script_F(sctx, trivial_cocycle(sctx))
    assert Ff.columns[("g1", "g1")].coeffs == {("1", "e"): 1}


def test_trivial_cocycle_flags(sctx):
    coc = check_cocycle_conditions(sctx, trivial_cocycle(sctx))
    assert coc.all_flags


def test_weyl_cocycle_flags(pctx, weyl_cocycle):
    coc = check_cocycle_conditions(pctx, weyl_cocycle)
    assert coc.all_flags


def test_non_normal_cocycle_flagged(sctx, sign_action):
    A = sign_action.algebra
    C2 = sctx.domain(2)
    f = ConvMap.from_function(C2, A, lambda lab: 2 * A.unit)
    coc = check_cocycle_conditions(sctx, f)
    assert not coc.normal


def test_twisted_module_iff_central(pctx, weyl_cocycle):
    # the cocommutative equivalence used for the twisted-module flag
    ent = example_entwining(pctx.mad, 2)
    coc = check_cocycle_conditions(pctx, weyl_cocycle)
    assert coc.twisted_module == is_psi_central(weyl_cocycle, ent).passed


def test_trivial_crossed_product_is_smash(sctx, sign_action):
    cp = build_crossed_product(sctx, check_cocycle_conditions(
        sctx, trivial_cocycle(sctx)))
    rep = verify_crossed_product(cp)
    assert rep.ok, rep.summary()
    # with the trivial cocycle the Hopf part multiplies through the action
    A, h = sign_action.algebra, sign_action.hopf
    g = cp.include_hopf(Element.basis_vector(h.space, ("g1",)))
    t = cp.include_algebra(Element.basis_vector(A.space, ("t",)))
    gt = cp.multiply(g, t)
    assert gt.coeffs == {(("t", "g1"),): -1}      # g t = (g.t) g = -t g


def test_case2_weyl_commutator(pctx, weyl_cocycle):
    assert check_cocycle_conditions(pctx, weyl_cocycle).all_flags
    cp = CrossedProductAlgebra(pctx, weyl_cocycle)
    H = pctx.mad.hopf.space
    W1 = cp.include_hopf(Element.basis_vector(H, ((1, 0),)))
    W2 = cp.include_hopf(Element.basis_vector(H, ((0, 1),)))
    comm = cp.multiply(W1, W2) - cp.multiply(W2, W1)
    assert comm == cp.include_algebra(pctx.mad.algebra.unit)
    rep = verify_crossed_product(cp, budget=4)
    assert rep.ok, rep.summary()


def test_case1b_W1_relation(case1b):
    # W1 Y = q1 Y W1 + b1 Y in the crossed product with the trivial cocycle
    ctx = SweedlerContext(case1b)
    coc = check_cocycle_conditions(ctx, trivial_cocycle(ctx))
    assert coc.all_flags
    cp = CrossedProductAlgebra(ctx, coc.f)
    H = case1b.hopf.space
    A = case1b.algebra
    W1 = cp.include_hopf(Element.basis_vector(H, ((1, 0),)))
    Y = cp.include_algebra(Element.basis_vector(A.space, (1,)))
    out = cp.multiply(W1, Y)
    # q1 = 2, beta1(Y) = 3Y
    assert out.coeffs == {((1, (1, 0)),): 2, ((1, (0, 0)),): 3}


def test_crossed_product_rejects_bad_cocycle(sctx, sign_action):
    A = sign_action.algebra
    C2 = sctx.domain(2)
    e = sctx.unit_cochain(2)

    def bad(lab):
        if lab == ("g1", "g1"):
            return 2 * A.unit + Element.basis_vector(A.space, ("t",))
        return e(lab)

    f = ConvMap.from_function(C2, A, bad)
    coc = check_cocycle_conditions(sctx, f)
    assert not coc.all_flags
    with pytest.raises(ValueError):
        build_crossed_product(sctx, coc)


def test_forced_inconsistent_cocycle_fails_associativity(z3, dual_numbers):
    # f(g1, g1) = 2 on Z/3 violates the cocycle identity at (g1, g1, g2);
    # bypass the flags deliberately and let the triple check catch it
    mad = trivial_module_algebra(z3, dual_numbers)
    ctx = SweedlerContext(mad)
    A = mad.algebra
    e = ctx.unit_cochain(2)

    def skew(lab):
        if lab == ("g1", "g1"):
            return 2 * A.unit
        return e(lab)

    f = ConvMap.from_function(ctx.domain(2), A, skew)
    coc = check_cocycle_conditions(ctx, f)
    assert not coc.cocycle
    coc.cocycle = True                      # lie about it
    with pytest.raises(AssociativityFailure):
        build_crossed_product(ctx, coc)


def test_comodule_algebra_structure(sctx):
    coc = check_cocycle_conditions(sctx, trivial_cocycle(sctx))
    assert coc.all_flags
    cp = CrossedProductAlgebra(sctx, coc.f)
    rep = verify_crossed_product(cp)
    check = next(c for c in rep.checks if c.name == "crossed.comodule_algebra")
    assert check.passed


def test_equivalence_unit(sctx):
    f = trivial_cocycle(sctx)
    u = sctx.unit_cochain(1)
    rep, iso = check_equivalence(sctx, f, f, u)
    assert rep.ok, rep.summary()
    assert iso is not None
    # the isomorphism for u = unit is the identity on basis pairs
    for lab, col in iso.columns.items():
        assert col.coeffs == {lab: 1}


def test_equivalence_along_coboundary_twist(sctx, sign_action):
    A = sign_action.algebra
    C1 = sctx.domain(1)
    t = Element.basis_vector(A.space, ("t",))
    u = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 3 * A.unit + t})
    f = trivial_cocycle(sctx)
    # f' defined by the coboundary relation: solve (4') for f'
    lhs_head = convolve(
        ConvMap.from_function(
            sctx.domain(2), A,
            lambda lab: sctx.mad.act(
                Element.basis_vector(sctx.mad.hopf.space, lab[:1]), u(lab[1:]))),
        ConvMap.from_function(
            sctx.domain(2), A,
            lambda lab: sctx.mad.hopf.counit_value(lab[1]) * u(lab[:1])))
    rhs = convolve(f, ConvMap.from_function(
        sctx.domain(2), A,
        lambda lab: u.values.apply(sctx.mad.hopf.mul.apply(
            Element.basis_vector(sctx.mad.hopf.space.tensor(
                sctx.mad.hopf.space), lab)))))
    fprime = convolve(conv_inverse(lhs_head), rhs)
    rep, iso = check_equivalence(sctx, f, fprime, u)
    assert rep.ok, rep.summary()
    assert iso is not None


def test_equivalence_non_normal_u_fails_condition1(sctx):
    f = trivial_cocycle(sctx)
    A = sctx.mad.algebra
    u = ConvMap.from_function(sctx.domain(1), A, lambda lab: 2 * A.unit)
    rep = equivalence_conditions(sctx, f, f, u)
    cond1 = next(c for c in rep.checks if c.name == "equivalence.1_normal")
    assert not cond1.passed


def test_condition3_and_twisted_module_are_centrality(pctx):
    # condition (3) <=> s-centrality for 1-cochains; twisted module <=>
    # s-centrality for 2-cochains, sampled through the graded carrier
    mad = pctx.mad
    A = mad.algebra
    rng = random.Random(3)
    ent1 = example_entwining(mad, 1)
    C1 = pctx.domain(1)
    for _ in range(4):
        vals = {}
        for lab in C1.space.basis():
            deg = C1.space.degree(lab)
            if deg == 0:
                vals[lab] = A.unit
            else:
                vals[lab] = Element(A.space, {
                    (d,): Fraction(rng.randint(-2, 2))
                    for d in range(deg + 1) if rng.random() < 0.5})
        u = ConvMap.from_table(C1, A, vals)
        rep = equivalence_conditions(pctx, trivial_cocycle(pctx),
                                     trivial_cocycle(pctx), u)
        central = is_psi_central(u, ent1).passed
        cond3 = next(c for c in rep.checks
                     if c.name == "equivalence.3_s_central")
        raw3 = [c for c in rep.checks if c.name == "equivalence.3_raw_display"]
        assert cond3.passed == central
        if raw3 and central:
            assert raw3[0].passed


def test_h2_same_cocycle(pctx, weyl_cocycle):
    v = h2_correspondence(pctx, weyl_cocycle, weyl_cocycle)
    assert v.status == "cohomologous"


def test_h2_weyl_vs_trivial_is_inconsistent(pctx, weyl_cocycle):
    # nonzero class in the second cohomology: certificate of inconsistency
    v = h2_correspondence(pctx, weyl_cocycle, trivial_cocycle(pctx))
    assert v.status == "inequivalent"


def test_h2_coboundary_found_with_verified_iso(pctx):
    mad = pctx.mad
    A = mad.algebra
    C1 = pctx.domain(1)
    vals = {}
    for lab in C1.space.basis():
        (a, b), = lab
        if (a, b) == (0, 0):
            vals[lab] = A.unit
        elif (a, b) == (1, 0):
            vals[lab] = 3 * Element.basis_vector(A.space, (1,))
        elif (a, b) == (0, 1):
            vals[lab] = Element.basis_vector(A.space, (1,))
        else:
            vals[lab] = Element.zero(A.space)
    u = ConvMap.from_table(C1, A, vals)
    fprime = differential(pctx, u)
    v = h2_correspondence(pctx, fprime, trivial_cocycle(pctx))
    assert v.status == "cohomologous"
    rep, iso = check_equivalence(pctx, fprime, trivial_cocycle(pctx), v.u)
    assert rep.ok, rep.summary()
    assert iso is not None


def test_h2_decisions_on_one_context_solve_the_carrier_once(
        case2_beta_y, monkeypatch):
    import hopfcross.sweedler as sweedler
    calls = []

    def counted(*args):
        calls.append(args)
        return carrier_solve(*args)

    carrier_solve = sweedler.carrier_solve
    monkeypatch.setattr(sweedler, "carrier_solve", counted)
    ctx = SweedlerContext(case2_beta_y)
    A = ctx.mad.algebra
    y = Element.basis_vector(A.space, (1,))
    u = ConvMap.from_function(
        ctx.domain(1), A,
        lambda lab: A.unit if lab == ((0, 0),) else
        y if lab in (((1, 0),), ((0, 1),)) else 0 * y)
    f = differential(ctx, u)
    for _ in range(2):
        assert h2_correspondence(ctx, f, trivial_cocycle(ctx)).status == \
            "cohomologous"
    assert len(calls) == 1


def test_h2_group_scalar_obstruction(sctx, sign_action):
    # f(g,g) = 2: the scalar class 2 is not a square in Q
    A = sign_action.algebra
    e2 = sctx.unit_cochain(2)
    f = ConvMap.from_function(
        sctx.domain(2), A,
        lambda lab: 2 * A.unit if lab == ("g1", "g1") else e2(lab))
    v = h2_correspondence(sctx, f, trivial_cocycle(sctx))
    assert v.status == "inequivalent"


def test_h2_group_twist_found(sctx, sign_action):
    A = sign_action.algebra
    C1 = sctx.domain(1)
    t = Element.basis_vector(A.space, ("t",))
    u = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 3 * A.unit + t})
    f = differential(sctx, u)
    v = h2_correspondence(sctx, f, trivial_cocycle(sctx))
    assert v.status == "cohomologous"
    rep, iso = check_equivalence(sctx, f, trivial_cocycle(sctx), v.u)
    assert rep.ok
    assert iso is not None


def test_equivalence_relation_properties(sctx, sign_action):
    # reflexive / symmetric-ish behavior of the witnesses on a sampled pair
    A = sign_action.algebra
    C1 = sctx.domain(1)
    u = ConvMap.from_table(C1, A, {("e",): A.unit, ("g1",): 5 * A.unit})
    f = trivial_cocycle(sctx)
    Du = differential(sctx, u)
    rep, _ = check_equivalence(sctx, Du, f, u)
    assert rep.ok
    # the inverse witness carries f back to Du
    rep2, _ = check_equivalence(sctx, f, Du, conv_inverse(u))
    assert rep2.ok


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture_ctx(name, budget):
    from hopfcross.workbench import WorkbenchSpec, build_poly2_instance
    spec = WorkbenchSpec.load(os.path.join(FIXTURES, name + ".json"))
    spec.set_budget(budget)
    return SweedlerContext(build_poly2_instance(spec))


def _fixture_crossed_product(name, cocycle, budget):
    from hopfcross.workbench import cocycle_from_doc
    ctx = _fixture_ctx(name, budget)
    with open(os.path.join(FIXTURES, cocycle + ".json")) as fh:
        coc = check_cocycle_conditions(ctx, cocycle_from_doc(ctx, json.load(fh)))
    assert coc.all_flags
    return CrossedProductAlgebra(ctx, coc.f)


def _reference_twisted_mul(cp, x, y):
    """The s_hat-twisted product of (A#H) (x) H as a loop over the terms of
    x and y, reading one column of s_hat, mul and mu_H per term."""
    s_hat, h = cp.hat_transposition(), cp.mad.hopf
    out_space = cp.space.tensor(h.space)

    def column(f, lab):
        col = f.columns.get(lab)
        if col is None:
            raise TruncationOverflow("no column for label %r" % (lab,))
        return col

    out = {}
    for (p1, h1), v in x.coeffs.items():
        for (p2, h2), u in y.coeffs.items():
            cross = column(s_hat, (h1, p2))
            for (p2b, h1b), w in cross.coeffs.items():
                prod_p = column(cp.mul, (p1, p2b))
                prod_h = column(h.mul, (h1b, h2))
                for (pp,), vv in prod_p.coeffs.items():
                    for (hh2,), ww in prod_h.coeffs.items():
                        add_basis_term(out, out_space, (pp, hh2),
                                       v * w * u * vv * ww)
    return Element(out_space, out, validate=False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TruncationOverflow:
        return "skipped"


# 3b's b = 1 class fails its flags, so it is crossed with the trivial cocycle
@pytest.mark.parametrize("budget", [4, 5, 6])
@pytest.mark.parametrize("name,cocycle", [("case2_beta1_Y", "cocycle_b1"),
                                          ("case3a", "cocycle_b1"),
                                          ("case3b", "cocycle_trivial")])
def test_twisted_composite_matches_the_term_loop(name, cocycle, budget):
    cp = _fixture_crossed_product(name, cocycle, budget)
    skipped = 0
    for t in cp.space.tensor(cp.space).basis():
        x = cp.coaction(Element.basis_vector(cp.space, t[:1]))
        y = cp.coaction(Element.basis_vector(cp.space, t[1:]))
        got = _outcome(cp.twisted_multiply, x, y)
        assert got == _outcome(_reference_twisted_mul, cp, x, y), t
        skipped += got == "skipped"
    # the families with Q != I leave the budget on some pairs
    assert (skipped > 0) == (name != "case2_beta1_Y")


def test_comodule_check_keeps_the_skip_count_of_the_term_loop():
    cp = _fixture_crossed_product("case3a", "cocycle_b1", 5)
    rep = verify_crossed_product(cp)
    check = next(c for c in rep.checks if c.name == "crossed.comodule_algebra")
    space = cp.space
    ref = compare_on(space.tensor(space),
                     lambda x, t: cp.coaction(cp.mul.apply(x)),
                     lambda x, t: _reference_twisted_mul(
                         cp, cp.coaction(Element.basis_vector(space, t[:1])),
                         cp.coaction(Element.basis_vector(space, t[1:]))))
    assert (check.checked, check.skipped, check.failures) == \
        (ref.checked, ref.skipped, ref.failures)
    assert check.passed and check.skipped > 0


# ---------------------------------------------------------------------------
# the H^2 decision against the classifier goldens

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def _golden_h2_exact(name):
    with open(os.path.join(GOLDENS, name + ".txt")) as fh:
        return next(line.split(": ", 1)[1].strip() for line in fh
                    if line.startswith("H2_exact: "))


def _golden_coboundary(h2_exact, b):
    """Whether the golden H^2 makes the Xi(D_2) element b a coboundary:
    all of it for H^2 = 0, the ideal <Y^d> for k[Y]/<Y^d>, and only 0 for
    the other goldens, whose d2 vanishes."""
    if h2_exact == "0":
        return True
    m = re.match(r"k\[Y\]/<Y(?:\^(\d+))?> ", h2_exact)
    if m:
        return min(e for (e,) in b.coeffs) >= int(m.group(1) or 1)
    return b.is_zero()


def _xi2_samples(ctx):
    """The Xi(D_2) basis values and the nonzero d2 images of Xi(D_1) at the
    classifier's window, without repeats."""
    from hopfcross.ce import xi_differential_matrix, xi_space
    from hopfcross.workbench import XiComplex
    mad = ctx.mad
    xi = XiComplex(mad)
    ce, trans = xi.ce, xi.trans
    window = mad.algebra.space.budget - 1
    lo, hi = (xi_space(ce, n, trans, window=window) for n in (1, 2))
    images, _ = xi_differential_matrix(ce, trans, lo, hi, 2)
    out = []
    for b in ([base[(0, 1)] for base in hi.basis]
              + [img[(0, 1)] for img in images]):
        if not b.is_zero() and b not in out:
            out.append(b)
    return out


POLY2 = ["case1a_q2", "case1a_qm1", "case1b_q1q2_1", "case1b_q1q2_ne1",
         "case2_beta1_Y", "case2_beta1_Y2", "case3a", "case3b"]


@pytest.mark.parametrize("name,budget",
                         [(n, 4) for n in POLY2]
                         + [("case2_beta1_Y", 5), ("case2_beta1_Y2", 5)])
def test_h2_verdicts_agree_with_golden_H2_exact(name, budget):
    from hopfcross.workbench import xi2_cocycle
    ctx = _fixture_ctx(name, budget)
    h2 = _golden_h2_exact(name)
    samples = _xi2_samples(ctx)
    assert samples or h2 == "0"
    for b in samples:
        v = h2_correspondence(ctx, xi2_cocycle(ctx, b), trivial_cocycle(ctx))
        want = "cohomologous" if _golden_coboundary(h2, b) else "inequivalent"
        assert v.status == want, (b, v)


@pytest.mark.parametrize("budget", [4, 5, 6])
def test_h2_lie_class_Y_is_a_coboundary_with_a_verified_witness(budget):
    from hopfcross.workbench import xi2_cocycle
    ctx = _fixture_ctx("case2_beta1_Y", budget)
    A = ctx.mad.algebra
    f = xi2_cocycle(ctx, Element.basis_vector(A.space, (1,)))
    v = h2_correspondence(ctx, f, trivial_cocycle(ctx))
    assert v.status == "cohomologous", v
    assert v.detail.endswith(", 0 skipped for budget")
    rep, iso = check_equivalence(ctx, f, trivial_cocycle(ctx), v.u)
    assert rep.ok, rep.summary()
    assert iso is not None


def test_h2_a_wrong_witness_fails_the_final_check(monkeypatch):
    import hopfcross.workbench as workbench
    from hopfcross.workbench import xi2_cocycle
    ctx = _fixture_ctx("case2_beta1_Y", 4)
    A = ctx.mad.algebra
    f = xi2_cocycle(ctx, Element.basis_vector(A.space, (1,)))
    right = h2_correspondence(ctx, f, trivial_cocycle(ctx))
    assert right.status == "cohomologous", right
    witness = workbench.xi_h2_witness
    monkeypatch.setattr(workbench, "xi_h2_witness",
                        lambda *args: 2 * witness(*args))
    v = h2_correspondence(ctx, f, trivial_cocycle(ctx))
    assert (v.status, v.detail) == ("inconclusive",
                                    "the witness fails q * D(u)^-1 = e")
    assert v.u is None


def test_h2_refuses_a_non_cocycle():
    from hopfcross.workbench import xi2_cocycle
    ctx = _fixture_ctx("case3a", 4)
    A = ctx.mad.algebra
    f = xi2_cocycle(ctx, Element.basis_vector(A.space, (1,)))
    assert not check_cocycle_conditions(ctx, f).s_compatible
    with pytest.raises(ValueError, match="cocycle flags not all true"):
        h2_correspondence(ctx, f, trivial_cocycle(ctx))
    with pytest.raises(ValueError, match="cocycle flags not all true"):
        h2_correspondence(ctx, trivial_cocycle(ctx), f)


@pytest.mark.parametrize("mad_name", ["sign_action", "z3_graded"])
def test_additive_coboundary_gives_the_group_rows(mad_name, request):
    """On a group domain, delta(v)(g1, g2) = g1.v(g2) - v(g1 g2) + v(g1) for
    every unit cochain of the grid the H^2 group solve runs over."""
    mad = request.getfixturevalue(mad_name)
    ctx = SweedlerContext(mad)
    h, A = mad.hopf, mad.algebra
    C1 = ctx.domain(1)
    grid = ctx.grid(1)
    assert len(grid) == C1.space.dim() * A.space.dim()
    for j in range(len(grid)):
        v = ctx.cochain(1, {j: 1})
        dv = additive_coboundary(ctx, v)
        for g1, g2 in ctx.domain(2).space.basis():
            g12 = h.mul.apply(Element.basis_vector(h.space.tensor(h.space),
                                                   (g1, g2)))
            want = (mad.act(Element.basis_vector(h.space, (g1,)), v((g2,)))
                    - v.apply(g12) + v((g1,)))
            assert dv((g1, g2)) == want, (grid[j], g1, g2)


def test_h2_graded_instance_without_a_xi_side():
    """k[X1,X2] acting trivially on k[Y] has no Xi side: the carrier solve
    alone finds the witness of a coboundary."""
    from hopfcross.actions import poly_algebra
    from hopfcross.hopf import build_truncated_poly_hopf
    mad = trivial_module_algebra(build_truncated_poly_hopf(2, 3),
                                 poly_algebra(3))
    ctx = SweedlerContext(mad)
    A = mad.algebra
    y = Element.basis_vector(A.space, (1,))
    v = ConvMap.from_function(
        ctx.domain(1), A,
        lambda lab: y if lab in (((1, 1),), ((2, 0),)) else 0 * y)
    f = differential(ctx, conv_exp(v))
    assert check_cocycle_conditions(ctx, f).all_flags
    assert h2_correspondence(ctx, f, f).status == "cohomologous"
    verdict = h2_correspondence(ctx, f, trivial_cocycle(ctx))
    assert verdict.status == "cohomologous", verdict
    rep, iso = check_equivalence(ctx, f, trivial_cocycle(ctx), verdict.u)
    assert rep.ok, rep.summary()
    assert iso is not None


@pytest.mark.parametrize("beta1,budget,degree",
                         [([0, 1], 4, 4), ([0, 1], 5, 5), ([1], 4, 3)],
                         ids=["Y-4", "Y-5", "1-4"])
def test_h2_lie_class_reached_only_from_above_the_window(beta1, budget,
                                                         degree):
    """b = Y^degree is d2 of a cochain with values above the window N - 1:
    X1 acts as Y d/dY (beta1 = Y) or as d/dY (beta1 = 1).  No witness is on
    the degree-bounded grid, and no preimage on the window may certify the
    classes inequivalent, so the verdict is inconclusive."""
    from hopfcross.workbench import xi2_cocycle
    ctx = SweedlerContext(build_poly_action([[1, 0], [0, 1]], beta1, [0],
                                            budget))
    A = ctx.mad.algebra
    f = xi2_cocycle(ctx, Element.basis_vector(A.space, (degree,)))
    assert check_cocycle_conditions(ctx, f).all_flags
    v = h2_correspondence(ctx, f, trivial_cocycle(ctx))
    assert v.status == "inconclusive", v
