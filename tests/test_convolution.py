import random

import pytest
from fractions import Fraction

from hopfcross.exact import Element, LinMap
from hopfcross.hopf import GroupSpec, build_group_algebra, \
    build_truncated_poly_hopf
from hopfcross.actions import (AlgebraData, action_module_algebra,
                               example_entwining, poly_algebra,
                               tensor_power_coalgebra, trivial_module_algebra)
from hopfcross.convolution import (ConvMap, NotConvolutionInvertible,
                                   conv_inverse, conv_unit, convolve,
                                   iota, iota_inverse, is_h_linear,
                                   is_psi_central, is_psi_compatible,
                                   is_s_compatible, random_combination,
                                   transfer_TAC, transfer_TAC_inverse,
                                   unit_coalgebra)
from hopfcross.sweedler import SweedlerContext


@pytest.fixture(scope="module")
def grouplike_maps(z2, dual_numbers):
    C = tensor_power_coalgebra(z2, 1)
    one = dual_numbers.unit
    f = ConvMap.from_table(C, dual_numbers,
                           {("e",): one, ("g1",): 2 * one})
    g = ConvMap.from_table(C, dual_numbers,
                           {("e",): one, ("g1",): 3 * one})
    return C, f, g


def test_unit_law(grouplike_maps, dual_numbers):
    C, f, _ = grouplike_maps
    e = conv_unit(C, dual_numbers)
    assert convolve(f, e) == f
    assert convolve(e, f) == f


def test_grouplike_convolution_is_pointwise(grouplike_maps):
    _, f, g = grouplike_maps
    assert convolve(f, g)(("g1",)).coeffs == {("1",): 6}


def test_normalized_product_kills_generator():
    # oracle: Delta(X) = X (x) 1 + 1 (x) X and both eps-normalized factors
    # vanish on scalars, so ((f - e) * (g - e))(X) = 0
    h = build_truncated_poly_hopf(1, 3)
    C = tensor_power_coalgebra(h, 1)
    A = poly_algebra(3)
    e = conv_unit(C, A)
    y = Element.basis_vector(A.space, (1,))
    f = ConvMap.from_table(C, A, {((0,),): A.unit, ((1,),): y})
    g = ConvMap.from_table(C, A, {((0,),): A.unit, ((1,),): 2 * y})
    prod = convolve(f - e, g - e)
    assert prod(((1,),)).is_zero()


def test_conv_inverse_unit(grouplike_maps, dual_numbers):
    C, _, _ = grouplike_maps
    e = conv_unit(C, dual_numbers)
    assert conv_inverse(e) == e


def test_conv_inverse_grouplike(grouplike_maps):
    _, f, _ = grouplike_maps
    fi = conv_inverse(f)
    assert fi(("g1",)).coeffs == {("1",): Fraction(1, 2)}


def test_conv_inverse_graded_series():
    # oracle: solve (f * f^-1)(X^n) = 0 degree by degree
    h = build_truncated_poly_hopf(1, 3)
    C = tensor_power_coalgebra(h, 1)
    A = poly_algebra(3)
    table = {((0,),): A.unit, ((1,),): Element.basis_vector(A.space, (1,)),
             ((2,),): Element.zero(A.space), ((3,),): Element.zero(A.space)}
    f = ConvMap.from_table(C, A, table)
    fi = conv_inverse(f)
    assert fi(((1,),)).coeffs == {(1,): -1}
    assert fi(((2,),)).coeffs == {(2,): 2}
    e = conv_unit(C, A)
    assert convolve(f, fi) == e and convolve(fi, f) == e


def test_conv_inverse_refuses_other_kinds(z2, dual_numbers):
    C = tensor_power_coalgebra(z2, 1)
    C.kind = "other"
    f = conv_unit(C, dual_numbers)
    with pytest.raises(NotConvolutionInvertible):
        conv_inverse(f)


def test_conv_inverse_witness(grouplike_maps, dual_numbers, z2):
    C = tensor_power_coalgebra(z2, 1)
    t = Element.basis_vector(dual_numbers.space, ("t",))
    f = ConvMap.from_table(C, dual_numbers,
                           {("e",): dual_numbers.unit, ("g1",): t})
    with pytest.raises(NotConvolutionInvertible) as err:
        conv_inverse(f)
    assert err.value.witness == ("g1",)


def test_compatibility_flip_everything(z2, dual_numbers):
    mad = trivial_module_algebra(z2, dual_numbers)
    ent = example_entwining(mad, 1)
    rng = random.Random(0)
    C = ent.coalgebra
    for _ in range(5):
        f = ConvMap.from_function(
            C, dual_numbers,
            lambda lab: Element(dual_numbers.space, {
                ("1",): Fraction(rng.randint(-3, 3)),
                ("t",): Fraction(rng.randint(-3, 3))}))
        assert is_psi_compatible(f, ent).passed


def test_compatibility_graded_characterization(z3_graded):
    # compatible iff the image lies in the identity component
    ent = example_entwining(z3_graded, 1)
    A = z3_graded.algebra
    C = ent.coalgebra
    good = ConvMap.from_function(C, A, lambda lab: A.unit)
    bad = ConvMap.from_function(
        C, A, lambda lab: Element.basis_vector(A.space, ("t",)))
    assert is_psi_compatible(good, ent).passed
    assert not is_psi_compatible(bad, ent).passed
    assert is_s_compatible(good, z3_graded).passed
    assert not is_s_compatible(bad, z3_graded).passed


def test_compatibility_flip_means_invariants(case2_beta_y):
    # flip-braid case: compatible iff the image lies in sA; here sA is all of
    # k[Y] since Q = ide
    ent = example_entwining(case2_beta_y, 1)
    A = case2_beta_y.algebra
    f = ConvMap.from_function(
        ent.coalgebra, A,
        lambda lab: Element.basis_vector(A.space, (min(2, sum(lab[0])),)))
    assert is_psi_compatible(f, ent).passed


def test_centrality_commutative_flip(z2, dual_numbers):
    mad = trivial_module_algebra(z2, dual_numbers)
    ent = example_entwining(mad, 1)
    f = ConvMap.from_function(
        ent.coalgebra, dual_numbers,
        lambda lab: Element.basis_vector(dual_numbers.space, ("t",)))
    assert is_psi_central(f, ent).passed


def test_centrality_graded_characterization(z3_graded):
    # central iff f(g)a = a f(zeta(g)) for homogeneous a; scalar-valued f
    # must be inversion-invariant
    ent = example_entwining(z3_graded, 1)
    A = z3_graded.algebra
    C = ent.coalgebra
    sym = ConvMap.from_table(C, A, {("e",): A.unit, ("g1",): 2 * A.unit,
                                    ("g2",): 2 * A.unit})
    asym = ConvMap.from_table(C, A, {("e",): A.unit, ("g1",): 2 * A.unit,
                                     ("g2",): 3 * A.unit})
    assert is_psi_central(sym, ent).passed
    assert not is_psi_central(asym, ent).passed


def test_centrality_noncommutative_negative_control(z2):
    # 2x2 upper-triangular algebra on basis {1, n} with n from the strictly
    # upper corner is commutative; use the full triangular algebra {e11, e22, n}
    A = AlgebraData.from_table(
        "tri", ["e11", "e22", "n"],
        {("e11", "e11"): {"e11": 1}, ("e22", "e22"): {"e22": 1},
         ("e11", "n"): {"n": 1}, ("n", "e22"): {"n": 1},
         ("e11", "e22"): {}, ("e22", "e11"): {}, ("n", "e11"): {},
         ("e22", "n"): {}, ("n", "n"): {}},
        "e11")
    A.unit = Element(A.space, {("e11",): 1, ("e22",): 1})   # true unit
    mad = trivial_module_algebra(z2, A)
    ent = example_entwining(mad, 1)
    f = ConvMap.from_function(
        ent.coalgebra, A, lambda lab: Element.basis_vector(A.space, ("n",)))
    res = is_psi_central(f, ent)
    assert not res.passed and res.failures


def test_transfer_unit_is_identity(grouplike_maps, dual_numbers):
    C, _, _ = grouplike_maps
    e = conv_unit(C, dual_numbers)
    T = transfer_TAC(e)
    assert T == LinMap.identity(T.domain)


def test_transfer_grouplike_expansion(grouplike_maps):
    _, f, _ = grouplike_maps
    T = transfer_TAC(f)
    col = T.columns[("g1", "1")]
    assert col.coeffs == {("g1", "1"): 2}


def test_transfer_roundtrip_and_multiplicativity():
    rng = random.Random(2)
    h = build_truncated_poly_hopf(1, 3)
    C = tensor_power_coalgebra(h, 1)
    A = poly_algebra(3)
    for _ in range(4):
        cols = {}
        for lab in C.space.basis():
            deg = C.space.degree(lab)
            cols[lab] = Element(A.space, {
                (d,): Fraction(rng.randint(-2, 2)) for d in range(deg + 1)})
        f = ConvMap(C, A, LinMap(C.space, A.space, cols))
        back = transfer_TAC_inverse(transfer_TAC(f), C, A)
        assert all(back(l) == f(l) for l in C.space.basis())
    # T(f*g) = T(f) o T(g) on a fixed pair
    f = ConvMap.from_table(C, A, {((0,),): A.unit,
                                  ((1,),): Element.basis_vector(A.space, (1,)),
                                  ((2,),): Element.zero(A.space),
                                  ((3,),): Element.zero(A.space)})
    g = ConvMap.from_table(C, A, {((0,),): A.unit,
                                  ((1,),): 2 * Element.basis_vector(A.space, (1,)),
                                  ((2,),): Element.zero(A.space),
                                  ((3,),): Element.zero(A.space)})
    from hopfcross.exact import compose
    lhs = transfer_TAC(convolve(f, g))
    rhs = compose(transfer_TAC(f), transfer_TAC(g))
    assert lhs == rhs


def test_reg_membership_unit(sign_action):
    ctx = SweedlerContext(sign_action)
    ent = ctx.entwining(1)
    e = conv_unit(ent.coalgebra, sign_action.algebra)
    assert is_psi_compatible(e, ent).passed
    assert is_psi_central(e, ent).passed
    assert is_s_compatible(e, sign_action).passed
    assert is_h_linear(e, sign_action, ent.coalgebra.rho).passed
    assert conv_inverse(e) == e


def test_iota_unit_image(sign_action):
    # iota_0 of the unit is the constant-1 map on k
    C1 = tensor_power_coalgebra(sign_action.hopf, 1)
    e = conv_unit(C1, sign_action.algebra)
    i0 = iota(e, sign_action)
    assert i0(()).coeffs == {("1",): 1}


def test_iota_centrality_equivalence(z3_graded):
    # brute force both centrality predicates across the iota bijection on a
    # family of H-linear maps on H^2; the graded transposition makes
    # centrality a real condition (inversion invariance)
    mad = z3_graded
    C2 = tensor_power_coalgebra(mad.hopf, 2)
    C1 = tensor_power_coalgebra(mad.hopf, 1)
    A = mad.algebra
    ent2 = example_entwining(mad, 2)
    ent1 = example_entwining(mad, 1)
    rng = random.Random(4)
    seen_central = seen_noncentral = 0
    for _ in range(12):
        vals1 = {}
        for lab in C1.space.basis():
            vals1[lab] = Fraction(rng.randint(-3, 3)) * A.unit
        g = ConvMap.from_table(C1, A, vals1)
        f = iota_inverse(g, mad)            # H-linear map on H^2
        assert all(iota(f, mad)(l) == g(l) for l in C1.space.basis())
        c2 = is_psi_central(f, ent2).passed
        c1 = is_psi_central(g, ent1).passed
        assert c2 == c1
        if c1:
            seen_central += 1
        else:
            seen_noncentral += 1
    assert seen_central and seen_noncentral


# The carrier bases `SweedlerContext.carrier` solves on the unbudgeted group
# instances, as cochains in order: the closure tests and acceptance 02 draw
# their random combinations from them, so a change to the solve must leave
# them as they are.  A map is given by its nonzero columns, C label ->
# {A atom: coefficient}.
PINNED_HOM_PSI = {
    ("sign_action", 1): [
        {"e": {"1": 1}}, {"e": {"t": 1}}, {"g1": {"1": 1}}, {"g1": {"t": 1}}],
    ("sign_action", 2): [
        {"e,e": {"1": 1}}, {"e,e": {"t": 1}},
        {"e,g1": {"1": 1}}, {"e,g1": {"t": 1}},
        {"g1,e": {"1": 1}}, {"g1,e": {"t": 1}},
        {"g1,g1": {"1": 1}}, {"g1,g1": {"t": 1}}],
    ("z3_graded", 1): [
        {"e": {"1": 1}}, {"g1": {"1": 1}, "g2": {"1": 1}}],
    ("z3_graded", 2): [
        {"e,e": {"1": 1}},
        {"e,g1": {"1": 1}, "e,g2": {"1": 1}},
        {"g1,e": {"1": 1}, "g2,e": {"1": 1}},
        {"g1,g2": {"1": 1}, "g2,g1": {"1": 1}},
        {"g1,g1": {"1": 1}, "g2,g2": {"1": 1}}],
}


@pytest.mark.parametrize("name,n", sorted(PINNED_HOM_PSI))
def test_hom_psi_subspace_pinned_on_group_instances(name, n, request):
    mad = request.getfixturevalue(name)
    ctx = SweedlerContext(mad)
    ent = ctx.entwining(n)
    C, A = ent.coalgebra, ent.algebra
    want = [ConvMap.from_table(C, A, {
        tuple(lab.split(",")): Element(A.space, {(a,): v
                                                 for a, v in col.items()})
        for lab, col in table.items()}) for table in PINNED_HOM_PSI[name, n]]
    assert [ctx.cochain(n, v) for v in ctx.carrier(n)] == want


def test_flagged_subalgebra_closure_and_inverses(sign_action, z3_graded):
    # 100 random flagged pairs per instance: convolution stays flagged, and
    # inverses of flagged invertible maps stay flagged (exact equality)
    rng = random.Random(7)
    for mad in (sign_action, z3_graded):
        ctx = SweedlerContext(mad)
        for n in (1, 2):
            ent = ctx.entwining(n)
            basis = [ctx.cochain(n, v) for v in ctx.carrier(n)]
            assert basis, "flagged subspace should not be trivial"
            e = conv_unit(ent.coalgebra, ent.algebra)
            assert any(convolve(b, e) == b for b in basis)
            checked_inv = 0
            for _ in range(25):
                f = random_combination(rng, basis)
                g = random_combination(rng, basis)
                prod = convolve(f, g)
                assert is_psi_compatible(prod, ent).passed
                assert is_psi_central(prod, ent).passed
                finv_src = e + f
                try:
                    fi = conv_inverse(finv_src)
                except NotConvolutionInvertible:
                    continue
                checked_inv += 1
                assert is_psi_compatible(fi, ent).passed
                assert is_psi_central(fi, ent).passed
            assert checked_inv >= 10


def test_central_compatible_exchange_law(sign_action):
    # for f compatible and g central: g*f = mu (f (x) g) varsigma Delta
    from hopfcross.exact import apply_at
    ctx = SweedlerContext(sign_action)
    ent = ctx.entwining(1)
    C, A = ent.coalgebra, ent.algebra
    rng = random.Random(9)
    basis = [ctx.cochain(1, v) for v in ctx.carrier(1)]
    for _ in range(6):
        f = random_combination(rng, basis)
        g = random_combination(rng, basis)
        lhs = convolve(g, f)
        for lab in C.space.basis():
            x = C.comul.columns[lab]
            x = C.varsigma.apply(x)
            x = apply_at(f.values, x, 0)
            x = apply_at(g.values, x, 1)
            assert lhs(lab) == A.mul.apply(x)


def test_notation_119_commutative(sign_action):
    # cocommutative domain: the flagged subalgebra is commutative
    ctx = SweedlerContext(sign_action)
    rng = random.Random(13)
    basis = [ctx.cochain(2, v) for v in ctx.carrier(2)]
    for _ in range(8):
        f = random_combination(rng, basis)
        g = random_combination(rng, basis)
        assert convolve(f, g) == convolve(g, f)
