import os
import random
import re

import pytest
from fractions import Fraction

from hopfcross.exact import (ColumnOverflow, Element, LinMap,
                             TruncationOverflow, add_into, apply_at)
from hopfcross.hopf import build_truncated_poly_hopf
from hopfcross.actions import (AlgebraData, braid_is_flip, example_entwining,
                               poly_algebra, tensor_power_coalgebra,
                               trivial_module_algebra)
from hopfcross.convolution import (ConvMap, NotConvolutionInvertible,
                                   conv_equal, conv_inverse, conv_unit,
                                   convolve, is_h_linear, is_psi_central,
                                   is_psi_compatible, is_s_compatible,
                                   support_profile, transfer_TAC,
                                   transfer_TAC_inverse)
from hopfcross.sweedler import SweedlerContext, codegeneracy, coface
from hopfcross.workbench import WorkbenchSpec, build_instance

from sampling import random_combination
from test_actions import _degree_raising_hopf, _scaled_flip_hopf


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


def _inverse_by_convmap_sums(f):
    """The graded-connected inverse with its geometric series summed by
    ConvMap addition: u^-1 (sum (e - u^-1 f)^{*i}) to the top degree, u the
    degree-0 value; the reference for `conv_inverse`'s columns."""
    C, A = f.coalgebra, f.algebra
    unit_lab = next(lab for lab in C.space.basis()
                    if C.space.degree(lab) == 0)
    u_inv = A.element_inverse(f(unit_lab))
    e = conv_unit(C, A)
    delta = e - ConvMap(C, A, LinMap(C.space, A.space, {
        lab: A.multiply(u_inv, col) for lab, col in f.values.columns.items()}))
    acc, term = e, e
    for _ in range(max(C.space.degree(lab) for lab in C.space.basis())):
        term = convolve(term, delta)
        if term.is_zero():
            break
        acc = acc + term
    return {lab: A.multiply(col, u_inv)
            for lab, col in acc.values.columns.items()}


def _random_invertible_cochain(rng, C, A):
    """A non-normalized cochain with an invertible scalar (not 1) at the
    degree-0 label and values of degree at most the label's elsewhere,
    scalar slots included."""
    cols = {}
    for lab in C.space.basis():
        deg = C.space.degree(lab)
        if deg == 0:
            cols[lab] = Fraction(rng.choice([-3, -2, 2, 3]),
                                 rng.randint(1, 3)) * A.unit
        else:
            cols[lab] = Element(A.space, {
                (d,): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for d in range(deg + 1) if rng.random() < 0.4})
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def _reference_convolve(f, g):
    """mul o (f (x) g) o Delta column by column, on the stored columns of
    the comul map of `tensor_power_coalgebra`: the reference for the
    walked `convolve`."""
    C = f.coalgebra
    comul = tensor_power_coalgebra(C.hopf, C.space.arity).comul

    def column(lab):
        x = apply_at(f.values, comul.columns[lab], 0)
        x = apply_at(g.values, x, 1)
        return f.algebra.mul.apply(x)

    return LinMap.from_function(C.space, f.algebra.space, column, partial=True)


def _random_cochain(rng, C, A, rise=0, gaps=False):
    """Values of degree up to deg c + rise on each label c (any value off a
    graded A), a label whose value would leave A's budget being absent;
    with gaps, some other labels are absent too."""
    def fn(lab):
        if gaps and rng.random() < 0.2:
            raise TruncationOverflow("no value at %r" % (lab,))
        top = C.space.degree(lab) + rise
        if A.space.budget is not None and top > A.space.budget:
            raise TruncationOverflow("value at %r past the budget" % (lab,))
        vals = [a for a in A.space.basis() if A.space.degree(a) <= top]
        return Element(A.space, {a: Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2))
                                 for a in vals if rng.random() < 0.5})
    f = ConvMap.from_function(C, A, fn, partial=True)
    list(f.values.columns)
    return f


def _columns_and_absent(m):
    """Each label's column of the map m as its ordered terms, None where it
    is absent."""
    out = []
    for lab in m.domain.basis():
        col = m.columns.get(lab)
        out.append((lab, None if col is None else list(col.coeffs.items())))
    return out


def _assert_walked_convolve_matches_reference(C, A, rng):
    cochains = [_random_cochain(rng, C, A), _random_cochain(rng, C, A),
                _random_cochain(rng, C, A, rise=1, gaps=True)]
    absent = 0
    for f in cochains:
        for g in cochains:
            got = _columns_and_absent(convolve(f, g).values)
            assert got == _columns_and_absent(_reference_convolve(f, g))
            absent += sum(col is None for _, col in got)
    return absent


def _fixture_ctx(name, budget):
    spec = WorkbenchSpec.load(os.path.join(os.path.dirname(__file__), "..",
                                           "fixtures", name + ".json"))
    spec.set_budget(budget)
    return SweedlerContext(build_instance(spec).mad)


def _fixture_domain(name, budget, n):
    ctx = _fixture_ctx(name, budget)
    return ctx.domain(n), ctx.mad.algebra


@pytest.mark.parametrize("budget", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["case2_beta1_Y", "case3a", "case1a_q2"])
def test_walked_convolve_matches_the_stored_coproduct(name, n, budget):
    C, A = _fixture_domain(name, budget, n)
    rng = random.Random(budget * 10 + n + len(name))
    # the cochain that raises degree leaves the budget at the top labels
    assert _assert_walked_convolve_matches_reference(C, A, rng) > 0


@pytest.mark.parametrize("n", [2, 3])
def test_walked_convolve_matches_on_grouplike_and_non_flip_powers(
        z3, dual_numbers, n):
    rng = random.Random(n)
    _assert_walked_convolve_matches_reference(
        tensor_power_coalgebra(z3, n), dual_numbers, rng)
    h = _scaled_flip_hopf(2, 4)
    assert not braid_is_flip(h)
    assert _assert_walked_convolve_matches_reference(
        tensor_power_coalgebra(h, n), poly_algebra(4), rng) > 0


def test_walked_convolve_raises_where_the_coproduct_leaves_the_budget():
    # a coproduct term past the budget is a defect of Delta: the column
    # raises ColumnOverflow, as reading the stored column does, and is
    # never counted as absent
    h = _degree_raising_hopf(3)
    C, A = tensor_power_coalgebra(h, 2), poly_algebra(3)
    f = _random_cochain(random.Random(0), C, A)
    conv, comul = convolve(f, f), tensor_power_coalgebra(h, 2).comul
    raised = 0
    for lab in C.space.basis():
        try:
            comul.columns[lab]
        except ColumnOverflow as exc:
            with pytest.raises(ColumnOverflow, match=re.escape(str(exc))):
                conv.values.columns.get(lab)
            raised += 1
    assert raised > 0


# ---------------------------------------------------------------------------
# the pruned convolution against one that reads every term of Delta

def _full_walk_convolve(f, g):
    """mul o (f (x) g) o Delta on every term of the walked Delta: the
    reference for `convolve`, which reads only the terms its factors'
    supports keep."""
    C = f.coalgebra

    def column(lab):
        x = apply_at(f.values, C.comul_column(lab), 0)
        x = apply_at(g.values, x, 1)
        return f.algebra.mul.apply(x)

    return LinMap.from_function(C.space, f.algebra.space, column, partial=True)


def _count_terms(monkeypatch, C):
    """The coproduct terms read on C from now on, one entry per column."""
    counts = []
    walk = C._walk

    def counted(lab, keep=None):
        col = walk(lab, keep)
        counts.append(len(col.coeffs))
        return col

    monkeypatch.setattr(C, "_walk", counted)
    return counts


def _assert_pruned_matches_full(monkeypatch, pairs):
    """Each pair (f, g) convolves as on every term of Delta: the same
    absent columns, values and coefficient order.  Returns the coproduct
    terms the pruned and the full products read."""
    counts = _count_terms(monkeypatch, pairs[0][0].coalgebra)
    pruned = full = 0
    for f, g in pairs:
        start = len(counts)
        got = _columns_and_absent(convolve(f, g).values)
        mid = len(counts)
        assert got == _columns_and_absent(_full_walk_convolve(f, g))
        pruned += sum(counts[start:mid])
        full += sum(counts[mid:])
    return pruned, full


def _carrier_cochain(ctx, n, rng):
    vec = {}
    for v in ctx.carrier(n):
        add_into(vec, v, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return ctx.cochain(n, vec)


@pytest.mark.parametrize("budget", [4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["case2_beta1_Y", "case3a"])
def test_pruned_convolve_matches_the_full_walk_on_carrier_cochains(
        monkeypatch, name, n, budget):
    ctx = _fixture_ctx(name, budget)
    rng = random.Random(budget * 10 + n)
    f, g = _carrier_cochain(ctx, n, rng), _carrier_cochain(ctx, n, rng)
    e = ctx.unit_cochain(n)
    # carrier cochains are bounded, so both rules drop terms
    assert support_profile(f)[1] and support_profile(g)[1]
    pruned, full = _assert_pruned_matches_full(
        monkeypatch, [(f, g), (g, f), (e, f), (f, e), (e, e), (f - e, g)])
    assert pruned < full


def test_pruned_convolve_matches_with_a_factor_that_is_not_bounded(
        monkeypatch):
    # f(1 (x) 1) = 1 + Y has degree above its label's: g's zeros cannot
    # drop a term after f, since its budget check could still raise
    from hopfcross.workbench import cocycle_from_doc
    ctx = _fixture_ctx("case2_beta1_Y", 5)
    f = cocycle_from_doc(ctx, {"kind": "table",
                               "values": {"0,0|0,0": {"0": "1", "1": "1"}}})
    list(f.values.columns)
    assert not support_profile(f)[1]
    g = _carrier_cochain(ctx, 2, random.Random(5))
    _assert_pruned_matches_full(monkeypatch, [(f, g), (g, f), (f, f)])


def test_pruned_convolve_builds_no_unread_column_of_a_total_factor():
    # the total map raises ColumnOverflow at X^2; Delta(X) never reads it
    h = build_truncated_poly_hopf(1, 3)
    C, A = tensor_power_coalgebra(h, 1), poly_algebra(3)

    def fn(lab):
        if lab == ((2,),):
            raise TruncationOverflow("no value at X^2")
        return A.unit

    f = ConvMap.from_function(C, A, fn)
    assert convolve(f, f)(((1,),)).coeffs == {(0,): 2}
    assert not support_profile(f)[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_convolve_matches_on_partial_factors_with_absent_columns(
        monkeypatch, n):
    C, A = _fixture_domain("case3a", 5, n)
    rng = random.Random(n)
    f = _random_cochain(rng, C, A, rise=1, gaps=True)
    g = _random_cochain(rng, C, A)
    assert any(lab not in f.values.columns for lab in C.space.basis())
    _assert_pruned_matches_full(monkeypatch, [(f, g), (g, f), (f, f)])


def _zeroed(f, drop):
    """f with its columns at the labels drop(lab) names set to zero."""
    C, A = f.coalgebra, f.algebra
    return ConvMap(C, A, LinMap(C.space, A.space, {
        lab: Element.zero(A.space) if drop(lab) else col
        for lab, col in f.values.columns.items()}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_convolve_matches_on_grouplike_powers(monkeypatch, z3,
                                                     dual_numbers, n):
    C = tensor_power_coalgebra(z3, n)
    rng = random.Random(n)
    first = C.space.slots[0].labels[0]
    f, g = (_zeroed(_random_cochain(rng, C, dual_numbers),
                    lambda lab: lab[0] == first) for _ in range(2))
    e = conv_unit(C, dual_numbers)
    pruned, full = _assert_pruned_matches_full(
        monkeypatch, [(f, g), (g, f), (e, f), (f, e)])
    assert pruned < full


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [2, -1])
def test_pruned_convolve_matches_on_non_flip_braids(monkeypatch, q, n):
    h = _scaled_flip_hopf(q, 4)
    assert not braid_is_flip(h)
    C, A = tensor_power_coalgebra(h, n), poly_algebra(4)
    rng = random.Random(n)
    f, g = (_zeroed(_random_cochain(rng, C, A),
                    lambda lab: C.space.min_slot_degree(lab) == 0)
            for _ in range(2))
    e = conv_unit(C, A)
    pruned, full = _assert_pruned_matches_full(
        monkeypatch, [(f, g), (g, f), (e, f), (f, e),
                      (_random_cochain(rng, C, A, rise=1, gaps=True), f)])
    assert pruned < full


def test_pruned_convolve_matches_on_0_cochains(monkeypatch):
    ctx = _fixture_ctx("case2_beta1_Y", 4)
    C, A = ctx.domain(0), ctx.mad.algebra
    y = Element.basis_vector(A.space, (1,))

    def cochain(value):
        return ConvMap(C, A, LinMap(C.space, A.space, {(): value}))

    f, g, z = cochain(A.unit + 2 * y), cochain(3 * y), cochain(0 * y)
    # the empty label's one prefix is the empty one
    assert support_profile(f)[0] == {()} and not support_profile(f)[1]
    assert support_profile(z)[0] == frozenset()
    # A's budget is not that of k, so no 0-cochain over it is bounded
    e = ctx.unit_cochain(0)
    assert not support_profile(e)[1]
    _assert_pruned_matches_full(
        monkeypatch, [(f, g), (g, f), (e, f), (f, e), (z, f), (f, z), (e, e)])
    assert convolve(f, g)(()) == A.multiply(A.unit + 2 * y, 3 * y)


@pytest.mark.parametrize("name", ["case2_beta1_Y", "case3a"])
@pytest.mark.parametrize("n", [1, 2])
def test_conv_inverse_of_random_graded_cochains(name, n):
    C, A = _fixture_domain(name, 4, n)
    e = conv_unit(C, A)
    rng = random.Random(100 * n + len(name))
    for _ in range(3):
        f = _random_invertible_cochain(rng, C, A)
        inv = conv_inverse(f)
        for side in (convolve(f, inv), convolve(inv, f)):
            res = conv_equal(side, e)
            assert res.passed and res.skipped == 0
        assert inv.values.columns == _inverse_by_convmap_sums(f)


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
    # iota_0 = sigma^0 takes the unit on H to the constant-1 map on k
    ctx = SweedlerContext(sign_action)
    e = conv_unit(ctx.domain(1), sign_action.algebra)
    assert codegeneracy(ctx, 0, e)(()).coeffs == {("1",): 1}


def test_iota_centrality_equivalence(z3_graded):
    # iota_n = sigma^0 is a bijection from the H-linear maps on H^(n+1) onto
    # the maps on H^n, with inverse delta^0 (the H-linear extension
    # h0 (x) x -> h0 . g(x)); brute force both centrality predicates across
    # it on H^2, where the graded transposition makes centrality a real
    # condition (inversion invariance)
    mad = z3_graded
    ctx = SweedlerContext(mad)
    C1 = ctx.domain(1)
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
        f = coface(ctx, 0, g)               # H-linear map on H^2
        assert is_h_linear(f, mad, ctx.domain(2).rho).passed
        assert all(codegeneracy(ctx, 0, f)(l) == g(l) for l in C1.space.basis())
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
