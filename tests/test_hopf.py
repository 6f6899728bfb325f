import pytest
from fractions import Fraction

from hopfcross.exact import Element, tensor
from hopfcross.hopf import (CheckResult, GroupSpec, InvalidGroup,
                            InvalidLieAlgebra, LieSpec, Report,
                            build_group_algebra, build_truncated_enveloping,
                            build_truncated_poly_hopf, check_item,
                            verify_antipode, verify_braided_bialgebra)


def test_group_spec_rejects_broken_table():
    with pytest.raises(InvalidGroup):
        GroupSpec(["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                               ("g", "e"): "g", ("g", "g"): "g"}, "e")


def test_lie_spec_rejects_jacobi_violation():
    with pytest.raises(InvalidLieAlgebra):
        LieSpec(3, {(0, 1): {0: 1}, (1, 2): {1: 1}, (0, 2): {0: 1, 2: 1}})


def test_group_algebra_grouplike_structure(z2):
    g = Element.basis_vector(z2.space, ("g1",))
    assert z2.comul.apply(g) == tensor(g, g)
    assert z2.antipode.apply(g) == g       # g^-1 = g in Z/2
    assert z2.counit.apply(g).scalar_value() == 1


def test_trivial_group_is_scalar_hopf():
    triv = build_group_algebra(GroupSpec.cyclic(1))
    assert triv.space.dim() == 1
    assert verify_braided_bialgebra(triv).ok


def test_s3_passes_all_axioms(s3):
    rep = verify_braided_bialgebra(s3)
    assert rep.ok, rep.summary()
    assert verify_antipode(s3).ok


def test_corrupted_table_fails_associativity():
    g = GroupSpec.cyclic(3)
    table = dict(g.table)
    table[("g1", "g1")] = "g1"          # corrupt one entry
    corrupt = GroupSpec.__new__(GroupSpec)
    corrupt.elements = g.elements
    corrupt.table = table
    corrupt.identity = g.identity
    h = build_group_algebra(corrupt)
    rep = verify_braided_bialgebra(h)
    assoc = next(c for c in rep.checks if c.name == "algebra.associativity")
    assert not assoc.passed
    assert assoc.failures              # witness triple reported


def test_poly_comul_binomial(poly24):
    H = poly24.space
    x1sq = Element.basis_vector(H, ((2, 0),))
    d = poly24.comul.apply(x1sq)
    assert d.coeffs == {((2, 0), (0, 0)): 1, ((1, 0), (1, 0)): 2,
                        ((0, 0), (2, 0)): 1}


def test_poly_counit_kills_positive_degree(poly24):
    assert poly24.counit_value((1, 1)) == 0
    assert poly24.counit_value((0, 0)) == 1


def test_poly_antipode_on_product(poly24):
    # oracle: S is an anti-homomorphism, S(ab) = S(b)S(a); on the commuting
    # primitives S(X1 X2) = (-X2)(-X1) = X1 X2
    H = poly24.space
    x1x2 = Element.basis_vector(H, ((1, 1),))
    assert poly24.antipode.apply(x1x2) == x1x2


def test_poly_axioms(poly24):
    rep = verify_braided_bialgebra(poly24)
    assert rep.ok, rep.summary()
    assert verify_antipode(poly24).ok


def test_abelian_enveloping_equals_polynomial():
    upoly = build_truncated_enveloping(LieSpec.abelian(2), 4)
    poly = build_truncated_poly_hopf(2, 4)
    assert upoly.mul.columns.keys() == poly.mul.columns.keys()
    for lab, col in poly.mul.columns.items():
        assert upoly.mul.columns[lab].coeffs == col.coeffs
    for lab, col in poly.comul.columns.items():
        assert upoly.comul.columns[lab].coeffs == col.coeffs


def test_heisenberg_straightening(heis5):
    H = heis5.space
    x = Element.basis_vector(H, ((1, 0, 0),))
    y = Element.basis_vector(H, ((0, 1, 0),))
    yx = heis5.multiply(y, x)
    assert yx.coeffs == {((1, 1, 0),): 1, ((0, 0, 1),): -1}   # xy - z


def test_heisenberg_comul_of_product(heis5):
    # oracle: Delta is multiplicative, Delta(xy) = Delta(x) Delta(y)
    H = heis5.space
    d = heis5.comul.apply(Element.basis_vector(H, ((1, 1, 0),)))
    assert d.coeffs == {
        ((1, 1, 0), (0, 0, 0)): 1, ((1, 0, 0), (0, 1, 0)): 1,
        ((0, 1, 0), (1, 0, 0)): 1, ((0, 0, 0), (1, 1, 0)): 1}


def test_heisenberg_axioms_small_budget():
    u = build_truncated_enveloping(LieSpec.heisenberg(), 3)
    rep = verify_braided_bialgebra(u)
    assert rep.ok, rep.summary()
    assert verify_antipode(u).ok


def test_corrupted_antipode_fails_with_witness():
    h = build_truncated_poly_hopf(1, 3)
    from hopfcross.exact import LinMap
    bad = LinMap.from_function(
        h.space, h.space, lambda lab: Element.basis_vector(h.space, lab))
    h.antipode = bad                     # S(X) = X instead of -X
    rep = verify_antipode(h)
    assert not rep.ok
    failing = [c for c in rep.checks if not c.passed]
    assert any(((1,),) in c.failures for c in failing)


def test_group_algebra_invariants(z3):
    # S^2 = id, eps o S = eps, grouplike count = |G|
    from hopfcross.exact import compose, LinMap
    S = z3.antipode
    assert compose(S, S) == LinMap.identity(z3.space)
    for lab in z3.space.basis():
        assert z3.counit.apply(S.apply(Element.basis_vector(z3.space, lab))) \
            == z3.counit.apply(Element.basis_vector(z3.space, lab))
    grouplikes = [lab for lab in z3.space.basis()
                  if z3.comul.apply(Element.basis_vector(z3.space, lab))
                  == tensor(Element.basis_vector(z3.space, lab),
                            Element.basis_vector(z3.space, lab))]
    assert len(grouplikes) == 3


def test_degree_preservation(poly24):
    H = poly24.space
    for lab in H.basis():
        d = poly24.comul.apply(Element.basis_vector(H, lab))
        for (u, v) in d.coeffs:
            assert sum(u) + sum(v) == sum(lab[0])


def test_flags_are_verified_not_asserted(z2):
    import copy
    wrong = copy.copy(z2)
    wrong.cocommutative = False          # lie about the flag
    rep = verify_braided_bialgebra(wrong)
    flag_check = next(c for c in rep.checks if c.name == "flags.cocommutative")
    assert not flag_check.passed


def test_a_check_result_is_not_a_bool():
    # a result read as a bool would pass every assert, failing or not
    for res in (CheckResult("c"), CheckResult("c", failures=["w"])):
        with pytest.raises(TypeError):
            bool(res)
        with pytest.raises(TypeError):
            assert res


def test_check_item_prints_the_line_of_a_hand_built_result():
    report = Report()
    ok = check_item(report, "single.ok")
    bad = check_item(report, "single.bad", "u(1) != 1")
    assert report.checks == [ok, bad]
    assert ok.line() == CheckResult("single.ok", checked=1).line()
    assert bad.line() == CheckResult("single.bad", checked=1,
                                     failures=["u(1) != 1"]).line()
    assert "PASS (1 checked)" in ok.line()
    assert "FAIL (1 checked) witness='u(1) != 1'" in bad.line()
    assert not report.ok
