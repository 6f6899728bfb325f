import itertools
import random
from collections import Counter

import pytest
from fractions import Fraction
from math import comb

from hopfcross.exact import (ColumnOverflow, Element, LinMap, Slot, Space,
                             TruncationOverflow, chain, slot_permutation,
                             tensor)
from hopfcross.hopf import (GroupSpec, HopfData, build_group_algebra,
                            build_truncated_poly_hopf, flip_braid)
from hopfcross.actions import (AlgebraData, InvalidAction, InvalidGradation,
                               braid_cross, braid_is_flip, braid_shuffle,
                               braid_word,
                               build_graded_transposition,
                               build_poly_action, example_entwining,
                               graded_module_algebra, tensor_power_coalgebra,
                               tensor_power_comul_shuffled,
                               trivial_module_algebra, verify_entwining,
                               verify_module_algebra, verify_module_coalgebra,
                               PolyActionSpec, check_poly_action_validity)
from hopfcross.exact import apply_at


def test_braid_cross_base_case(z2):
    assert braid_cross(1, 1, z2) == z2.braid


def test_braid_cross_c12_flip(z2):
    c12 = braid_cross(1, 2, z2)
    H3 = z2.power(3)
    out = c12.apply(Element.basis_vector(H3, ("g1", "e", "g1")))
    assert out.coeffs == {("e", "g1", "g1"): 1}


def test_braid_cross_c22_is_block_transposition(z2):
    # oracle: compose the recursion and compare against the explicit
    # permutation (13)(24) on four slots
    c22 = braid_cross(2, 2, z2)
    H4 = z2.power(4)
    for lab in H4.basis():
        out = c22.apply(Element.basis_vector(H4, lab))
        want = (lab[2], lab[3], lab[0], lab[1])
        assert out.coeffs == {want: 1}


def test_braid_shuffle_base(z2):
    assert braid_shuffle(1, z2) == z2.braid


def test_braid_shuffle_sc2_flip():
    # oracle: expand the recursion sc_2 = (H (x) c (x) H) o (c (x) c) for the
    # flip; it carries the odd-position entries to the right:
    # (a, b, c, d) -> (b, d, a, c)
    h = build_truncated_poly_hopf(2, 6)
    sc2 = braid_shuffle(2, h)
    H4 = h.power(4)
    lab = ((1, 0), (0, 1), (1, 1), (2, 0))
    out = sc2.apply(Element.basis_vector(H4, lab))
    assert out.coeffs == {((0, 1), (2, 0), (1, 0), (1, 1)): 1}


def test_braid_shuffle_sc3_flip(z2):
    # oracle: brute-force the recursion; on six slots the odd-position
    # entries move right past the even-position blocks:
    # (h1..h6) -> (h2, h4, h6, h1, h3, h5)
    sc3 = braid_shuffle(3, z2)
    H6 = z2.power(6)
    for lab in itertools.islice(H6.basis(), 16):
        out = sc3.apply(Element.basis_vector(H6, lab))
        want = (lab[1], lab[3], lab[5], lab[0], lab[2], lab[4])
        assert out.coeffs == {want: 1}


def test_braid_cross_invertible(z2):
    from hopfcross.exact import invert_linmap, compose, LinMap
    c12 = braid_cross(1, 2, z2)
    inv = invert_linmap(c12)
    assert compose(inv, c12) == LinMap.identity(c12.domain)


# ---------------------------------------------------------------------------
# the braid words against the defining recursions (Notations 1.9)


FLIP_INSTANCES = [
    pytest.param(lambda: build_group_algebra(GroupSpec.cyclic(3)), id="kZ3"),
    pytest.param(lambda: build_truncated_poly_hopf(2, 3), id="kX1X2-N3"),
    pytest.param(lambda: build_truncated_poly_hopf(2, 4), id="kX1X2-N4"),
]


def _composite(space, steps):
    """The composite on space of the (map, slot) steps, first step first,
    each applied to the image of a basis vector by apply_at."""
    def col(lab):
        x = Element.basis_vector(space, lab)
        for f, at in steps:
            x = apply_at(f, x, at)
        return x

    return LinMap.from_function(space, space, col)


@pytest.mark.parametrize("build", FLIP_INSTANCES + [
    pytest.param(lambda: _scaled_flip_hopf(2, 3), id="kX-q2"),
    pytest.param(lambda: _scaled_flip_hopf(-1, 3), id="kX-q-1"),
])
def test_braid_words_satisfy_the_recursions(build):
    h = build()
    c = h.braid
    assert braid_cross(1, 1, h) is c and braid_shuffle(1, h) is c
    for n in (2, 3, 4):
        # c^1_n = (H (x) c^1_{n-1}) o (c (x) H^{n-1})
        assert braid_cross(1, n, h) == _composite(
            h.power(n + 1), [(c, 0), (braid_cross(1, n - 1, h), 1)]), n
    for m, n in itertools.product((2, 3), (1, 2, 3)):
        # c^m_n = (c^{m-1}_n (x) H) o (H^{m-1} (x) c^1_n)
        assert braid_cross(m, n, h) == _composite(
            h.power(m + n), [(braid_cross(1, n, h), m - 1),
                             (braid_cross(m - 1, n, h), 0)]), (m, n)
    for n in (2, 3):
        # sc_n = (H (x) sc_{n-1} (x) H) o (c (x) ... (x) c)
        want = _composite(h.power(2 * n), [(c, 2 * i) for i in range(n)]
                          + [(braid_shuffle(n - 1, h), 1)])
        assert braid_shuffle(n, h) == want, n


@pytest.mark.parametrize("build", FLIP_INSTANCES)
def test_flip_braid_word_is_the_chain_of_its_crossings(build):
    rng = random.Random(30)
    h = build()
    for _ in range(12):
        slots = rng.randint(2, 4)
        word = [rng.randrange(slots - 1) for _ in range(rng.randint(0, 6))]
        space = h.power(slots)
        assert braid_word(h, slots, word) == \
            chain(space, space, [(h.braid, p) for p in word]), (slots, word)


@pytest.mark.parametrize("build", FLIP_INSTANCES)
def test_direct_comul_matches_shuffled_construction(build):
    h = build()
    for n in (1, 2, 3):
        direct = tensor_power_coalgebra(h, n).comul
        ref = tensor_power_comul_shuffled(h, n)
        assert direct == ref, n
        # same terms in the same order, so downstream sums are unchanged
        for lab, col in ref.columns.items():
            assert list(direct.columns[lab].coeffs) == list(col.coeffs)


def _reference_tensor_power_comul(h, n):
    """The flip-braid H^n comultiplication built with a budget check on every
    coproduct combination and generator expressions for the label halves."""
    C = h.power(n)
    CC = C.tensor(C)
    budget = CC.budget
    H2 = h.comul.codomain
    parts = {lab[0]: [(pair, None if c == 1 else c, H2.degree(pair))
                      for pair, c in col.coeffs.items()]
             for lab, col in h.comul.columns.items()}

    def col(lab):
        factors = []
        for atom in reversed(lab):
            terms = parts.get(atom)
            if terms is None:
                raise TruncationOverflow("no column for %r" % ((atom,),))
            factors.append(terms)
        out = {}
        for combo in itertools.product(*factors):
            combo = combo[::-1]
            if budget is not None and sum(t[2] for t in combo) > budget:
                raise TruncationOverflow("label exceeds budget")
            coeff = None
            for _, c, _ in combo:
                if c is not None:
                    coeff = c if coeff is None else coeff * c
            out[tuple(t[0][0] for t in combo)
                + tuple(t[0][1] for t in combo)] = \
                Fraction(1) if coeff is None else coeff
        return Element(CC, out, validate=False)

    return LinMap.from_function(C, CC, col)


def _column_outcomes(f):
    """Each column of f in basis order, or the type and message it raised."""
    out = []
    for lab in f.domain.basis():
        try:
            col = f.columns[lab]
            out.append((lab, col, list(col.coeffs.items())))
        except Exception as exc:
            out.append((lab, type(exc), str(exc)))
    return out


@pytest.mark.parametrize("budget", [4, 5, 6])
@pytest.mark.parametrize("n", [2, 3])
def test_direct_comul_matches_its_reference_builder(n, budget):
    h = build_truncated_poly_hopf(2, budget)
    direct = tensor_power_coalgebra(h, n).comul
    assert _column_outcomes(direct) == \
        _column_outcomes(_reference_tensor_power_comul(h, n))
    assert direct == tensor_power_comul_shuffled(h, n)


def _degree_raising_hopf(budget):
    """A flip-braided space whose coproduct sends the degree-1 atom to a
    pair of degree 2, so some H^n columns leave the budget."""
    space = Space((Slot("G", (0, 1), {0: 0, 1: 1}),), budget)
    H2 = space.tensor(space)
    comul = LinMap.from_function(space, H2, lambda lab: Element.basis_vector(
        H2, lab + lab, 3 if lab == (1,) else 1))
    return HopfData("degree raising", space, None, None, comul, None,
                    braid=flip_braid(space))


@pytest.mark.parametrize("n,budget", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_direct_comul_raises_where_its_reference_builder_raises(n, budget):
    h = _degree_raising_hopf(budget)
    got = _column_outcomes(tensor_power_coalgebra(h, n).comul)
    assert got == _column_outcomes(_reference_tensor_power_comul(h, n))
    assert any(out[1] is ColumnOverflow for out in got)


def test_braid_is_flip_decides_without_building_a_flip(monkeypatch):
    import hopfcross.actions as actions
    import hopfcross.hopf as hopf
    flips = [build() for build in (p.values[0] for p in FLIP_INSTANCES)]
    others = [_scaled_flip_hopf(q, 3) for q in (2, -1)]
    # the flip's columns with one more outside the basis, or with one of
    # them moved outside it, are not the flip
    h = build_truncated_poly_hopf(2, 3)
    H2 = h.space.tensor(h.space)
    for drop in (False, True):
        cols = {lab: Element.basis_vector(H2, lab[::-1])
                for lab in H2.basis()}
        if drop:
            del cols[((1, 0), (0, 1))]
        cols[((9, 9), (9, 9))] = Element.zero(H2)
        others.append(HopfData("flip with a column outside", h.space, h.mul,
                               h.unit, h.comul, h.counit, h.antipode,
                               LinMap(H2, H2, cols)))

    def no_flip(space):
        raise AssertionError("flip_braid was called")

    monkeypatch.setattr(hopf, "flip_braid", no_flip)
    monkeypatch.setattr(actions, "flip_braid", no_flip, raising=False)
    assert [braid_is_flip(h) for h in flips] == [True] * len(flips)
    assert [braid_is_flip(h) for h in others] == [False] * len(others)


def _scaled_flip_hopf(q, N):
    """Graded k[X] with the braid c(x (x) y) = q^{|x||y|} y (x) x."""
    h = build_truncated_poly_hopf(1, N)
    H2 = h.space.tensor(h.space)

    def col(lab):
        x, y = lab
        return Element.basis_vector(H2, (y, x),
                                    Fraction(q) ** (sum(x) * sum(y)))

    braid = LinMap.from_function(H2, H2, col)
    return HopfData("k[X] scaled flip", h.space, h.mul, h.unit, h.comul,
                    h.counit, h.antipode, braid, cocommutative=True,
                    involutive_braid=q * q == 1)


# q = -1 gives an involutive braid that is not the flip
@pytest.mark.parametrize("q", [2, -1])
def test_non_flip_braid_goes_through_the_recursion(q):
    # closed form: c^m_n = q^{(sum |x_i|)(sum |y_j|)} times the block swap
    h = _scaled_flip_hopf(q, 3)
    assert not braid_is_flip(h)
    for m, n in itertools.product((1, 2, 3), repeat=2):
        dom = h.power(m + n)

        def closed(lab, m=m, dom=dom):
            xs, ys = lab[:m], lab[m:]
            scale = Fraction(q) ** (sum(map(sum, xs)) * sum(map(sum, ys)))
            return Element.basis_vector(dom, ys + xs, scale)

        assert braid_cross(m, n, h) == LinMap.from_function(dom, dom, closed)


def test_tensor_powers_share_maps_but_not_attributes(poly24):
    a = tensor_power_coalgebra(poly24, 2)
    b = tensor_power_coalgebra(poly24, 2)
    assert a is not b
    assert a.comul is b.comul and a.s is b.s and a.rho is b.rho
    a.kind = "other"
    assert b.kind == "graded_connected"
    assert tensor_power_coalgebra(poly24, 2).kind == "graded_connected"
    # varsigma is built on first read, once, and equals c^2_2
    assert a.varsigma is b.varsigma
    assert a.varsigma == slot_permutation(poly24.power(4), (2, 3, 0, 1))


def test_varsigma_is_built_on_first_read(monkeypatch):
    import hopfcross.actions as actions
    calls = []
    real = actions.braid_cross

    def counting(m, n, h):
        calls.append((m, n))
        return real(m, n, h)

    monkeypatch.setattr(actions, "braid_cross", counting)
    h = build_truncated_poly_hopf(2, 3)
    C = tensor_power_coalgebra(h, 2)
    assert (2, 2) not in calls
    assert C.varsigma == slot_permutation(h.power(4), (2, 3, 0, 1))
    assert tensor_power_coalgebra(h, 2).varsigma is C.varsigma
    assert calls.count((2, 2)) == 1


def test_tensor_power_n1_recovers_h(z2):
    tp = tensor_power_coalgebra(z2, 1)
    assert tp.comul == z2.comul
    assert tp.s == z2.braid


def test_tensor_power_grouplike(z2):
    tp = tensor_power_coalgebra(z2, 2)
    gg = Element.basis_vector(tp.space, ("g1", "g1"))
    assert tp.comul.apply(gg) == tensor(gg, gg)


def test_tensor_power_poly_expansion():
    # oracle: expand (H (x) flip (x) H)(Delta (x) Delta) by hand
    h = build_truncated_poly_hopf(2, 4)
    tp = tensor_power_coalgebra(h, 2)
    d = tp.comul.apply(Element.basis_vector(tp.space, ((1, 0), (0, 1))))
    o = (0, 0)
    assert d.coeffs == {
        ((1, 0), (0, 1), o, o): 1, ((1, 0), o, o, (0, 1)): 1,
        (o, (0, 1), (1, 0), o): 1, (o, o, (1, 0), (0, 1)): 1}


def test_tensor_power_is_module_coalgebra(z3):
    rep = verify_module_coalgebra(tensor_power_coalgebra(z3, 2))
    assert rep.ok, rep.summary()


def test_example_closing_identity(z2):
    # the compatibility between c^n_n and c^1_n on sampled labels
    n = 2
    c1n = braid_cross(1, n, z2)
    cnn = braid_cross(n, n, z2)
    H5 = z2.power(2 * n + 1)
    for lab in itertools.islice(H5.basis(), 12):
        x = Element.basis_vector(H5, lab)
        lhs = apply_at(cnn, apply_at(c1n, apply_at(c1n, x, 0), n), 0)
        rhs = apply_at(c1n, apply_at(c1n, apply_at(cnn, x, 1), 0), n)
        assert lhs == rhs


def test_trivial_action_passes(z2, dual_numbers):
    rep = verify_module_algebra(trivial_module_algebra(z2, dual_numbers))
    assert rep.ok, rep.summary()


def test_sign_action_passes(sign_action):
    rep = verify_module_algebra(sign_action)
    assert rep.ok, rep.summary()


def test_poly_action_case2_passes(case2_beta_y):
    rep = verify_module_algebra(case2_beta_y)
    assert rep.ok, rep.summary()


def test_poly_action_eq4_violation_detected():
    # beta operators that do not commute: the construction refuses them, and
    # bypassing validation the module-algebra suite pinpoints the action axiom
    with pytest.raises(InvalidAction) as err:
        build_poly_action([[1, 0], [0, 1]], [0, 1], [1], 4)
    assert err.value.equation == "eq12"
    mad = build_poly_action([[1, 0], [0, 1]], [0, 1], [1], 4, validate=False)
    rep = verify_module_algebra(mad)
    assoc = next(c for c in rep.checks if c.name == "module.action_associative")
    assert not assoc.passed and assoc.failures


def test_poly_action_eq11_violation():
    with pytest.raises(InvalidAction) as err:
        build_poly_action([[2, 0], [0, Fraction(1, 2)]], [0, 0, 1], [0], 5)
    assert err.value.equation == "eq11"


def test_poly_action_beta2_only_is_valid():
    mad = build_poly_action([[1, 0], [0, 1]], [0], [0, 0, 3], 5)
    assert verify_module_algebra(mad, budget=4).ok


def test_poly_action_case3_shape():
    # order-2 Q: beta supported on exponents 1 mod 2 only
    build_poly_action([[-1, 0], [0, -1]], [0, 1, 0, Fraction(1, 2)], [0], 5)
    with pytest.raises(InvalidAction) as err:
        build_poly_action([[-1, 0], [0, -1]], [0, 0, 1], [0], 5)
    assert err.value.equation == "eq11"


def test_poly_action_case3b_eq13():
    # q2 = 1: beta1 nonlinear forces beta2 = 0
    with pytest.raises(InvalidAction) as err:
        build_poly_action([[-1, 0], [0, 1]], [0, 0, 0, 1], [0, 1], 5)
    assert err.value.equation == "eq13"


def test_validity_outcomes_over_a_grid_of_actions():
    # every outcome of the eq10-eq13 analysis over nine Q (identity, the
    # diagonal orders 2 and 4 sign patterns, infinite-order diagonals, two
    # Jordan blocks and a rotation of order 4) and all 0/1 betas of length 4
    half = Fraction(1, 2)
    qs = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[-1, 0], [0, 1]],
          [[1, 0], [0, -1]], [[2, 0], [0, half]], [[2, 0], [0, 3]],
          [[2, 1], [0, 2]], [[-1, 1], [0, -1]], [[0, -1], [1, 0]]]
    betas = list(itertools.product((0, 1), repeat=4))
    outcomes = Counter()
    for Q, b1, b2 in itertools.product(qs, betas, betas):
        try:
            check_poly_action_validity(PolyActionSpec(Q, b1, b2))
            outcomes["valid"] += 1
        except InvalidAction as exc:
            outcomes[str(exc)] += 1
    assert outcomes == {
        "eq11 violated: Q^-1 != ide but beta coefficient 0 nonzero": 1536,
        "eq11 violated: Q^1 != ide but beta coefficient 2 nonzero": 384,
        "eq11 violated: Q^2 != ide but beta coefficient 3 nonzero": 60,
        "eq12 violated: beta operators do not commute (r=1)": 96,
        "eq12 violated: beta operators do not commute (r=2)": 48,
        "eq12 violated: beta operators do not commute (r=3)": 48,
        "eq12 violated: beta operators do not commute (r=4)": 12,
        "eq12 violated: beta operators do not commute (r=5)": 6,
        "eq13 violated: beta_1 nonlinear while beta_2 nonzero": 6,
        "eq13 violated: beta_2 nonlinear while beta_1 nonzero": 6,
        "valid": 102,
    }


def test_eq9_against_leibniz_expansion():
    # regression: the closed extension formula equals a term-by-term
    # expansion of the twisted Leibniz rule beta(ab) = beta(a)b + alpha(a)beta(b)
    mad = build_poly_action([[2, 0], [0, Fraction(1, 2)]], [0, 3], [0, 5], 6)
    spec = mad.poly_spec
    A = mad.algebra
    h = mad.hopf

    def beta_direct(l, n):
        # fold beta over Y^n = Y * Y^{n-1} using the Leibniz rule
        if n == 0:
            return {}
        if n == 1:
            return {u: c for u, c in enumerate(spec.beta[l]) if c}
        prev = beta_direct(l, n - 1)
        out = {}
        for u, c in enumerate(spec.beta[l]):
            if c:
                out[u + n - 1] = out.get(u + n - 1, Fraction(0)) + c
        alpha_y = spec.Q[l][l]  # diagonal Q: alpha_l^l(Y) = q_l Y
        # alpha(Y) beta_l(Y^{n-1}) with diagonal Q contributes q_l * shift
        for u, c in prev.items():
            out[u + 1] = out.get(u + 1, Fraction(0)) + spec.Q[l][l] * c
        return {u: c for u, c in out.items() if c}

    for n in range(1, 5):
        for l in range(2):
            gen = (1, 0) if l == 0 else (0, 1)
            val = mad.rho.columns.get((gen, n))
            if val is None:
                continue
            got = {lab[0]: c for lab, c in val.coeffs.items()}
            want = beta_direct(l, n)
            assert got == want, (l, n, got, want)
    assert mad.rho.columns[((0, 0), 0)] == A.unit  # beta-bar(1) = 0 part


def test_graded_transposition_identity_component_is_flip(z3, dual_numbers):
    g3 = GroupSpec.cyclic(3)
    autos = {"id": {e: e for e in g3.elements}}
    h, s = build_graded_transposition(
        g3, dual_numbers, {"1": "id", "t": "id"}, autos)
    HV = h.space.tensor(dual_numbers.space)
    for lab in HV.basis():
        out = s.apply(Element.basis_vector(HV, lab))
        assert out.coeffs == {(lab[1], lab[0]): 1}


def test_graded_transposition_inversion(z3_graded):
    mad = z3_graded
    st = mad.s.apply(tensor(Element.basis_vector(mad.hopf.space, ("g1",)),
                            Element.basis_vector(mad.algebra.space, ("t",))))
    assert st.coeffs == {("t", "g2"): 1}          # s(g (x) t) = t (x) g^-1
    assert verify_module_algebra(mad).ok


def test_graded_transposition_rejects_bad_grading():
    # t*t = 1 makes the inversion grading non-multiplicative
    bad = AlgebraData.from_table(
        "kt", ["1", "t"],
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
         ("t", "1"): {"t": 1}, ("t", "t"): {"t": 1}},
        "1")
    g3 = GroupSpec.cyclic(3)
    autos = {"id": {e: e for e in g3.elements},
             "inv": {e: g3.inverse(e) for e in g3.elements}}
    with pytest.raises(InvalidGradation):
        build_graded_transposition(g3, bad, {"1": "id", "t": "inv"}, autos)


def test_entwining_flip_passes(z2, dual_numbers):
    mad = trivial_module_algebra(z2, dual_numbers)
    rep = verify_entwining(example_entwining(mad, 1))
    assert rep.ok, rep.summary()


def test_entwining_power_two(sign_action):
    rep = verify_entwining(example_entwining(sign_action, 2))
    assert rep.ok, rep.summary()


def test_entwining_negative_control(z2, dual_numbers):
    # psi = flip composed with a non-coalgebra map breaks Delta-compatibility
    mad = trivial_module_algebra(z2, dual_numbers)
    ent = example_entwining(mad, 1)
    CA = ent.coalgebra.space.tensor(ent.algebra.space)
    psi = ent.psi

    def bad_col(lab):
        out = psi.columns[lab]
        if lab[0] == "g1":
            return 2 * out
        return out

    ent.psi = LinMap.from_function(CA, ent.psi.codomain, bad_col)
    rep = verify_entwining(ent)
    comul_check = next(c for c in rep.checks
                       if c.name == "entwining.comul_compat")
    assert not comul_check.passed


def test_graded_invariants_match_identity_component(z3_graded):
    # a in sA iff a lies in the identity component of the gradation
    from hopfcross.sweedler import invariant_subspace
    basis = invariant_subspace(z3_graded)
    assert len(basis) == 1
    assert basis[0].coeffs == {("1",): 1}


def test_matrix_order():
    # the order PolyActionSpec reads off its own power table, over every
    # finite order a rational 2x2 matrix can have
    for Q, m in [([[1, 0], [0, 1]], 1), ([[-1, 0], [0, -1]], 2),
                 ([[0, -1], [1, -1]], 3), ([[0, -1], [1, 0]], 4),
                 ([[1, -1], [1, 0]], 6), ([[2, 0], [0, 1]], None),
                 ([[2, 1], [0, 2]], None)]:
        assert PolyActionSpec(Q, [], []).order == m


def _mat_power(Q, n):
    out = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(n):
        out = [[sum(out[i][k] * Q[k][j] for k in range(2)) for j in range(2)]
               for i in range(2)]
    return out


@pytest.mark.parametrize("Q", [[[2, 1], [0, 2]], [[-1, 0], [0, -1]]],
                         ids=["jordan-1a", "minus-identity"])
def test_poly_tables_match_the_direct_sums(Q):
    spec = PolyActionSpec(Q, [0, 3, "1/2", 0, -1], ["2/3", 5])
    # descending first, so a table is read before it is filled in order
    order = list(range(12, -1, -1)) + list(range(13))
    for n in order:
        powers = [_mat_power(spec.Q, k) for k in range(n)]
        partial = [[sum((P[i][j] for P in powers), Fraction(0))
                    for j in range(2)] for i in range(2)]
        assert spec.qpower(n) == _mat_power(spec.Q, n)
        assert spec.qpartial(n) == partial
        for l in range(2):
            want = {}
            for src in range(2):
                for u, c in enumerate(spec.beta[src]):
                    e_ = n - 1 + u
                    want[e_] = want.get(e_, Fraction(0)) + partial[l][src] * c
            want = {e_: c for e_, c in want.items() if c and n}
            got = spec.beta_of_power(l, n)
            assert got == want
            assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("Q", [[[2, 1], [0, 2]], [[-1, 0], [0, -1]]],
                         ids=["jordan-1a", "minus-identity"])
def test_poly_action_s_columns_match_the_direct_formula(Q):
    Qf = [[Fraction(x) for x in row] for row in Q]
    for N in range(1, 7):
        mad = build_poly_action(Q, [0, 1], [0], N, validate=False)
        HV = mad.s.domain
        assert set(mad.s.columns) == set(HV.basis())
        for ((a, b), yn), col in mad.s.columns.items():
            (q00, q01), (q10, q11) = _mat_power(Qf, yn)
            want = {}
            for i in range(a + 1):
                for j in range(b + 1):
                    c = (comb(a, i) * q00 ** i * q01 ** (a - i)
                         * comb(b, j) * q10 ** j * q11 ** (b - j))
                    if c:
                        key = (yn, (i + j, a - i + b - j))
                        want[key] = want.get(key, 0) + c
            assert list(col.coeffs.items()) == [(k, v) for k, v in want.items()
                                                if v]
            assert all(type(c) is Fraction for c in col.coeffs.values())


# ---------------------------------------------------------------------------
# columns computed on first read: every structure map against an eager build

class _Recorder:
    """Stands in for LinMap.from_function: keeps each map's fn and partial
    flag and counts the calls of fn per label the map makes."""

    def __init__(self, monkeypatch):
        self.by_map = {}
        original = LinMap.from_function

        def recording(domain, codomain, fn, partial=False):
            calls = {}

            def counted(lab):
                calls[lab] = calls.get(lab, 0) + 1
                return fn(lab)

            m = original(domain, codomain, counted, partial)
            self.by_map[id(m)] = (m, fn, partial, calls)
            return m

        monkeypatch.setattr(LinMap, "from_function", staticmethod(recording))

    def calls(self, m):
        return self.by_map[id(m)][3]


def _eager_columns(m, fn, partial):
    from hopfcross.exact import TruncationOverflow
    cols = {}
    for lab in m.domain.basis():
        try:
            cols[lab] = fn(lab)
        except TruncationOverflow:
            assert partial
    return cols


def _structure_maps(h, mad):
    maps = {"mul": h.mul, "comul": h.comul, "antipode": h.antipode,
            "braid": h.braid}
    if mad is not None:
        maps.update({"s": mad.s, "rho": mad.rho})
    for n in (1, 2, 3):
        tp = tensor_power_coalgebra(h, n)
        for name in ("comul", "counit", "s", "rho"):
            maps["%s^%d" % (name, n)] = getattr(tp, name)
    return maps


def _build_poly2():
    mad = build_poly_action([[-1, 0], [0, 1]], [0, 0, 0, 1], [0], 4)
    return mad.hopf, mad


def _build_sl2():
    from hopfcross.hopf import LieSpec, build_truncated_enveloping
    sl2 = LieSpec(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    return build_truncated_enveloping(sl2, 3), None


def _build_z3_graded():
    A = AlgebraData.from_table(
        "kt", ["1", "t"], {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
                           ("t", "1"): {"t": 1}, ("t", "t"): {}}, "1")
    g3 = GroupSpec.cyclic(3)
    autos = {"id": {e: e for e in g3.elements},
             "inv": {e: g3.inverse(e) for e in g3.elements}}
    mad = graded_module_algebra(g3, A, {"1": "id", "t": "inv"}, autos)
    return mad.hopf, mad


@pytest.mark.parametrize("build", [_build_poly2, _build_sl2, _build_z3_graded],
                         ids=["poly2-N4", "sl2-N3", "z3-graded"])
def test_structure_maps_read_lazily_match_an_eager_build(monkeypatch, build):
    import random
    rec = _Recorder(monkeypatch)
    h, mad = build()
    maps = _structure_maps(h, mad)
    rng = random.Random(7)
    absences = 0
    for name, m in maps.items():
        _, fn, partial, calls = rec.by_map[id(m)]
        want = _eager_columns(m, fn, partial)
        labels = list(m.domain.basis())
        rng.shuffle(labels)
        for lab in labels[:len(labels) // 2 + 1]:
            how = rng.randrange(3)
            if lab not in want:
                absences += 1
                assert m.columns.get(lab) is None, name
                assert lab not in m.columns, name
                with pytest.raises(KeyError):
                    m.columns[lab]
            elif how == 0:
                assert m.columns.get(lab) == want[lab], name
            elif how == 1:
                assert m.columns[lab] == want[lab], name
            else:
                assert lab in m.columns, name
        assert all(c == 1 for c in calls.values()), name
        # whole-map reads see the eager dict, in basis order
        assert list(m.columns.items()) == list(want.items()), name
        assert len(m.columns) == len(want) and m.columns == want, name
        assert all(c == 1 for c in calls.values()), name
        assert len(calls) == len(labels), name
    if build is _build_poly2:
        assert absences  # rho of beta1 = Y^3 leaves the budget at N = 4


def test_section7_path_builds_no_hopf_multiplication_or_braid(monkeypatch):
    import os
    from hopfcross.ce import xi_space
    from hopfcross.workbench import (WorkbenchSpec, XiComplex,
                                     build_poly2_instance)
    rec = _Recorder(monkeypatch)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "case3b.json")
    spec = WorkbenchSpec.load(path)
    mad = build_poly2_instance(spec)
    xi = XiComplex(mad)
    ce, trans = xi.ce, xi.trans
    for n in (0, 1, 2):
        xi_space(ce, n, trans, window=spec.budget - 1)
    assert rec.calls(mad.hopf.braid) == {}
    assert rec.calls(mad.hopf.mul) == {}
