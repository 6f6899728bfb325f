import itertools

import pytest
from fractions import Fraction

from hopfcross.exact import (Element, LinMap, TruncationOverflow,
                             combine_scaled)
from hopfcross.hopf import MAX_WITNESS, LieSpec, _exponent_labels, \
    build_truncated_enveloping, build_truncated_poly_hopf
from hopfcross.actions import build_poly_action
from hopfcross.ce import (AlphaConditionViolated, BarComparison, CEAlgebra,
                          CETransposition, _gen_atom, _sigma_t,
                          evaluate_bimodule_cochain,
                          verify_bimodule_transposition,
                          verify_resolution_identities, xi_differential_matrix,
                          xi_space)
from hopfcross.workbench import poly_alpha_maps
from test_ce_pins import LIES as CE_PIN_LIES, _rescaled

HEIS = LieSpec.heisenberg()
AB2 = LieSpec.abelian(2)
SL2 = LieSpec(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def one_mono(ce, a=None, S=(), b=None):
    r = ce.r
    return (tuple(a or (0,) * r), tuple(S), tuple(b or (0,) * r))


def d_of(ce, mono):
    return ce.differential({mono: Fraction(1)})


def test_normal_form_antisymmetry():
    ce = CEAlgebra(AB2)
    assert ce.nf((("E", 1), ("E", 0))) == {one_mono(ce, S=(0, 1)): -1}
    assert ce.nf((("E", 0), ("E", 0))) == {}


def test_normal_form_commuting_ys():
    ce = CEAlgebra(AB2)
    assert ce.nf((("Y", 1), ("Y", 0))) == {one_mono(ce, a=(1, 1)): 1}


def test_normal_form_heisenberg_e_past_y():
    # relation with the bracket sign: e_y Y_x = Y_x e_y - 1/2 e_z
    ce = CEAlgebra(HEIS)
    out = ce.nf((("E", 1), ("Y", 0)))
    assert out == {((1, 0, 0), (1,), (0, 0, 0)): 1,
                   ((0, 0, 0), (2,), (0, 0, 0)): Fraction(-1, 2)}


def test_differential_degree_one():
    ce = CEAlgebra(HEIS)
    out = d_of(ce, one_mono(ce, S=(0,)))
    assert out == {((1, 0, 0), (), (0, 0, 0)): 1,
                   ((0, 0, 0), (), (1, 0, 0)): -1}     # Y_x - Z_x


def test_differential_degree_two_abelian():
    ce = CEAlgebra(AB2)
    out = d_of(ce, one_mono(ce, S=(0, 1)))
    assert out == {((1, 0), (1,), (0, 0)): 1, ((0, 1), (0,), (0, 0)): -1,
                   ((0, 0), (1,), (1, 0)): -1, ((0, 0), (0,), (0, 1)): 1}


def test_differential_degree_two_heisenberg():
    # includes the (-1)^{1+2} e_[x,y] term
    ce = CEAlgebra(HEIS)
    out = d_of(ce, one_mono(ce, S=(0, 1)))
    assert out[((0, 0, 0), (2,), (0, 0, 0))] == -1


def test_d_squared_zero_and_homotopy_scaling():
    # every monomial with homological degree <= 3, p <= 4, budget bound
    for lie in (AB2, HEIS):
        ce = CEAlgebra(lie)
        for n in range(0, min(3, lie.dim) + 1):
            for mono in ce.monomials(n, 3):
                assert ce.differential(d_of(ce, mono)) == {}
                for p, part in ce.p_decompose({mono: Fraction(1)}).items():
                    if p > 4:
                        continue
                    total = {}
                    for d in (ce.gamma(ce.differential(part)),
                              ce.differential(ce.gamma(part))):
                        for k, v in d.items():
                            total[k] = total.get(k, Fraction(0)) + v
                    want = {k: p * v for k, v in part.items()}
                    assert {k: v for k, v in total.items() if v} == \
                        {k: v for k, v in want.items() if v}


def test_sigma_examples():
    ce = CEAlgebra(HEIS)
    assert ce.sigma(ce.nf((("T", 0),))) == {one_mono(ce, S=(0,)): 1}
    assert ce.sigma({one_mono(ce, a=(1, 0, 0)): Fraction(1)}) == {}


def test_gamma_d_on_eT():
    ce = CEAlgebra(HEIS)
    ext = ce.nf((("E", 0), ("T", 1)))
    total = {}
    for d in (ce.gamma(ce.differential(ext)), ce.differential(ce.gamma(ext))):
        for k, v in d.items():
            total[k] = total.get(k, Fraction(0)) + v
    want = {k: 2 * v for k, v in ext.items()}
    assert {k: v for k, v in total.items() if v} == want


def test_contraction_identity_on_degree_zero():
    # d sigma + sigma_0 mu = id on D_0 monomials (exactness at position 0)
    for lie, hopf in ((AB2, build_truncated_poly_hopf(2, 4)),
                      (HEIS, build_truncated_enveloping(HEIS, 4))):
        ce = CEAlgebra(lie)
        for mono in ce.monomials(0, 3):
            x = {mono: Fraction(1)}
            total = ce.differential(ce.sigma(x))
            for m, c in ce.section(ce.augmentation(x, hopf)).items():
                total[m] = total.get(m, Fraction(0)) + c
            assert {k: v for k, v in total.items() if v} == x


def test_contraction_identity_positive_degrees():
    # sigma d + d sigma = id on degrees 1 and 2 (p > 0 there)
    for lie in (AB2, HEIS):
        ce = CEAlgebra(lie)
        for n in (1, 2):
            for mono in ce.monomials(n, 2):
                x = {mono: Fraction(1)}
                total = ce.differential(ce.sigma(x))
                for m, c in ce.sigma(ce.differential(x)).items():
                    total[m] = total.get(m, Fraction(0)) + c
                assert {k: v for k, v in total.items() if v} == x


def test_degenerate_rank_one():
    ce = CEAlgebra(LieSpec.abelian(1))
    assert ce.monomials(2, 3) == []


# ---------------------------------------------------------------------------
# the transposition on the resolution


@pytest.fixture(scope="module")
def mad1b():
    return build_poly_action([[2, 0], [0, Fraction(1, 2)]], [0, 3], [0, 5], 5)


@pytest.fixture(scope="module")
def trans1b(mad1b):
    return CETransposition(CEAlgebra(AB2), mad1b, poly_alpha_maps(mad1b))


def test_flip_alpha_gives_flip_transposition(case2_beta_y):
    ce = CEAlgebra(AB2)
    tr = CETransposition(ce, case2_beta_y, poly_alpha_maps(case2_beta_y))
    A = case2_beta_y.algebra
    mono = ((1, 0), (1,), (0, 1))
    out = tr.cross(mono, Element.basis_vector(A.space, (3,)))
    assert out == {mono: Element.basis_vector(A.space, (3,))}


def test_diagonal_transposition_scaling(trans1b, mad1b):
    # s_D(e_1 (x) Y^n) = q_1^n Y^n (x) e_1 for diagonal alpha
    A = mad1b.algebra
    ce = trans1b.ce
    for n in range(4):
        out = trans1b.cross(one_mono(ce, S=(0,)),
                            Element.basis_vector(A.space, (n,)))
        assert out == {one_mono(ce, S=(0,)):
                       Fraction(2) ** n * Element.basis_vector(A.space, (n,))}


def test_alpha_condition_b_violation(case2_beta_y):
    A = case2_beta_y.algebra
    maps = poly_alpha_maps(case2_beta_y)
    # corrupt alpha_1^1 on Y^2 so multiplicativity fails
    bad = LinMap.from_function(
        A.space, A.space,
        lambda lab: (2 if lab == (2,) else 1) * Element.basis_vector(A.space, lab))
    maps[0][0] = bad
    with pytest.raises(AlphaConditionViolated) as err:
        CETransposition(CEAlgebra(AB2), case2_beta_y, maps)
    assert err.value.cond == "b"


def test_transposition_respects_relations(trans1b):
    labels = [l for l in trans1b.mad.algebra.space.basis()
              if trans1b.mad.algebra.space.degree(l) <= 3]
    assert trans1b.respects_relations(budget_labels=labels)


def test_def52_conditions_per_degree(trans1b):
    ce = trans1b.ce
    for n in (0, 1, 2):
        rep = verify_bimodule_transposition(ce, trans1b, n, pbw_budget=2,
                                            a_window=3)
        assert rep.ok, rep.summary()


def test_def52_action_checks_count_a_skipped_tuple_once():
    mad = build_poly_action([[1, 0], [0, 1]], [0, 1], [0], 3)
    ce = CEAlgebra(AB2)
    trans = CETransposition(ce, mad, poly_alpha_maps(mad))
    rep = verify_bimodule_transposition(ce, trans, 1, pbw_budget=1)
    counts = {c.name: (c.checked, c.skipped) for c in rep.checks}
    assert counts["def52.4_right_action"] == (60, 20)
    assert counts["def52.5_left_action"] == (60, 20)


@pytest.fixture(scope="module")
def trans_qneg():
    """Q = -ide, beta1 = Y + Y^3, beta2 = Y at budget 4: beta1 raises the
    degree, so the action check skips more tuples than the s exchange."""
    mad = build_poly_action([[-1, 0], [0, -1]], [0, 1, 0, 1], [0, 1], 4)
    return CETransposition(CEAlgebra(AB2), mad, poly_alpha_maps(mad))


_DEF52 = ("def52.1_algebra_compat", "def52.1_unit_compat",
          "def52.2_action_compat", "def52.3_s_exchange",
          "def52.4_right_action", "def52.5_left_action")


@pytest.mark.parametrize("instance, n, pbw, window, counts", [
    ("trans1b", 0, 1, None, [(105, 75), (5, 0)] + [(50, 10)] * 4),
    ("trans1b", 1, 1, None, [(210, 150), (10, 0)] + [(100, 20)] * 4),
    ("trans1b", 2, 1, None, [(105, 75), (5, 0)] + [(50, 10)] * 4),
    ("trans1b", 0, 2, 3, [(225, 15), (15, 0)] + [(120, 0)] * 4),
    ("trans1b", 1, 2, 3, [(450, 30), (30, 0)] + [(240, 0)] * 4),
    ("trans1b", 2, 2, 3, [(225, 15), (15, 0)] + [(120, 0)] * 4),
    ("trans_qneg", 1, 2, None,
     [(450, 300), (30, 0), (210, 90), (240, 60), (240, 60), (240, 60)]),
])
def test_def52_checked_and_skipped_counts(request, instance, n, pbw, window,
                                          counts):
    trans = request.getfixturevalue(instance)
    rep = verify_bimodule_transposition(trans.ce, trans, n, pbw_budget=pbw,
                                        a_window=window)
    assert rep.ok, rep.summary()
    assert [(c.name, c.checked, c.skipped) for c in rep.checks] == \
        [(name,) + pair for name, pair in zip(_DEF52, counts)]


def test_def52_failures_keep_their_witnesses(mad1b):
    # s_D doubled on e_1 Z_2 whenever its A argument has a Y^2 term: the
    # algebra and action-by-monomial checks see it, while the action and
    # s-exchange checks double both sides alike
    trans = CETransposition(CEAlgebra(AB2), mad1b, poly_alpha_maps(mad1b))
    cross, bad = trans.cross, ((0, 0), (1,), (0, 1))

    def doubled(mono, a_elt):
        out = cross(mono, a_elt)
        if mono == bad and (2,) in a_elt.coeffs:
            return {m: 2 * v for m, v in out.items()}
        return out

    trans.cross = doubled
    rep = verify_bimodule_transposition(trans.ce, trans, 1, pbw_budget=1)
    failures = {c.name: c.failures for c in rep.checks}
    assert failures == {
        "def52.1_algebra_compat": [(bad, (1,), (1,)), (bad, (1,), (2,)),
                                   (bad, (2,), (1,))],
        "def52.1_unit_compat": [],
        "def52.2_action_compat": [],
        "def52.3_s_exchange": [],
        "def52.4_right_action": [(((0, 0), (1,), (0, 0)), "Z", 1, (2,)),
                                 (bad, "Z", 0, (2,)), (bad, "Z", 1, (2,))],
        "def52.5_left_action": [(bad, "Y", 0, (2,)), (bad, "Y", 1, (2,))],
    }


def test_def52_unit_condition_is_one_counted_check():
    # s_D doubled on every monomial when A's argument is the unit: the unit
    # condition is checked once per monomial and keeps MAX_WITNESS witnesses
    mad = build_poly_action([[2, 0], [0, Fraction(1, 2)]], [0, 1], [0, 1], 4)
    trans = CETransposition(CEAlgebra(AB2), mad, poly_alpha_maps(mad))
    cross, unit = trans.cross, mad.algebra.unit

    def doubled(mono, a_elt):
        out = cross(mono, a_elt)
        return {m: 2 * v for m, v in out.items()} if a_elt == unit else out

    trans.cross = doubled
    rep = verify_bimodule_transposition(trans.ce, trans, 1, pbw_budget=1)
    checks = {c.name: c for c in rep.checks}
    monos = trans.ce.monomials(1, 1)
    unit_check = checks["def52.1_unit_compat"]
    assert len(monos) == 10
    assert (unit_check.checked, unit_check.skipped) == (10, 0)
    assert unit_check.failures == [(m,) for m in monos[:MAX_WITNESS]]
    algebra = checks["def52.1_algebra_compat"]
    assert (algebra.checked, algebra.skipped) == (150, 100)
    assert all(len(c.failures) <= MAX_WITNESS for c in rep.checks)


def test_perturbed_transposition_breaks_a_relation(mad1b):
    # s_T doubled on the word Y_1 Y_2 when A's argument has a Y^2 term
    # breaks Y_1 Y_2 = Y_2 Y_1
    trans = CETransposition(CEAlgebra(AB2), mad1b, poly_alpha_maps(mad1b))
    assert trans.respects_relations()
    cross_word = trans.cross_word

    def doubled(word, a_elt):
        out = cross_word(word, a_elt)
        if tuple(word) == (("Y", 0), ("Y", 1)) and (2,) in a_elt.coeffs:
            return {m: 2 * v for m, v in out.items()}
        return out

    trans.cross_word = doubled
    assert not trans.respects_relations()


# ---------------------------------------------------------------------------
# the caches of CEAlgebra, against a fresh instance


def _all_fractions(d):
    return all(type(v) is Fraction for v in d.values())


@pytest.mark.parametrize("lie", [HEIS, SL2], ids=["heisenberg", "sl2"])
def test_warm_caches_agree_with_a_fresh_instance(lie):
    warm = CEAlgebra(lie)
    assert verify_resolution_identities(warm, budget=3).ok
    fresh = CEAlgebra(lie)
    monos = [m for n in range(4) for m in warm.monomials(n, 3)]
    # the fresh instance meets the monomials in the opposite order, and its
    # normal forms are copied before anything else can reach its caches
    expected = {}
    for mono in reversed(monos):
        x = {mono: Fraction(1)}
        word = fresh.mono_word(mono)
        t_words = [word[:k] + (("T", i),) + word[k + 1:]
                   for k, (kind, i) in enumerate(word) if kind == "E"]
        nfs = [dict(fresh.nf(w)) for w in [word] + t_words]
        expected[mono] = (nfs, fresh.differential(x), fresh.gamma(x),
                          fresh.sigma(x), fresh.p_decompose(x))
    for mono in monos:
        x = {mono: Fraction(1)}
        word = warm.mono_word(mono)
        t_words = [word[:k] + (("T", i),) + word[k + 1:]
                   for k, (kind, i) in enumerate(word) if kind == "E"]
        got = ([warm.nf(w) for w in [word] + t_words], warm.differential(x),
               warm.gamma(x), warm.sigma(x), warm.p_decompose(x))
        assert got == expected[mono], mono
        nfs, d, g, sig, parts = got
        assert all(_all_fractions(v) for v in nfs + [d, g, sig])
        assert all(_all_fractions(v) for v in parts.values())


def _scale_one_term_of_a_d_image(ce):
    """Double one coefficient of the cached d image of a degree-2 monomial,
    on a term whose gamma is not 0 (so gamma d(mono) moves too); the
    monomial is returned."""
    mono = one_mono(ce, S=(0, 1))
    den, nums = ce._d((1, {mono: 1}))
    key = next(k for k in nums if ce._gamma((1, {k: 1}))[1])
    ce._d_images[mono] = (den, {k: 2 * n if k == key else n
                                for k, n in nums.items()})
    return mono


@pytest.mark.parametrize("lie", [HEIS, SL2], ids=["heisenberg", "sl2"])
def test_identity_checks_see_a_scaled_coefficient_of_a_cached_d_image(lie):
    ce = CEAlgebra(lie)
    mono = _scale_one_term_of_a_d_image(ce)
    checks = {c.name: c for c in
              verify_resolution_identities(ce, budget=3).checks}
    assert (mono,) in checks["ce.d_squared_zero"].failures
    # the homotopy check fails too; like every check it keeps at most
    # MAX_WITNESS witnesses, the first failing (monomial, p) pairs
    homotopy = checks["ce.homotopy_scaling"]
    assert not homotopy.passed
    assert len(homotopy.failures) <= MAX_WITNESS


@pytest.mark.parametrize("lie", [HEIS, SL2], ids=["heisenberg", "sl2"])
def test_a_corrupted_d_image_fails_both_checks_at_unchanged_counts(lie):
    clean = verify_resolution_identities(CEAlgebra(lie), budget=3)
    ce = CEAlgebra(lie)
    _scale_one_term_of_a_d_image(ce)
    corrupted = verify_resolution_identities(ce, budget=3)
    assert [(c.name, c.checked, c.skipped) for c in clean.checks] == [
        ("ce.d_squared_zero", 672, 0), ("ce.homotopy_scaling", 1536, 0)]
    assert [(c.name, c.checked, c.skipped) for c in corrupted.checks] == [
        (c.name, c.checked, c.skipped) for c in clean.checks]
    assert clean.ok
    assert not any(c.passed for c in corrupted.checks)
    assert all(" FAIL (" in c.line() for c in corrupted.checks)


@pytest.mark.parametrize("lie", [HEIS, SL2], ids=["heisenberg", "sl2"])
def test_every_p0_component_passes_the_homotopy_check(lie):
    ce = CEAlgebra(lie)
    rep = verify_resolution_identities(ce, budget=3)
    assert rep.ok, rep.summary()
    parts = [ce._p_parts((1, {m: 1})).get(0)
             for n in range(4) for m in ce.monomials(n, 3)]
    parts = [part for part in parts if part is not None]
    assert len(parts) > 10
    for part in parts:
        # on p = 0 the check wants gamma d + d gamma to be the empty vector
        total = combine_scaled([(1, 1, ce._gamma(ce._d(part))),
                                (1, 1, ce._d(ce._gamma(part)))])
        assert total[1] == {}


ROUND_TRIP_LIES = {
    "heisenberg": _rescaled(*CE_PIN_LIES["heisenberg"]),
    "sl2": _rescaled(*CE_PIN_LIES["sl2"]),
    "x0x1=cx1": LieSpec(2, {(0, 1): {1: Fraction(-7, 3)}}),
    "abelian2": AB2,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_LIES))
def test_p_parts_sum_to_the_element(name):
    # p_decompose goes to the (Y, e, T) basis and each part back to the
    # Y/e/Z basis: the parts of every monomial sum to the monomial
    ce = CEAlgebra(ROUND_TRIP_LIES[name])
    count = 0
    for n in range(4):
        for mono in ce.monomials(n, 3):
            total = {}
            for part in ce.p_decompose({mono: Fraction(1)}).values():
                for m, c in part.items():
                    total[m] = total.get(m, 0) + c
            assert {m: c for m, c in total.items() if c} == {mono: 1}, mono
            count += 1
    assert count == (672 if ce.r == 3 else 140)


def test_nf_twice_gives_equal_dicts():
    ce = CEAlgebra(HEIS)
    for word in [(("Z", 1), ("E", 2), ("Y", 0), ("E", 0)),
                 (("E", 1), ("T", 0), ("Z", 2), ("T", 1))]:
        first = dict(ce.nf(word))
        assert first and ce.nf(word) == first
        assert ce.nf(list(word)) == first


def test_differential_result_is_not_the_cache():
    ce = CEAlgebra(HEIS)
    mono = one_mono(ce, a=(1, 0, 0), S=(0, 2), b=(0, 1, 0))
    d = d_of(ce, mono)
    want = dict(d)
    d.clear()
    assert d_of(ce, mono) == want


# ---------------------------------------------------------------------------
# Xi


def test_xi_d0_is_invariant_center(mad1b, trans1b):
    # Xi(D_0) is sA cap Z(A); for the diagonal instance sA = k
    sol = xi_space(trans1b.ce, 0, trans1b, window=4)
    assert sol.dim == 1
    assert sol.basis[0][()].coeffs == {(0,): 1}


def test_xi_d1_pair_condition(case2_beta_y):
    # Q = ide: the pair condition is vacuous and Xi(D_1) = k[Y] x k[Y]
    ce = CEAlgebra(AB2)
    tr = CETransposition(ce, case2_beta_y, poly_alpha_maps(case2_beta_y))
    sol = xi_space(ce, 1, tr, window=4)
    assert sol.dim == 10


def test_xi_d2_case2_full(case2_beta_y):
    ce = CEAlgebra(AB2)
    tr = CETransposition(ce, case2_beta_y, poly_alpha_maps(case2_beta_y))
    sol = xi_space(ce, 2, tr, window=4)
    assert sol.dim == 5                     # all of k[Y] on the window


def test_xi_differentials_match_paper_formulas(case2_beta_y):
    # d^1(b) = (beta_1(b), beta_2(b)) and d^2(b1, b2) = beta_1(b2) - beta_2(b1)
    mad = case2_beta_y
    ce = CEAlgebra(AB2)
    tr = CETransposition(ce, mad, poly_alpha_maps(mad))
    xi0 = xi_space(ce, 0, tr, window=4)
    xi1 = xi_space(ce, 1, tr, window=4)
    imgs, _ = xi_differential_matrix(ce, tr, xi0, xi1, 1)
    h = mad.hopf
    for f, img in zip(xi0.basis, imgs):
        b = f[()]
        want1 = mad.act(Element.basis_vector(h.space, ((1, 0),)), b)
        want2 = mad.act(Element.basis_vector(h.space, ((0, 1),)), b)
        assert img[(0,)] == want1 and img[(1,)] == want2


# ---------------------------------------------------------------------------
# comparison maps


@pytest.mark.parametrize("lie,hopf_builder", [
    (AB2, lambda: build_truncated_poly_hopf(2, 5)),
    (HEIS, lambda: build_truncated_enveloping(HEIS, 5)),
])
def test_phi_closed_equals_recursive(lie, hopf_builder):
    ce = CEAlgebra(lie)
    bc = BarComparison(ce, hopf_builder())
    for n in range(0, min(3, lie.dim) + 1):
        for S in itertools.combinations(range(lie.dim), n):
            assert bc.phi_recursive(S) == bc.phi_closed(S)


def test_phi1_and_phi2_closed_forms():
    ce = CEAlgebra(AB2)
    bc = BarComparison(ce, build_truncated_poly_hopf(2, 4))
    u = bc.unit_atom
    assert bc.phi_recursive((0,)) == {(u, ((1, 0),), u): 1}
    assert bc.phi_recursive((0, 1)) == {
        (u, ((1, 0), (0, 1)), u): 1, (u, ((0, 1), (1, 0)), u): -1}


def _bar_comparison(ce, hopf, path):
    """A BarComparison whose Phi takes the given path: "commuting" (abelian
    L only) or "reference" (the rewriting system)."""
    bc = BarComparison(ce, hopf)
    if path == "reference":
        bc.commuting = False
    elif not bc.commuting:
        raise ValueError("the commuting path needs an abelian Lie algebra")
    return bc


# (Lie algebra, BarComparison builder): the abelian case dispatches to the
# commuting path, and is run once more on the reference path; a nonabelian
# L has only the reference path
PHI_PATHS = [
    (AB2, lambda ce: BarComparison(ce, build_truncated_poly_hopf(2, 5))),
    (HEIS, lambda ce: BarComparison(ce, build_truncated_enveloping(HEIS, 5))),
    pytest.param(AB2, lambda ce: _bar_comparison(
        ce, build_truncated_poly_hopf(2, 5), "reference"),
        id="abelian2-reference"),
]


def test_Phi2_half_coefficient():
    ce = CEAlgebra(AB2)
    for path in ("commuting", "reference"):
        bc = _bar_comparison(ce, build_truncated_poly_hopf(2, 4), path)
        mid = ((1, 0), (0, 1))
        out = bc.Phi((bc.unit_atom, mid, bc.unit_atom))
        assert out == {((0, 0), (0, 1), (0, 0)): Fraction(1, 2)}, path
        assert out == bc.Phi_closed(mid)


@pytest.mark.parametrize("lie,comparison", PHI_PATHS)
def test_retraction_identity(lie, comparison):
    # Phi o phi = id on the generator basis, including the 1/n! scalar
    ce = CEAlgebra(lie)
    bc = comparison(ce)
    for n in range(0, min(3, lie.dim) + 1):
        for S in itertools.combinations(range(lie.dim), n):
            total = {}
            for key, c in bc.phi_recursive(S).items():
                for m, v in bc.Phi(key).items():
                    total[m] = total.get(m, Fraction(0)) + c * v
            mono = ((0,) * lie.dim, tuple(S), (0,) * lie.dim)
            assert {k: v for k, v in total.items() if v} == {mono: 1}


@pytest.mark.parametrize("lie,comparison", PHI_PATHS)
def test_chain_map_properties(lie, comparison):
    ce = CEAlgebra(lie)
    bc = comparison(ce)
    # Phi is a chain map on generator-level bar elements
    for n in (1, 2):
        for S in itertools.combinations(range(lie.dim), n):
            mid = tuple(_gen_atom(bc.r, i) for i in S)
            key = (bc.unit_atom, mid, bc.unit_atom)
            lhs = ce.differential(bc.Phi(key))
            rhs = {}
            for key2, c in bc.bar_differential(n, key).items():
                for m, v in bc.Phi(key2).items():
                    rhs[m] = rhs.get(m, Fraction(0)) + c * v
            assert {k: v for k, v in lhs.items() if v} == \
                {k: v for k, v in rhs.items() if v}


def _middles(m, budget, n_max):
    """Every bar middle of length <= n_max over non-unit monomials of
    k[X_1..X_m] whose total degree stays within the budget."""
    atoms = [tuple(a) for a in _exponent_labels(m, budget) if sum(a)]
    for n in range(n_max + 1):
        for mid in itertools.product(atoms, repeat=n):
            if sum(map(sum, mid)) <= budget:
                yield mid


@pytest.mark.parametrize("m,budget,n_max", [(2, 4, 3), (3, 4, 3), (2, 6, 2)])
def test_commuting_Phi_matches_reference(m, budget, n_max):
    # the commuting path is the sigma-recursion in other coordinates: the
    # rewriting system gives the same value dict on every monomial middle
    ce = CEAlgebra(LieSpec.abelian(m))
    hopf = build_truncated_poly_hopf(m, budget)
    fast = _bar_comparison(ce, hopf, "commuting")
    ref = _bar_comparison(ce, hopf, "reference")
    u = fast.unit_atom
    count = 0
    for mid in _middles(m, budget, n_max):
        assert fast.Phi((u, mid, u)) == ref.Phi((u, mid, u)), mid
        count += 1
    assert count > 90
    assert ref._phi_memo and not ref._phi_t_memo
    assert fast._phi_t_memo and not fast._phi_memo


def test_commuting_Phi_outer_slots():
    # non-unit h0 / h1: Y^h0 ... Z^h1 around the core
    ce = CEAlgebra(LieSpec.abelian(2))
    hopf = build_truncated_poly_hopf(2, 4)
    fast = _bar_comparison(ce, hopf, "commuting")
    ref = _bar_comparison(ce, hopf, "reference")
    outer = [tuple(a) for a in _exponent_labels(2, 2)]
    for mid in _middles(2, 4, 2):
        for h0, h1 in itertools.product(outer, repeat=2):
            assert fast.Phi((h0, mid, h1)) == ref.Phi((h0, mid, h1))
    # Y^(1,0) (1/2 e_0 e_1) Z^(0,1) has a single term
    assert fast.Phi(((1, 0), ((1, 0), (0, 1)), (0, 1))) == \
        {((1, 0), (0, 1), (0, 1)): Fraction(1, 2)}


def test_commuting_Phi_overflow_matches_reference():
    # a middle past the budget fails in b' on both paths, with one message
    ce = CEAlgebra(LieSpec.abelian(2))
    hopf = build_truncated_poly_hopf(2, 3)
    u = hopf.unit_label()
    messages = []
    for path in ("commuting", "reference"):
        bc = _bar_comparison(ce, hopf, path)
        with pytest.raises(TruncationOverflow) as info:
            bc.Phi((u, ((2, 0), (1, 1)), u))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_sigma_t_is_sigma():
    # the Euler homotopy in (Y, e, T) coordinates is ce.sigma, monomial by
    # monomial, p = 0 included
    ce = CEAlgebra(LieSpec.abelian(3))
    bc = _bar_comparison(ce, build_truncated_poly_hopf(3, 2), "commuting")
    zero = (0, 0, 0)
    exps = [tuple(a) for a in _exponent_labels(3, 2)]
    for a, k in itertools.product(exps, repeat=2):
        for n in range(4):
            for S in itertools.combinations(range(3), n):
                elt = {(a, S, k): Fraction(3, 2)}
                assert bc._z_basis(_sigma_t(elt), zero, zero) == \
                    ce.sigma(bc._z_basis(elt, zero, zero)), (a, S, k)


def test_heisenberg_never_takes_the_commuting_path(monkeypatch):
    ce = CEAlgebra(HEIS)
    bc = BarComparison(ce, build_truncated_enveloping(HEIS, 4))
    assert not bc.commuting

    def fail(self, mid):
        raise AssertionError("commuting path on a nonabelian L")

    monkeypatch.setattr(BarComparison, "_Phi_core_t", fail)
    u = bc.unit_atom
    for mid in _middles(3, 3, 2):
        bc.Phi((u, mid, u))
    assert bc._phi_memo and not bc._phi_t_memo


def test_transported_cochain_evaluation(case2_beta_y):
    # the transported degree-2 cochain takes the half values on generators
    mad = case2_beta_y
    ce = CEAlgebra(AB2)
    bc = BarComparison(ce, mad.hopf)
    A = mad.algebra
    values = {(0, 1): A.unit}
    z = bc.Phi((bc.unit_atom, ((1, 0), (0, 1)), bc.unit_atom))
    assert evaluate_bimodule_cochain(mad, values, z) == \
        Fraction(1, 2) * A.unit
    z = bc.Phi((bc.unit_atom, ((0, 1), (1, 0)), bc.unit_atom))
    assert evaluate_bimodule_cochain(mad, values, z) == \
        Fraction(-1, 2) * A.unit
