import random

import pytest
from fractions import Fraction

from hopfcross.exact import (ONE, Element, KSPACE, LinMap, NotInvertible, Slot,
                             Space, SpaceMismatch, TruncationOverflow, apply_at,
                             compose, echelon_basis, invert_linmap,
                             kernel_image_quotient, nullspace, rat, rref,
                             slot_permutation, solution_space, tensor)


def _poly_space(N, name="P"):
    labels = list(range(N + 1))
    return Space((Slot(name, labels, {n: n for n in labels}),), budget=N)


def _flat(labels, name="V"):
    return Space((Slot(name, labels),))


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(5) == Fraction(5)
    with pytest.raises(TypeError):
        rat(0.5)


def test_tensor_single_labels():
    V = _flat(["x"], "V")
    W = _flat(["y"], "W")
    out = tensor(Element.basis_vector(V, ("x",)), Element.basis_vector(W, ("y",)))
    assert out.coeffs == {("x", "y"): 1}


def test_tensor_bilinearity():
    V = _flat(["x"], "V")
    W = _flat(["y", "z"], "W")
    a = 2 * Element.basis_vector(V, ("x",))
    b = 3 * Element.basis_vector(W, ("y",)) + Element.basis_vector(W, ("z",))
    out = tensor(a, b)
    assert out.coeffs == {("x", "y"): 6, ("x", "z"): 2}


def test_tensor_budget_overflow():
    P = _poly_space(6)
    with pytest.raises(TruncationOverflow):
        tensor(Element.basis_vector(P, (3,)), Element.basis_vector(P, (4,)))


def test_tensor_associativity_flattening():
    V = _flat(["x", "y"], "V")
    a, b, c = (Element.basis_vector(V, (l,)) for l in ("x", "y", "x"))
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_compose_identity_laws():
    V = _flat(["x", "y"], "V")
    g = LinMap.from_function(V, V, lambda lab: 2 * Element.basis_vector(V, lab))
    ident = LinMap.identity(V)
    assert compose(ident, g) == g
    assert compose(g, ident) == g


def test_flip_is_involutive():
    V = _flat(["x", "y"], "V")
    VV = V.tensor(V)
    flip = slot_permutation(VV, (1, 0))
    assert compose(flip, flip) == LinMap.identity(VV)


def test_compose_mismatch():
    V = _flat(["x"], "V")
    W = _flat(["y"], "W")
    f = LinMap.identity(V)
    g = LinMap.identity(W)
    with pytest.raises(SpaceMismatch):
        compose(f, g)


def test_kernel_image_quotient_zero_and_identity():
    V = _flat(["a", "b", "c"], "V")
    zero = LinMap.from_function(V, V, lambda lab: Element.zero(V))
    ker, im, coker = kernel_image_quotient(zero)
    assert (len(ker), len(im), len(coker)) == (3, 0, 3)
    ker, im, coker = kernel_image_quotient(LinMap.identity(V))
    assert (len(ker), len(im), len(coker)) == (0, 3, 0)


def test_kernel_image_quotient_truncated_coboundary():
    # d2(Y^r, Y^s) = s Y^{s-1} beta1(Y) - r Y^{r-1} beta2(Y) with
    # beta1(Y) = Y, beta2 = 0 over the monomial window r, s <= 5.
    # Independent oracle: build the matrix explicitly and row-reduce; the
    # quotient of the window is 1-dimensional (spanned by the constants).
    N = 5
    P = _poly_space(N)
    dom = P.tensor(P)

    def col(lab):
        r, s = lab
        return Element(P, {(s,): Fraction(s)})   # s * Y^{s-1} * Y

    d2 = LinMap.from_function(dom, P, col)
    _, im, coker = kernel_image_quotient(d2)
    assert len(coker) == 1
    assert coker[0] == (0,)
    assert len(im) == N


def test_invert_diagonal_and_flip():
    V = _flat(["x", "y"], "V")
    diag = LinMap.from_function(
        V, V, lambda lab: (2 if lab == ("x",) else 3) * Element.basis_vector(V, lab))
    inv = invert_linmap(diag)
    assert inv.columns[("x",)] == Fraction(1, 2) * Element.basis_vector(V, ("x",))
    assert inv.columns[("y",)] == Fraction(1, 3) * Element.basis_vector(V, ("y",))
    VV = V.tensor(V)
    flip = slot_permutation(VV, (1, 0))
    assert invert_linmap(flip) == flip
    assert invert_linmap(LinMap.identity(V)) == LinMap.identity(V)


def test_invert_singular_has_witness():
    V = _flat(["x", "y"], "V")
    proj = LinMap.from_function(V, V, lambda lab: Element.basis_vector(V, ("x",)))
    with pytest.raises(NotInvertible) as err:
        invert_linmap(proj)
    assert err.value.witness is not None
    assert proj.apply(err.value.witness).is_zero()


def test_double_inverse_is_identity():
    rng = random.Random(3)
    V = _flat(list("abcd"), "V")
    for _ in range(10):
        cols = {}
        while True:
            for lab in V.basis():
                cols[lab] = Element(V, {
                    (m,): Fraction(rng.randint(-3, 3)) for m in "abcd"})
            f = LinMap(V, V, cols)
            try:
                inv = invert_linmap(f)
                break
            except NotInvertible:
                continue
        assert invert_linmap(inv) == f


def test_rref_rank_invariant_under_row_scaling():
    # property: scaling rows by nonzero rationals never changes the rank
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        rows = []
        for _ in range(n):
            rows.append({j: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for j in range(m) if rng.random() < 0.6})
        _, piv = rref(rows)
        scaled = [{j: Fraction(rng.randint(1, 7)) * v for j, v in r.items()}
                  for r in rows]
        _, piv2 = rref(scaled)
        assert len(piv) == len(piv2)


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(15):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dom = _flat(["d%d" % i for i in range(m)], "D")
        cod = _flat(["c%d" % i for i in range(n)], "C")
        cols = {}
        for lab in dom.basis():
            cols[lab] = Element(cod, {
                ("c%d" % i,): Fraction(rng.randint(-2, 2)) for i in range(n)})
        f = LinMap(dom, cod, cols)
        ker, im, coker = kernel_image_quotient(f)
        assert len(ker) + len(im) == m
        assert len(im) + len(coker) == n


def test_scalar_space():
    one = Element.scalar(Fraction(3, 2))
    assert one.scalar_value() == Fraction(3, 2)
    assert KSPACE.dim() == 1


def test_invert_graded_blocks_and_singular_witness():
    # degree 0: x -> x; degree 1: a -> a + b, b -> a + b is singular
    S = Slot("S", ["x", "a", "b"], {"x": 0, "a": 1, "b": 1})
    V = Space((S,), budget=1)
    ab = Element(V, {("a",): 1, ("b",): 1})
    cols = {("x",): 3 * Element.basis_vector(V, ("x",)), ("a",): ab,
            ("b",): ab}
    with pytest.raises(NotInvertible) as err:
        invert_linmap(LinMap(V, V, cols))
    assert str(err.value) == "singular block at degree 1"
    assert list(err.value.witness.coeffs.items()) == [
        (("a",), Fraction(-1)), (("b",), Fraction(1))]
    cols[("b",)] = Element(V, {("a",): 1, ("b",): "-1/2"})
    f = LinMap(V, V, cols)
    inv = invert_linmap(f)
    assert [list(c.coeffs.items()) for c in inv.columns.values()] == [
        [(("x",), Fraction(1, 3))],
        [(("a",), Fraction(1, 3)), (("b",), Fraction(2, 3))],
        [(("a",), Fraction(2, 3)), (("b",), Fraction(-2, 3))]]
    assert compose(f, inv) == LinMap.identity(V)


# ---------------------------------------------------------------------------
# differential test of the kernel against per-term reference implementations

def _reference_apply_at(f, elt, at):
    """apply_at as a budget check on every output term."""
    n = f.domain.arity
    sp = elt.space
    cod = Space(sp.slots[:at] + f.codomain.slots + sp.slots[at + n:],
                sp.budget)
    out = {}
    for lab, c in elt.coeffs.items():
        pre, mid, post = lab[:at], lab[at:at + n], lab[at + n:]
        col = f.columns.get(mid)
        if col is None:
            raise TruncationOverflow("no column for %r" % (mid,))
        for img, ci in col.coeffs.items():
            new = pre + img + post
            degree = sum(s.degree(p) for s, p in zip(cod.slots, new))
            if cod.budget is not None and degree > cod.budget:
                raise TruncationOverflow("label %r exceeds budget" % (new,))
            v = out.get(new, Fraction(0)) + c * ci
            if v == 0:
                out.pop(new, None)
            else:
                out[new] = v
    return cod, out


def _reference_apply(f, elt):
    """LinMap.apply as one Element sum per input term."""
    if elt.space != f.domain:
        raise SpaceMismatch("element not in domain")
    out = Element.zero(f.codomain)
    for lab, c in elt.coeffs.items():
        col = f.columns.get(lab)
        if col is None:
            raise TruncationOverflow("no column for label %r" % (lab,))
        out = out + c * col
    return f.codomain, out.coeffs


def _outcome(fn, *args):
    try:
        res = fn(*args)
    except (TruncationOverflow, SpaceMismatch) as exc:
        return "raise", type(exc), str(exc)
    if isinstance(res, Element):
        res = (res.space, res.coeffs)
    space, coeffs = res
    assert all(type(c) is Fraction and c for c in coeffs.values())
    return "value", space, list(coeffs.items())


_P = Slot("P", range(6), {i: i for i in range(6)})
_R = Slot("R", "abc", {"a": 0, "b": 1, "c": 2})
_U = Slot("U", "uv")
_COEFFS = [Fraction(c) for c in (1, 1, -1, 2, -2, "1/2", "-1/3")]


def _random_graded_map(rng, dom, cod):
    """Columns that raise, lower or keep the degree, or mix the three; some
    are empty and, with partial maps, some are missing."""
    by_degree = {}
    for lab in cod.basis():
        by_degree.setdefault(cod.degree(lab), []).append(lab)
    partial = rng.random() < 0.3
    cols = {}
    for lab in dom.basis():
        if partial and rng.random() < 0.15:
            continue
        shifts = rng.choice([(0,), (1,), (-1,), (2,), (-1, 0, 1), ()])
        coeffs = {}
        for shift in shifts:
            imgs = by_degree.get(dom.degree(lab) + shift, [])
            for img in rng.sample(imgs, min(len(imgs), rng.randint(1, 2))):
                coeffs[img] = rng.choice(_COEFFS)
        cols[lab] = Element(cod, coeffs)
    return LinMap(dom, cod, cols)


def _random_element(rng, space, past):
    """Terms inside the budget and, if `past`, a term one past it (when
    the space has such labels)."""
    inside = list(space.basis())
    wide = Space(space.slots, space.budget + 1)
    over = [l for l in wide.basis() if wide.degree(l) == space.budget + 1]
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        coeffs[rng.choice(inside)] = rng.choice(_COEFFS)
    if past and over:
        coeffs[rng.choice(over)] = rng.choice(_COEFFS)
    return Element(space, coeffs, validate=False)


_LAYOUTS = [
    # (slots of the element, position, slots of f's domain, of f's codomain)
    ((_P,), 0, (_P,), (_P,)),
    ((_U, _P, _R), 1, (_P,), (_R, _P)),
    ((_P, _R, _P), 1, (_R, _P), (_P,)),
    ((_R, _P), 0, (_R,), (_U, _R)),
    ((_P, _P), 1, (_P,), ()),
]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_per_term_reference(seed):
    rng = random.Random(seed)
    budget = 4
    seen = set()
    for _ in range(60):
        slots, at, dslots, cslots = rng.choice(_LAYOUTS)
        dom, cod = Space(dslots, budget), Space(cslots, budget)
        f = _random_graded_map(rng, dom, cod)
        sp = Space(slots, budget)
        for past in (False, True):
            elt = _random_element(rng, sp, past)
            # twice: the second call reads the cached column entries
            for _ in range(2):
                got = _outcome(apply_at, f, elt, at)
                assert got == _outcome(_reference_apply_at, f, elt, at)
                seen.add(got[0] if got[0] == "value" else got[2].split()[0])
            x = _random_element(rng, dom, past)
            got = _outcome(f.apply, x)
            assert got == _outcome(_reference_apply, f, x)
            seen.add("apply-" + got[0])
    # the trials reached every branch: results, overflow and missing columns
    assert {"value", "label", "no", "apply-value", "apply-raise"} <= seen


def test_kernel_cancelling_terms_keep_the_reference_order():
    P = Space((Slot("P", range(4), {i: i for i in range(4)}),), 3)
    # 0 -> 1 + 2, 1 -> 1 - 2, 2 -> 2: summing cancels (2,) and brings it back
    f = LinMap(P, P, {(0,): Element(P, {(1,): 1, (2,): 1}),
                      (1,): Element(P, {(1,): 1, (2,): -1}),
                      (2,): Element(P, {(2,): 1}),
                      (3,): Element.zero(P)})
    elt = Element(P, {(0,): 1, (1,): 1, (2,): 3, (3,): 5})
    for fn, ref, args in ((apply_at, _reference_apply_at, (f, elt, 0)),
                          (LinMap.apply, _reference_apply, (f, elt))):
        got = _outcome(fn, *args)
        assert got == _outcome(ref, *args)
        assert got[2] == [((1,), Fraction(2)), ((2,), Fraction(3))]
    everything = Element(P, {(0,): 1, (1,): -1, (2,): -2})
    assert apply_at(f, everything, 0).is_zero()
    assert f.apply(everything).is_zero()


def test_kernel_entries_belong_to_their_map():
    P = Space((Slot("P", range(4), {i: i for i in range(4)}),), 3)
    double = LinMap.from_function(P, P, lambda l: 2 * Element.basis_vector(P, l))
    shift = LinMap.from_function(
        P, P, lambda l: Element(P, {(l[0] + 1,): 1} if l[0] < 3 else {}))
    elt = Element(P, {(0,): 1, (2,): 1})
    for _ in range(2):
        assert apply_at(double, elt, 0) == 2 * elt
        assert apply_at(shift, elt, 0).coeffs == {(1,): 1, (3,): 1}
        assert double.apply(elt) == 2 * elt
        assert shift.apply(elt).coeffs == {(1,): 1, (3,): 1}


def test_a_unit_coefficient_that_is_not_ONE_applies_like_a_basis_vector():
    P = Space((Slot("P", range(4), {i: i for i in range(4)}),), 3)
    # columns mixing coefficient 1 (rebound to ONE in the term entry) and others
    f = LinMap(P, P, {(0,): Element(P, {(1,): 1, (2,): Fraction(-3, 2)}),
                      (1,): Element(P, {(3,): 2, (1,): 1}),
                      (2,): Element(P, {(2,): 1}),
                      (3,): Element.zero(P)})
    PP = Space(P.slots * 2, 3)
    for lab in [(0,), (1,), (2,), (3,)]:
        x = Element(P, {lab: Fraction(1)})
        assert x.coeffs[lab] == 1 and x.coeffs[lab] is not ONE
        want = f.apply(Element.basis_vector(P, lab))
        got = f.apply(x)
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert got.space == want.space
        assert all(type(c) is Fraction for c in got.coeffs.values())
        pair = (0,) + lab
        x2 = Element(PP, {pair: Fraction(1)})
        want2 = apply_at(f, Element.basis_vector(PP, pair), 1)
        got2 = apply_at(f, x2, 1)
        assert list(got2.coeffs.items()) == list(want2.coeffs.items())
        assert got2.space == want2.space


def test_term_entries_share_the_column_dict():
    P = Space((Slot("P", range(4), {i: i for i in range(4)}),), 3)
    PP = Space(P.slots * 2, 3)
    col = Element(P, {(1,): Fraction(2, 2), (2,): Fraction(3)})
    one = col.coeffs[(1,)]
    assert one == 1 and one is not ONE
    f = LinMap(P, P, {(0,): col})
    x = Element(P, {(0,): Fraction(5)})
    pair = Element(PP, {(1, 0): Fraction(5)})
    want = [((1,), Fraction(5)), ((2,), Fraction(15))]
    want_at = [((1, 1), Fraction(5)), ((1, 2), Fraction(15))]
    # the entry is the column's own dict, its 1 rebound to the shared ONE
    assert f._terms((0,))[0] is col.coeffs
    assert col.coeffs[(1,)] is ONE
    assert list(col.coeffs.items()) == [((1,), 1), ((2,), 3)]
    for _ in range(2):
        assert list(f.apply(x).coeffs.items()) == want
        assert list(apply_at(f, pair, 1).coeffs.items()) == want_at
    # a unit input coefficient takes the column's coefficients as they are
    assert f.apply(Element.basis_vector(P, (0,))).coeffs[(1,)] is ONE


def test_apply_at_result_space_follows_position_and_budget():
    T = Slot("T", ["t"], {"t": 1})
    f = LinMap.from_function(Space((_P,)), Space((T,)),
                             lambda l: Element.basis_vector(Space((T,)), ("t",)))
    for budget in (3, 4, None):
        sp = Space((_P, _P), budget)
        elt = Element(sp, {(1, 2): 1})
        for at in (0, 1, 0):
            got = _outcome(apply_at, f, elt, at)
            assert got == _outcome(_reference_apply_at, f, elt, at)
            assert got[1] == Space((_P, T) if at else (T, _P), budget)


def test_element_coerces_and_filters_without_validation():
    V = _flat(["x", "y", "z", "w", "t"], "V")
    e = Element(V, {("x",): 2, ("y",): "3/4", ("z",): 0, ("w",): "0/5",
                    ("t",): Fraction(-1, 3)}, validate=False)
    assert list(e.coeffs.items()) == [(("x",), Fraction(2)),
                                      (("y",), Fraction(3, 4)),
                                      (("t",), Fraction(-1, 3))]
    assert all(type(c) is Fraction for c in e.coeffs.values())
    with pytest.raises(SpaceMismatch):
        Element(V, {("q",): 1})


# ---------------------------------------------------------------------------
# from_function builds each column on its first read

def test_from_function_builds_columns_on_first_read_in_basis_order():
    from hopfcross.exact import TruncationOverflow
    P = _poly_space(6)
    calls = []

    def col(lab):
        calls.append(lab)
        if lab[0] == 5:
            raise TruncationOverflow("left the budget")
        return (lab[0] + 1) * Element.basis_vector(P, lab)

    f = LinMap.from_function(P, P, col, partial=True)
    assert calls == []
    assert f.columns[(3,)].coeffs == {(3,): 4}
    assert f.columns.get((1,)).coeffs == {(1,): 2}
    assert (5,) not in f.columns and f.columns.get((5,)) is None
    with pytest.raises(KeyError):
        f.columns[(5,)]
    # labels outside the domain are absent and never reach fn
    assert f.columns.get((7,)) is None and (9,) not in f.columns
    assert f.columns.get(3) is None
    with pytest.raises(TruncationOverflow):
        f.apply(Element.basis_vector(P, (5,)))
    assert calls == [(3,), (1,), (5,)]
    # whole-map reads build the rest once, in basis order
    want = {(n,): (n + 1) * Element.basis_vector(P, (n,))
            for n in range(7) if n != 5}
    assert list(f.columns) == list(want)
    assert want == f.columns and f.columns == want
    assert not (f.columns != want)
    assert sorted(calls) == [(n,) for n in range(7)]
    assert f == LinMap(P, P, want)


def test_from_function_checks_the_column_space_when_built():
    V = _flat(["x", "y"], "V")
    W = _flat(["z"], "W")
    f = LinMap.from_function(V, V, lambda lab: Element.basis_vector(
        W, ("z",)) if lab == ("y",) else Element.basis_vector(V, lab))
    assert f.columns[("x",)].coeffs == {("x",): 1}
    with pytest.raises(SpaceMismatch):
        f.columns[("y",)]


def test_total_map_overflow_is_loud_inside_compare_on():
    from hopfcross.exact import ColumnOverflow, TruncationOverflow
    from hopfcross.hopf import compare_on
    P = _poly_space(4)

    def col(lab):
        if lab == (2,):
            raise TruncationOverflow("left the budget")
        return Element.basis_vector(P, lab)

    f = LinMap.from_function(P, P, col)
    with pytest.raises(ColumnOverflow):
        compare_on(P, lambda x, t: f.apply(x), lambda x, t: x)
    # the same map made partial counts the label as skipped
    g = LinMap.from_function(P, P, col, partial=True)
    res = compare_on(P, lambda x, t: g.apply(x), lambda x, t: x)
    assert (res.checked, res.skipped, res.passed) == (4, 1, True)


def _reference_basis_vector(space, label, coeff=1):
    """Element.basis_vector as it was before its coefficient-1 path."""
    return Element(space, {label: Fraction(coeff)})


@pytest.mark.parametrize("coeff", [0, 1, Fraction(1, 2), Fraction(1), 1.0])
def test_basis_vector_matches_validating_construction(coeff):
    P = _poly_space(3)
    V = _flat(["x", "y"], "V")
    for space, lab in ((P, (2,)), (V, ("y",)), (KSPACE, ())):
        got = Element.basis_vector(space, lab, coeff)
        want = _reference_basis_vector(space, lab, coeff)
        assert got == want and list(got.coeffs) == list(want.coeffs)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        # every call owns its coefficient dict
        again = Element.basis_vector(space, lab, coeff)
        assert again.coeffs is not got.coeffs
        again.coeffs[lab] = Fraction(7)
        assert Element.basis_vector(space, lab, coeff) == want


@pytest.mark.parametrize("coeff", [1, Fraction(1, 2)])
def test_basis_vector_rejects_labels_like_the_validating_construction(coeff):
    # atoms 0..5 of degree n, budget 3: (4,) leaves only the budget
    P = Space((Slot("P", range(6), {n: n for n in range(6)}),), budget=3)
    V = _flat(["x", "y"], "V")
    bad = [(P, (4,)), (P, (7,)), (P, (1, 1)), (V, ("z",)), (V, ()),
           (KSPACE, ("x",))]
    for space, lab in bad:
        outcomes = []
        for make in (Element.basis_vector, _reference_basis_vector):
            with pytest.raises((SpaceMismatch, TruncationOverflow)) as info:
                make(space, lab, coeff)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1], (space, lab)
    with pytest.raises(TruncationOverflow, match="exceeds budget 3"):
        Element.basis_vector(P, (4,))


def _reference_add_basis_term(out, space, lab, c):
    """add_basis_term as it was: every new key computed as 0 + c."""
    if not space.contains(lab):
        raise space.label_error(lab)
    v = out.get(lab, 0) + c
    if v:
        out[lab] = v
    else:
        out.pop(lab, None)


@pytest.mark.parametrize("seed", range(6))
def test_add_basis_term_matches_reference_on_cancelling_sequences(seed):
    from hopfcross.exact import add_basis_term
    rng = random.Random(seed)
    P = _poly_space(4)
    values = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
              Fraction(3), 2, -2]
    got, want = {}, {}
    for _ in range(200):
        lab = (rng.randrange(5),)
        c = rng.choice(values)
        add_basis_term(got, P, lab, c)
        _reference_add_basis_term(want, P, lab, c)
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == \
            [type(v) for v in want.values()]
    with pytest.raises(SpaceMismatch):
        add_basis_term(got, P, (5,), Fraction(1))


def test_compare_on_filters_by_a_budget_below_the_space_budget():
    from hopfcross.hopf import compare_on
    P = _poly_space(4)
    seen = []

    def side(x, t):
        seen.append(t)
        assert x == Element.basis_vector(P, t)
        return x

    res = compare_on(P, side, lambda x, t: x, budget=2)
    assert (res.checked, res.skipped) == (3, 0)
    assert seen == [(0,), (1,), (2,)]
    for budget in (None, 4, 9):
        assert compare_on(P, side, lambda x, t: x, budget=budget).checked == 5
    V = _flat(["x", "y"], "V")
    assert compare_on(V, lambda x, t: x, lambda x, t: x, budget=0).checked == 2


def _poly_space_past(N):
    """k[Y] with atoms Y^0..Y^(N+2) and budget N: Y^(N+1) leaves the budget."""
    labels = range(N + 3)
    return Space((Slot("P", labels, {n: n for n in labels}),), budget=N)


def test_zero_coefficient_label_is_still_checked():
    P = _poly_space_past(3)
    for coeff in (0, 1, Fraction(1, 2)):
        with pytest.raises(SpaceMismatch):
            Element.basis_vector(P, ("nope",), coeff)
        with pytest.raises(TruncationOverflow):
            Element(P, {(4,): coeff})
    assert Element(P, {(2,): 0}).is_zero()


def test_solution_space_drops_an_unknown_whose_value_overflows():
    # x -> Y x on k[Y] truncated at 3: Y^3 has no value inside the budget,
    # so it adds no term and comes out free; the others must vanish
    P = _poly_space_past(3)
    unknowns = [Element.basis_vector(P, (n,)) for n in range(4)]

    def times_y(x):
        return Element(P, {(n + 1,): c for (n,), c in x.coeffs.items()})

    assert solution_space(P, unknowns, [times_y]) == [unknowns[3]]
    # no condition: the free-variable form is the unknowns themselves
    assert solution_space(P, unknowns, []) == unknowns


def test_solution_space_combines_the_unknowns():
    V = _flat(["a", "b", "c"])
    u = [Element(V, {("a",): 1, ("b",): 1}), Element(V, {("c",): 2})]

    def coordinate_difference(x):    # a - c/2 must vanish
        return Element(KSPACE, {(): x.coeffs.get(("a",), 0)
                                - x.coeffs.get(("c",), 0) / 2})

    sol = solution_space(V, u, [coordinate_difference])
    assert sol == [Element(V, {("a",): 1, ("b",): 1, ("c",): 2})]
    assert echelon_basis(V, [Element(V, {("b",): 2, ("c",): 2}),
                             Element(V, {("a",): 3})]) == [
        Element(V, {("a",): 1}), Element(V, {("b",): 1, ("c",): 1})]


def test_kernel_of_a_partial_map_with_a_missing_column_raises():
    P = _poly_space(2)

    def col(lab):
        if lab == (2,):
            raise TruncationOverflow("no column")
        return Element.zero(P)

    with pytest.raises(KeyError):
        kernel_image_quotient(LinMap.from_function(P, P, col, partial=True))


# ---------------------------------------------------------------------------
# every solve goes through rref: nullspace, invert_linmap, element_inverse

def _reference_nullspace(rows, ncols):
    """nullspace as dense vectors read off rref, then made sparse."""
    red, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, piv in zip(red, pivots):
            vec[piv] = -row.get(fc, Fraction(0))
        basis.append({j: v for j, v in enumerate(vec) if v})
    return basis


def _random_sparse_rows(rng, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        rows.append({j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for j in rng.sample(range(ncols), ncols)
                     if rng.random() < density})
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_is_sparse_and_matches_a_dense_reference(seed):
    rng = random.Random(seed)
    for _ in range(20):
        ncols = rng.randint(1, 9)
        rows = _random_sparse_rows(rng, rng.randint(0, 9), ncols,
                                   rng.choice((0.0, 0.2, 0.5)))
        rows.insert(rng.randint(0, len(rows)), {})      # an empty row
        got = nullspace(rows, ncols)
        want = _reference_nullspace(rows, ncols)
        assert [list(v.items()) for v in got] == \
            [list(v.items()) for v in want]
        _, pivots = rref(rows)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(got) == len(free)
        for vec, fc in zip(got, free):
            assert list(vec) == sorted(vec)
            assert all(type(v) is Fraction and v for v in vec.values())
            assert vec[fc] == 1 and max(vec) == fc
            for row in rows:
                assert sum(v * vec.get(j, 0) for j, v in row.items()) == 0
    # an all-pivot system has only the zero solution
    full = [{j: Fraction(1) for j in range(i, 4)} for i in range(4)]
    assert nullspace(full, 4) == []
    assert nullspace([{}, {}], 2) == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("seed", range(4))
def test_invert_linmap_on_random_graded_bijections(seed):
    rng = random.Random(seed)
    sizes = {0: 2, 1: 3, 2: 2, 3: 1}
    labels = ["x%d_%d" % (d, i) for d, n in sizes.items() for i in range(n)]
    S = Slot("S", labels, {lab: int(lab[1]) for lab in labels})
    V = Space((S,), budget=3)
    by_degree = S.labels_by_degree()
    for _ in range(5):
        while True:
            cols = {}
            for (lab,) in V.basis():
                block = by_degree[S.degree(lab)]
                cols[(lab,)] = Element(V, {
                    (m,): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for m in block})
            f = LinMap(V, V, cols)
            try:
                inv = invert_linmap(f)
                break
            except NotInvertible:
                continue
        assert compose(f, inv) == LinMap.identity(V)
        assert compose(inv, f) == LinMap.identity(V)


def test_element_inverse_on_the_dual_numbers():
    from hopfcross.actions import AlgebraData
    D = AlgebraData.from_table(
        "D", ["1", "t"],
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1}},
        "1")
    one, t = (Element.basis_vector(D.space, (lab,)) for lab in ("1", "t"))
    assert D.element_inverse(one + t) == one - t
    assert D.element_inverse(2 * one) == Fraction(1, 2) * one
    with pytest.raises(NotInvertible, match="^element has no right inverse$"):
        D.element_inverse(t)
