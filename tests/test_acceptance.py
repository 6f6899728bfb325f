"""The acceptance gate: every criterion at its stated tolerance.

All arithmetic is exact rational, so "tolerance" everywhere means literal
equality; the two runtime targets are asserted with wall-clock bounds.
Each criterion prints one PASS line (visible with pytest -s / on failure).
"""

import itertools
import random
import time

from fractions import Fraction

from hopfcross.exact import Element, LinMap
from hopfcross.hopf import (GroupSpec, LieSpec, build_group_algebra,
                            build_truncated_enveloping,
                            build_truncated_poly_hopf, verify_antipode,
                            verify_braided_bialgebra)
from hopfcross.actions import build_poly_action
from hopfcross.convolution import (ConvMap, NotConvolutionInvertible,
                                   conv_inverse, conv_unit, convolve,
                                   is_psi_central, is_psi_compatible)
from hopfcross.sweedler import (SweedlerContext, additive_coboundary,
                                barr_differential, conv_exp, conv_log,
                                differential, digamma_membership, gimel,
                                gimel_inverse, h0)
from hopfcross.ce import (BarComparison, CEAlgebra, CETransposition, xi_space)
from hopfcross.crossed import (CrossedProductAlgebra, check_cocycle_conditions,
                               check_equivalence, trivial_cocycle,
                               verify_crossed_product)
from hopfcross.workbench import (WorkbenchSpec, build_and_verify_presentation,
                                 classify_crossed_products, h2_correspondence,
                                 poly_alpha_maps, xi2_cocycle)

from sampling import random_combination


def _report(num, label, ok):
    print("ACCEPTANCE %2d [%s]: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (num, label)


def test_acceptance_01_axiom_suites():
    t0 = time.monotonic()
    instances = [
        build_group_algebra(GroupSpec.cyclic(2)),
        build_group_algebra(GroupSpec.cyclic(3)),
        build_group_algebra(GroupSpec.symmetric(3)),
        build_truncated_poly_hopf(2, 6),
        build_truncated_enveloping(LieSpec.heisenberg(), 5),
    ]
    ok = True
    for h in instances:
        rep1 = verify_braided_bialgebra(h)
        rep2 = verify_antipode(h)
        ok = ok and rep1.ok and rep2.ok
        if not (rep1.ok and rep2.ok):
            print(rep1.summary())
            print(rep2.summary())
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _report(1, "axiom suites, %.1fs < 30s" % elapsed, ok)


def test_acceptance_02_convolution_closure_and_inverses(sign_action,
                                                        z3_graded):
    rng = random.Random(2024)
    ok = True
    pairs_per_instance = 100
    for mad, n in ((sign_action, 1), (sign_action, 2), (z3_graded, 1)):
        ctx = SweedlerContext(mad)
        ent = ctx.entwining(n)
        basis = [ctx.cochain(n, v) for v in ctx.carrier(n)]
        e = conv_unit(ent.coalgebra, ent.algebra)
        inverses = 0
        for _ in range(pairs_per_instance):
            f = random_combination(rng, basis)
            g = random_combination(rng, basis)
            prod = convolve(f, g)
            if not (is_psi_compatible(prod, ent).passed
                    and is_psi_central(prod, ent).passed):
                ok = False
            try:
                fi = conv_inverse(e + f)
            except NotConvolutionInvertible:
                continue
            inverses += 1
            if not (is_psi_compatible(fi, ent).passed
                    and is_psi_central(fi, ent).passed):
                ok = False
        ok = ok and inverses >= 20
    _report(2, "closure and inverse preservation, 100 pairs x 3 instances", ok)


def _section7_cocycle(mad, b_coeffs):
    ctx = SweedlerContext(mad)
    A = mad.algebra
    b = Element(A.space, {(i,): Fraction(c) for i, c in enumerate(b_coeffs)
                          if Fraction(c) != 0})
    f = xi2_cocycle(ctx, b) if not b.is_zero() else trivial_cocycle(ctx)
    return ctx, f


def test_acceptance_03_crossed_product_associativity():
    # trivial cocycle plus two parameter choices per classification case
    cases = [
        ("1a", [[2, 1], [0, 2]], [0, 3], [0, 5], [[0], [0]]),
        ("1a'", [[-1, 1], [0, -1]], [0, 1], [0, 2], [[0], [1]]),
        ("1b", [[2, 0], [0, Fraction(1, 2)]], [0, 3], [0, 5], [[0], [2]]),
        ("2", [[1, 0], [0, 1]], [0, 1], [0], [[1], [0, 1]]),
        ("3a", [[-1, 0], [0, -1]], [0, 0, 0, 1], [0], [[1], [0, 0, 1]]),
        ("3b", [[-1, 0], [0, 1]], [0, 0, 0, 1], [0], [[0], [0]]),
    ]
    ok = True
    for tag, Q, b1, b2, params in cases:
        mad = build_poly_action(Q, b1, b2, 5)
        ce = CEAlgebra(LieSpec.abelian(2))
        tr = CETransposition(ce, mad, poly_alpha_maps(mad))
        xi2 = xi_space(ce, 2, tr, window=4)
        for b in [None] + params:
            if b is not None and any(Fraction(c) != 0 for c in b) \
                    and xi2.dim == 0:
                continue            # no nontrivial class exists in this case
            ctx, f = _section7_cocycle(mad, b or [0])
            coc = check_cocycle_conditions(ctx, f)
            if not coc.all_flags:
                ok = False
                continue
            cp = CrossedProductAlgebra(ctx, coc.f)
            rep = verify_crossed_product(cp, budget=3)
            ok = ok and rep.ok
            if not rep.ok:
                print(tag, b, rep.summary())
    _report(3, "crossed products associate on all triples within budget", ok)


def test_acceptance_04_h0_formula(sign_action):
    carrier, is_inv = h0(sign_action)
    ok = (len(carrier) == 1
          and carrier[0].coeffs == {("1",): 1}
          and is_inv(carrier[0])
          and not is_inv(Element.basis_vector(sign_action.algebra.space,
                                              ("t",))))
    _report(4, "H0 = scalar line with invertibility test", ok)


def _random_normalized(rng, ctx, n):
    C = ctx.domain(n)
    A = ctx.mad.algebra
    cols = {}
    for lab in C.space.basis():
        if any(s.degree(a) == 0 for s, a in zip(C.space.slots, lab)):
            cols[lab] = Element.zero(A.space)
            continue
        deg = C.space.degree(lab)
        vals = {(d,): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for d in range(deg + 1) if rng.random() < 0.35}
        cols[lab] = Element(A.space, vals)
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def test_acceptance_05_exp_log(case2_beta_y):
    ctx = SweedlerContext(case2_beta_y)
    rng = random.Random(55)
    ok = True
    for _ in range(50):
        f = _random_normalized(rng, ctx, 2)
        if conv_log(conv_exp(f)) != f:
            ok = False
            break
    C2 = ctx.domain(2)
    for _ in range(20):
        f = _random_normalized(rng, ctx, 1)
        lhs = conv_exp(additive_coboundary(ctx, f))
        rhs = differential(ctx, conv_exp(f))
        if any(lhs(l) != rhs(l) for l in C2.space.basis()):
            ok = False
            break
    _report(5, "exp/log roundtrip x50 and exp(delta f) = D(exp f) x20", ok)


def test_acceptance_06_ce_resolution():
    ok = True
    for lie in (LieSpec.abelian(2), LieSpec.heisenberg()):
        ce = CEAlgebra(lie)
        for n in range(0, min(3, lie.dim) + 1):
            for mono in ce.monomials(n, 5):
                if ce.differential(ce.differential({mono: Fraction(1)})):
                    ok = False
                for p, part in ce.p_decompose({mono: Fraction(1)}).items():
                    if p > 4:
                        continue
                    total = {}
                    for d in (ce.gamma(ce.differential(part)),
                              ce.differential(ce.gamma(part))):
                        for k, v in d.items():
                            total[k] = total.get(k, Fraction(0)) + v
                    want = {k: p * v for k, v in part.items()}
                    if {k: v for k, v in total.items() if v} != \
                            {k: v for k, v in want.items() if v}:
                        ok = False
        hopf = (build_truncated_poly_hopf(2, 5) if lie.dim == 2
                else build_truncated_enveloping(lie, 5))
        bc = BarComparison(ce, hopf)
        for n in range(0, min(3, lie.dim) + 1):
            for S in itertools.combinations(range(lie.dim), n):
                if bc.phi_recursive(S) != bc.phi_closed(S):
                    ok = False
                total = {}
                for key, c in bc.phi_recursive(S).items():
                    for m, v in bc.Phi(key).items():
                        total[m] = total.get(m, Fraction(0)) + c * v
                mono = ((0,) * lie.dim, tuple(S), (0,) * lie.dim)
                if {k: v for k, v in total.items() if v} != {mono: 1}:
                    ok = False
    _report(6, "resolution identities, comparison maps, retraction", ok)


def test_acceptance_07_section7_reproduction():
    ok = True
    budget = 8
    t_max = 0.0
    # case 2 with beta1 = Y^d: truncated H^2 dimension equals d
    for d in (1, 2, 3):
        t0 = time.monotonic()
        spec = WorkbenchSpec.parse({
            "kind": "poly2", "budget": budget,
            "payload": {"Q": [["1", "0"], ["0", "1"]],
                        "beta1": ["0"] * d + ["1"], "beta2": ["0"]}})
        rep = classify_crossed_products(spec)
        t_max = max(t_max, time.monotonic() - t0)
        if rep.data["H2_dim"] != d:
            ok = False
            print("case 2 d=%d gave H2=%s" % (d, rep.data["H2_dim"]))
    # the remaining cases at the same budget
    checks = [
        ({"Q": [["2", "1"], ["0", "2"]], "beta1": ["0", "3"],
          "beta2": ["0", "5"]}, "1a", 0),
        ({"Q": [["-1", "0"], ["0", "1"]], "beta1": ["0", "0", "0", "1"],
          "beta2": ["0"]}, "3b", 0),
        ({"Q": [["2", "0"], ["0", "1/2"]], "beta1": ["0", "3"],
          "beta2": ["0", "5"]}, "1b", 1),
        ({"Q": [["-1", "0"], ["0", "-1"]], "beta1": ["0", "0", "0", "1"],
          "beta2": ["0"]}, "3a", 4),     # k[Y^2] on the window 0..7: 4 dims
    ]
    for payload, tag, want in checks:
        t0 = time.monotonic()
        spec = WorkbenchSpec.parse({"kind": "poly2", "budget": budget,
                                    "payload": payload})
        rep = classify_crossed_products(spec)
        t_max = max(t_max, time.monotonic() - t0)
        if rep.data["case"] != tag or rep.data["xi_dims"][2] != want:
            ok = False
            print(tag, "->", rep.data["case"], rep.data["xi_dims"])
    ok = ok and t_max < 120
    _report(7, "section-7 classification at budget 8, max %.1fs/case < 120s"
            % t_max, ok)


def test_acceptance_08_presentation_oracle():
    ok = True
    runs = [
        ({"Q": [["1", "0"], ["0", "1"]], "beta1": ["0", "1"],
          "beta2": ["0"]}, 5, ["1"]),                       # Weyl-like
        ({"Q": [["1", "0"], ["0", "1"]], "beta1": ["0", "0", "1"],
          "beta2": ["0"]}, 5, ["0", "1"]),
        ({"Q": [["-1", "1"], ["0", "-1"]], "beta1": ["0", "1"],
          "beta2": ["0", "2"]}, 5, ["1"]),                  # 1a with q^2 = 1
        ({"Q": [["2", "0"], ["0", "1/2"]], "beta1": ["0", "3"],
          "beta2": ["0", "5"]}, 5, ["2"]),                  # 1b, lambda = 2
        ({"Q": [["-1", "0"], ["0", "-1"]], "beta1": ["0", "0", "0", "1"],
          "beta2": ["0"]}, 5, ["0", "0", "1"]),             # 3a, P = Y^2
        ({"Q": [["-1", "0"], ["0", "1"]], "beta1": ["0", "0", "0", "1"],
          "beta2": ["0"]}, 5, ["0"]),                       # 3b, forced 0
    ]
    for payload, budget, b in runs:
        spec = WorkbenchSpec.parse({"kind": "poly2", "budget": budget,
                                    "payload": payload})
        cp, rep = build_and_verify_presentation(spec, b, assoc_budget=3)
        ok = ok and rep.ok
        if not rep.ok:
            print(payload, b, rep.summary())
    # the named example: case 2 with b = 1 is the Weyl-like commutator
    spec = WorkbenchSpec.parse({
        "kind": "poly2", "budget": 5,
        "payload": {"Q": [["1", "0"], ["0", "1"]], "beta1": ["0", "1"],
                    "beta2": ["0"]}})
    cp, rep = build_and_verify_presentation(spec, ["1"], assoc_budget=3)
    H = cp.mad.hopf.space
    W1 = cp.include_hopf(Element.basis_vector(H, ((1, 0),)))
    W2 = cp.include_hopf(Element.basis_vector(H, ((0, 1),)))
    comm = cp.multiply(W1, W2) - cp.multiply(W2, W1)
    ok = ok and comm == cp.include_algebra(cp.mad.algebra.unit)
    _report(8, "every emitted presentation satisfies its own relations", ok)


def test_acceptance_09_group_variant(z3_graded):
    ctx = SweedlerContext(z3_graded)
    mad = z3_graded
    group = mad.hopf.group
    A = mad.algebra
    rng = random.Random(99)
    ok = True
    for n in (0, 1, 2):
        C = ctx.domain(n)
        for _ in range(3):
            vals = {}
            for lab in C.space.basis():
                if lab in vals:
                    continue
                c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                vals[lab] = c * A.unit
                vals[tuple(group.inverse(x) for x in lab)] = c * A.unit
            phi = ConvMap.from_table(C, A, vals)
            psi = ConvMap.from_table(
                C, A, {l: Fraction(2) * v for l, v in vals.items()})
            # group homomorphism, exhaustively over G^{n+1}
            tphi, tpsi = gimel(ctx, phi), gimel(ctx, psi)
            tprod = gimel(ctx, convolve(phi, psi))
            for tup in itertools.product(group.elements, repeat=n + 1):
                if tprod[tup] != A.multiply(tphi[tup], tpsi[tup]):
                    ok = False
            # bijectivity: the inverse dictionary recovers phi, and the image
            # satisfies the homogeneous-side membership conditions
            back = gimel_inverse(ctx, tphi, n)
            if any(back(l) != phi(l) for l in C.space.basis()):
                ok = False
            if digamma_membership(ctx, tphi, n):
                ok = False
            # commutes with the differentials, exhaustively over G^{n+2}
            lhs = gimel(ctx, differential(ctx, phi))
            rhs = barr_differential(ctx, tphi, n)
            for tup in itertools.product(group.elements, repeat=n + 2):
                if lhs[tup] != rhs[tup]:
                    ok = False
    _report(9, "homogenization is an isomorphism commuting with D, n <= 2", ok)


def test_acceptance_10_equivalence_theory(case2_beta_y):
    ctx = SweedlerContext(case2_beta_y)
    A = case2_beta_y.algebra
    ok = True
    # cohomologous pair: a coboundary twist of the trivial cocycle
    C1 = ctx.domain(1)
    uvals = {}
    for lab in C1.space.basis():
        (a, b), = lab
        if (a, b) == (0, 0):
            uvals[lab] = A.unit
        elif (a, b) == (1, 0):
            uvals[lab] = 3 * Element.basis_vector(A.space, (1,))
        elif (a, b) == (0, 1):
            uvals[lab] = Element.basis_vector(A.space, (1,))
        else:
            uvals[lab] = Element.zero(A.space)
    u0 = ConvMap.from_table(C1, A, uvals)
    fprime = differential(ctx, u0)
    verdict = h2_correspondence(ctx, fprime, trivial_cocycle(ctx))
    ok = ok and verdict.status == "cohomologous"
    if verdict.u is not None:
        rep, iso = check_equivalence(ctx, fprime, trivial_cocycle(ctx),
                                     verdict.u)
        ok = ok and rep.ok and iso is not None
    else:
        ok = False
    # the b = 1 class against the trivial cocycle is certified inconsistent
    ctx2, f = _section7_cocycle(case2_beta_y, [1])
    verdict2 = h2_correspondence(ctx2, f, trivial_cocycle(ctx2))
    ok = ok and verdict2.status == "inequivalent"
    _report(10, "coboundary witness found and nonzero class certified", ok)
