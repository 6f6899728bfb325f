"""Command-line surface.

Exit codes: 0 = all checks pass, 1 = a verification failed, 2 = input error,
3 = inconclusive at the explored budget.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .exact import Element, rat
from .hopf import (LieSpec, verify_antipode, verify_braided_bialgebra)
from .actions import InvalidAction, verify_module_algebra
from .convolution import ConvMap
from .sweedler import (SweedlerContext, additive_coboundary, conv_exp,
                       conv_log, differential, gimel, barr_differential, h0)
from .ce import CEAlgebra, CETransposition, xi_space, xi_differential_matrix
from .crossed import (check_cocycle_conditions, trivial_cocycle,
                      CrossedProductAlgebra, verify_crossed_product)
from .workbench import (InputError, NotJordanForm,
                        WorkbenchSpec, build_group_instance,
                        build_lie_instance, build_poly2_instance,
                        classify_crossed_products, poly_alpha_maps,
                        presentation_relations, xi2_cocycle)

OK, FAIL, BADINPUT, INCONCLUSIVE = 0, 1, 2, 3


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    else:
        for line in doc.get("lines", []):
            out.write(line + "\n")


def _report_doc(reports):
    lines, checks = [], {}
    ok = True
    for rep in reports:
        lines.extend(rep.summary().splitlines())
        for c in rep.checks:
            checks[c.name] = {"passed": c.passed, "checked": c.checked,
                              "skipped": c.skipped}
        ok = ok and rep.ok
    return {"ok": ok, "lines": lines, "checks": checks}


def cmd_verify(args, out):
    spec = WorkbenchSpec.load(args.spec)
    if args.budget:
        spec.budget = args.budget
    reports = []
    if spec.kind == "group":
        hopf, mad = build_group_instance(spec)
        reports.append(verify_braided_bialgebra(hopf))
        reports.append(verify_antipode(hopf))
        if mad is not None:
            reports.append(verify_module_algebra(mad))
    elif spec.kind == "poly2":
        mad = build_poly2_instance(spec)
        reports.append(verify_braided_bialgebra(mad.hopf, budget=spec.budget))
        reports.append(verify_antipode(mad.hopf, budget=spec.budget))
        reports.append(verify_module_algebra(mad, budget=spec.budget))
    else:
        lie, hopf = build_lie_instance(spec)
        reports.append(verify_braided_bialgebra(hopf, budget=spec.budget))
        reports.append(verify_antipode(hopf, budget=spec.budget))
        ce = CEAlgebra(lie)
        from .hopf import Report, CheckResult
        rep = Report("resolution identities")
        res = CheckResult("ce.d_squared_zero")
        res2 = CheckResult("ce.homotopy_scaling")
        for n in range(0, min(3, lie.dim) + 1):
            for mono in ce.monomials(n, min(spec.budget or 3, 3)):
                res.checked += 1
                if ce.differential(ce.differential({mono: Fraction(1)})):
                    res.failures.append(mono)
                for p, part in ce.p_decompose({mono: Fraction(1)}).items():
                    res2.checked += 1
                    tot = {}
                    for d in (ce.gamma(ce.differential(part)),
                              ce.differential(ce.gamma(part))):
                        for k, v in d.items():
                            tot[k] = tot.get(k, Fraction(0)) + v
                    want = {k: p * v for k, v in part.items()}
                    if {k: v for k, v in tot.items() if v} != \
                            {k: v for k, v in want.items() if v}:
                        res2.failures.append(mono)
        rep.add(res)
        rep.add(res2)
        reports.append(rep)
    doc = _report_doc(reports)
    _emit(doc, args.format, out)
    return OK if doc["ok"] else FAIL


def cmd_cohomology(args, out):
    spec = WorkbenchSpec.load(args.spec)
    if args.budget:
        spec.budget = args.budget
    lines = []
    data = {"degree": args.degree}
    code = OK
    if spec.kind == "group":
        hopf, mad = build_group_instance(spec)
        if mad is None:
            raise InputError("group spec has no coefficient algebra")
        carrier, _ = h0(mad)
        data["H0_carrier_dim"] = len(carrier)
        lines.append("H0 carrier dimension: %d (plus unit-group "
                     "invertibility test)" % len(carrier))
        if args.degree >= 1:
            lines.append("degree %d: multiplicative complex; predicates "
                         "available, dimensions not linearizable" % args.degree)
            data["note"] = "predicates only"
    else:
        if spec.kind == "poly2":
            mad = build_poly2_instance(spec)
        else:
            raise InputError("cohomology dimensions: use poly2 or group kinds")
        ce = CEAlgebra(LieSpec.abelian(2))
        trans = CETransposition(ce, mad, poly_alpha_maps(mad))
        window = spec.budget - 1
        xs = [xi_space(ce, n, trans, window=window) for n in (0, 1, 2)]
        if args.degree > 2:
            lines.append("degree %d: the resolution has length 2; H^n = 0"
                         % args.degree)
            data["H_dim"] = 0
        else:
            from .exact import rref
            A = mad.algebra
            a_labels = list(A.space.basis())
            aidx = {l: i for i, l in enumerate(a_labels)}

            def rank(images, e_sets):
                rows = []
                for img in images:
                    row = {}
                    for si, S in enumerate(e_sets):
                        for l, v in img.get(S, Element.zero(A.space)).coeffs.items():
                            if A.space.degree(l) > window:
                                continue    # outside the cokernel window
                            row[si * len(a_labels) + aidx[l]] = v
                    rows.append(row)
                _, piv = rref(rows)
                return len(piv)

            n = args.degree
            if n < 2:
                hi_imgs, of_hi = xi_differential_matrix(ce, trans, xs[n], xs[n + 1], n + 1)
                rank_hi = rank(hi_imgs, xs[n + 1].e_sets)
            else:
                rank_hi, of_hi = 0, False
            kernel = xs[n].dim - rank_hi
            if n > 0:
                lo_imgs, of_lo = xi_differential_matrix(ce, trans, xs[n - 1], xs[n], n)
                rank_lo = rank(lo_imgs, xs[n].e_sets)
            else:
                rank_lo, of_lo = 0, False
            data["H_dim"] = kernel - rank_lo
            data["window"] = window
            lines.append("H^%d dimension at window %d: %d"
                         % (n, window, data["H_dim"]))
            if of_hi or of_lo:
                lines.append("caveat: differential met the truncation boundary")
                code = INCONCLUSIVE
    doc = {"ok": True, "lines": lines, **data}
    _emit(doc, args.format, out)
    return code


def cmd_crossed_product(args, out):
    spec = WorkbenchSpec.load(args.spec)
    if args.budget:
        spec.budget = args.budget
    if spec.kind != "poly2":
        raise InputError("crossed-product builds need a poly2 spec")
    with open(args.cocycle) as fh:
        cdoc = json.load(fh)
    mad = build_poly2_instance(spec)
    ctx = SweedlerContext(mad)
    kind = cdoc.get("kind", "trivial")
    if kind == "trivial":
        f = trivial_cocycle(ctx)
    elif kind == "xi2":
        b = Element(mad.algebra.space,
                    {(i,): rat(c) for i, c in enumerate(cdoc["b"]) if rat(c) != 0})
        f = xi2_cocycle(ctx, b) if not b.is_zero() else trivial_cocycle(ctx)
    elif kind == "table":
        C2 = ctx.domain(2)
        table = {}
        for key, val in cdoc["values"].items():
            u, v = key.split("|")
            lab = (tuple(int(x) for x in u.split(",")),
                   tuple(int(x) for x in v.split(",")))
            table[lab] = Element(mad.algebra.space,
                                 {(int(e),): rat(c) for e, c in val.items()})
        e2 = ctx.unit_cochain(2)
        f = ConvMap.from_function(C2, mad.algebra,
                                  lambda lab: table.get(lab, e2(lab)))
    else:
        raise InputError("unknown cocycle kind %r" % kind)
    coc = check_cocycle_conditions(ctx, f)
    lines = ["cocycle flags: %r" % coc]
    if not coc.all_flags:
        _emit({"ok": False, "lines": lines, "flags": repr(coc)}, args.format, out)
        return FAIL
    cp = CrossedProductAlgebra(ctx, coc)
    rep = verify_crossed_product(cp, budget=args.budget)
    lines.extend(rep.summary().splitlines())
    qinfo_rels = presentation_relations_from_spec(spec, mad)
    lines.append("presentation:")
    lines.extend("  " + r for r in qinfo_rels)
    doc = {"ok": rep.ok, "lines": lines, "relations": qinfo_rels}
    _emit(doc, args.format, out)
    return OK if rep.ok else FAIL


def presentation_relations_from_spec(spec, mad):
    from .workbench import classify_Q
    from .actions import PolyActionSpec
    Q, beta1, beta2 = spec.poly2
    qinfo = classify_Q(Q)
    aspec = PolyActionSpec(Q, beta1, beta2)
    return presentation_relations(qinfo["case"], qinfo, aspec, "")


def cmd_classify(args, out):
    spec = WorkbenchSpec.load(args.spec)
    if args.budget:
        spec.budget = args.budget
    report = classify_crossed_products(spec)
    if args.format == "json":
        out.write(report.as_json() + "\n")
    else:
        out.write(report.as_text() + "\n")
    return OK


def cmd_compare(args, out):
    spec = WorkbenchSpec.load(args.spec)
    if args.budget:
        spec.budget = args.budget
    rng = random.Random(args.seed)
    lines = []
    ok = True
    if spec.kind == "poly2":
        mad = build_poly2_instance(spec)
        ctx = SweedlerContext(mad)
        C1, C2 = ctx.domain(1), ctx.domain(2)
        A = mad.algebra
        # exp/log roundtrips on random degree-bounded normalized cochains
        for trial in range(args.samples):
            f = _random_additive(rng, ctx, 2)
            if conv_log(conv_exp(f)) != f:
                ok = False
                lines.append("exp/log roundtrip FAILED at trial %d" % trial)
                break
        else:
            lines.append("exp/log roundtrip: %d samples exact" % args.samples)
        # exp intertwines the coboundaries
        for trial in range(max(1, args.samples // 2)):
            f = _random_additive(rng, ctx, 1)
            lhs = conv_exp(additive_coboundary(ctx, f))
            rhs = differential(ctx, conv_exp(f))
            if any(lhs(l) != rhs(l) for l in C2.space.basis()):
                ok = False
                lines.append("exp(delta f) = D(exp f) FAILED at trial %d" % trial)
                break
        else:
            lines.append("exp(delta f) = D(exp f): %d samples exact"
                         % max(1, args.samples // 2))
        # bar-side vs resolution-side verdicts
        agree = _bar_vs_resolution(ctx, lines)
        ok = ok and agree
    elif spec.kind == "group":
        hopf, mad = build_group_instance(spec)
        if mad is None or not hasattr(mad, "grading"):
            raise InputError("compare on group specs needs a graded instance")
        ctx = SweedlerContext(mad)
        group = mad.group
        for n in (0, 1, 2):
            for trial in range(3):
                phi = _random_group_cochain(rng, ctx, n)
                lhs = gimel(ctx, differential(ctx, phi))
                rhs = barr_differential(ctx, gimel(ctx, phi), n)
                if any(lhs[k] != rhs[k] for k in lhs):
                    ok = False
                    lines.append("homogenization does not transport D at n=%d" % n)
                    break
            else:
                continue
            break
        else:
            pass
        if ok:
            lines.append("homogenized differential agrees for n <= 2 "
                         "(exhaustive over tuples)")
    else:
        raise InputError("compare supports poly2 and group kinds")
    doc = {"ok": ok, "lines": lines}
    _emit(doc, args.format, out)
    return OK if ok else FAIL


def _random_additive(rng, ctx, n):
    """Random normalized additive cochain with value degree bounded by the
    tuple degree, so all series and products stay inside the budget."""
    C = ctx.domain(n)
    A = ctx.mad.algebra
    cols = {}
    for lab in C.space.basis():
        if any(s.degree(a) == 0 for s, a in zip(C.space.slots, lab)):
            cols[lab] = Element.zero(A.space)
            continue
        deg = C.space.degree(lab)
        choices = [al for al in A.space.basis() if A.space.degree(al) <= deg]
        vals = {}
        for al in choices:
            if rng.random() < 0.4:
                vals[al] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cols[lab] = Element(A.space, vals)
    from .exact import LinMap
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def _random_group_cochain(rng, ctx, n):
    mad = ctx.mad
    group = mad.group
    A = mad.algebra
    C = ctx.domain(n)
    autos = mad.autos
    vals = {}
    for lab in C.space.basis():
        if lab in vals:
            continue
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        vals[lab] = c
        # enforce invariance under every grading automorphism (s-centrality)
        stack = [lab]
        while stack:
            cur = stack.pop()
            for table in autos.values():
                moved = tuple(table[g] for g in cur)
                if moved not in vals:
                    vals[moved] = c
                    stack.append(moved)
    from .exact import LinMap
    cols = {lab: vals[lab] * A.unit for lab in vals}
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def _bar_vs_resolution(ctx, lines):
    """Transported cocycle/coboundary verdicts agree between the two sides."""
    from .hopf import LieSpec
    from .ce import (BarComparison, CEAlgebra, CETransposition,
                     evaluate_bimodule_cochain, xi_space, xi_differential_matrix)
    from .workbench import poly_alpha_maps, xi2_cocycle
    mad = ctx.mad
    N = mad.algebra.space.budget
    ce = CEAlgebra(LieSpec.abelian(2))
    trans = CETransposition(ce, mad, poly_alpha_maps(mad))
    xi1 = xi_space(ce, 1, trans, window=N - 1)
    xi2 = xi_space(ce, 2, trans, window=N - 1)
    imgs, _ = xi_differential_matrix(ce, trans, xi1, xi2, 2)
    # every d2-image class transports to an additive coboundary on the bar side
    bc = BarComparison(ce, mad.hopf)
    agree = True
    from .convolution import conv_equal
    skipped_total = 0
    for f1, img in zip(xi1.basis[:3], imgs[:3]):
        b = img[(0, 1)]
        g2 = _transport(ctx, ce, bc, mad, {(0, 1): b})     # Xi(D2) -> C^2_s
        g1 = _transport(ctx, ce, bc, mad, {(0,): f1[(0,)], (1,): f1[(1,)]})
        same, _, skipped = conv_equal(additive_coboundary(ctx, g1), g2)
        skipped_total += skipped
        if not same:
            agree = False
            break
    lines.append("bar-side transport of d2 matches the additive coboundary: %s"
                 "%s" % (agree, " [skipped (budget): %d]" % skipped_total
                         if skipped_total else ""))
    return agree


def _transport(ctx, ce, bc, mad, values):
    from .ce import evaluate_bimodule_cochain
    n = len(next(iter(values)))
    C = ctx.domain(n)
    A = mad.algebra

    def fn(lab):
        if any(sum(a) == 0 for a in lab):
            return Element.zero(A.space)
        zdict = bc.Phi((bc.unit_atom, lab, bc.unit_atom))
        return evaluate_bimodule_cochain(ce, mad, values, zdict)

    return ConvMap.from_function(C, A, fn, partial=True)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopfcross",
        description="exact workbench for braided Hopf algebra cohomology "
                    "and crossed products")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="workbench spec file (JSON)")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the axiom suites")
    common(p)
    p = sub.add_parser("cohomology", help="cohomology predicates/dimensions")
    common(p)
    p.add_argument("--degree", type=int, default=2)
    p = sub.add_parser("crossed-product", help="build and check A#_f H")
    common(p)
    p.add_argument("--cocycle", required=True)
    p = sub.add_parser("classify", help="the two-variable classification")
    common(p)
    p = sub.add_parser("compare", help="exp/log, homogenization, bar-vs-CE")
    common(p)
    p.add_argument("--samples", type=int, default=10)
    return ap


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "verify": cmd_verify,
        "cohomology": cmd_cohomology,
        "crossed-product": cmd_crossed_product,
        "classify": cmd_classify,
        "compare": cmd_compare,
    }[args.command]
    try:
        return handler(args, out)
    except (InputError, NotJordanForm, InvalidAction, FileNotFoundError,
            json.JSONDecodeError) as exc:
        out.write("input error: %s\n" % exc)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
