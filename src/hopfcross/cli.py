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

from .exact import LinMap, add_into
from .hopf import verify_antipode, verify_braided_bialgebra
from .actions import InvalidAction, verify_module_algebra
from .convolution import ConvMap, conv_equal
from .sweedler import (SweedlerContext, additive_coboundary, conv_exp,
                       conv_log, differential, gimel, barr_differential, h0)
from .ce import CEAlgebra, verify_resolution_identities
from .crossed import (check_cocycle_conditions, CrossedProductAlgebra,
                      verify_crossed_product)
from .workbench import (InputError, NotJordanForm, WorkbenchSpec,
                        build_instance, classify_crossed_products,
                        cocycle_from_doc, exact_h2_and_commutator,
                        presentation_relations, transport_cochain)

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


def cmd_verify(spec, args, out):
    inst = build_instance(spec)
    # a group's labels all have degree 0, so the budget filters nothing there
    reports = [verify_braided_bialgebra(inst.hopf, budget=spec.budget),
               verify_antipode(inst.hopf, budget=spec.budget)]
    if inst.mad is not None:
        reports.append(verify_module_algebra(inst.mad, budget=spec.budget))
    if inst.lie is not None:
        reports.append(verify_resolution_identities(CEAlgebra(inst.lie),
                                                    spec.budget))
    doc = _report_doc(reports)
    _emit(doc, args.format, out)
    return OK if doc["ok"] else FAIL


def cmd_cohomology(spec, args, out):
    lines = []
    data = {"degree": args.degree}
    code = OK
    inst = build_instance(spec)
    xi = inst.xi
    if xi is None:
        carrier, _ = h0(inst.need("mad", "coefficient algebra"))
        data["H0_carrier_dim"] = len(carrier)
        lines.append("H0 carrier dimension: %d (plus unit-group "
                     "invertibility test)" % len(carrier))
        if args.degree >= 1:
            # only H^0 is computed here; a higher degree has no answer yet
            lines.append("degree %d: multiplicative complex; predicates "
                         "available, dimensions not linearizable" % args.degree)
            data["note"] = "predicates only"
            code = INCONCLUSIVE
    else:
        if args.degree > xi.length:
            lines.append("degree %d: the resolution has length %d; H^n = 0"
                         % (args.degree, xi.length))
            data["H_dim"] = 0
        else:
            data["H_dim"], overflow = xi.cohomology_dim(args.degree)
            data["window"] = xi.window
            lines.append("H^%d dimension at window %d: %d"
                         % (args.degree, xi.window, data["H_dim"]))
            if overflow:
                lines.append("caveat: differential met the truncation boundary")
                code = INCONCLUSIVE
    doc = {"ok": True, "lines": lines, **data}
    _emit(doc, args.format, out)
    return code


def cmd_crossed_product(spec, args, out):
    mad = build_instance(spec).need("xi", "k[X1,X2] action").mad
    with open(args.cocycle) as fh:
        cdoc = json.load(fh)
    relations = presentation_relations(
        mad.poly_spec, exact_h2_and_commutator(mad.poly_spec)[1])
    ctx = SweedlerContext(mad)
    coc = check_cocycle_conditions(ctx, cocycle_from_doc(ctx, cdoc))
    lines = ["cocycle flags: %r" % coc]
    if not coc.all_flags:
        _emit({"ok": False, "lines": lines, "flags": repr(coc)}, args.format, out)
        return FAIL
    cp = CrossedProductAlgebra(ctx, coc.f)
    rep = verify_crossed_product(cp, budget=args.budget)
    lines.extend(rep.summary().splitlines())
    lines.append("presentation:")
    lines.extend("  " + r for r in relations)
    doc = {"ok": rep.ok, "lines": lines, "relations": relations}
    _emit(doc, args.format, out)
    return OK if rep.ok else FAIL


def cmd_classify(spec, args, out):
    report = classify_crossed_products(spec)
    if args.format == "json":
        out.write(report.as_json() + "\n")
    else:
        out.write(report.as_text() + "\n")
    return OK


def cmd_compare(spec, args, out):
    rng = random.Random(args.seed)
    lines = []
    ok = True
    inst = build_instance(spec)
    if inst.xi is not None:
        ctx = SweedlerContext(inst.mad)
        carrier = ctx.carrier(1)
        # exp/log roundtrips on random degree-bounded normalized cochains
        for trial in range(args.samples):
            f = _random_additive(rng, ctx, 2)
            if conv_log(conv_exp(f)) != f:
                ok = False
                lines.append("exp/log roundtrip FAILED at trial %d" % trial)
                break
        else:
            lines.append("exp/log roundtrip: %d samples exact" % args.samples)
        # exp intertwines the coboundaries on the carrier C^1_s
        trials, skipped = max(1, args.samples // 2), 0
        for trial in range(trials):
            f = _random_additive(rng, ctx, 1, carrier)
            res = conv_equal(conv_exp(additive_coboundary(ctx, f)),
                             differential(ctx, conv_exp(f)))
            skipped += res.skipped
            if not res.passed:
                ok = False
                lines.append("exp(delta f) = D(exp f) FAILED at trial %d" % trial)
                break
        else:
            lines.append("exp(delta f) = D(exp f): %d samples exact%s"
                         % (trials, " [skipped (budget): %d]" % skipped
                            if skipped else ""))
        # bar-side vs resolution-side verdicts
        agree = _bar_vs_resolution(ctx, inst.xi, lines)
        ok = ok and agree
    elif hasattr(inst.mad, "grading"):
        ctx = SweedlerContext(inst.mad)
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
        if ok:
            lines.append("homogenized differential agrees for n <= 2 "
                         "(exhaustive over tuples)")
    else:
        raise inst.missing("graded coefficient algebra")
    doc = {"ok": ok, "lines": lines}
    _emit(doc, args.format, out)
    return OK if ok else FAIL


def _random_additive(rng, ctx, n, basis=None):
    """Random normalized additive cochain on H^n: each vector of `basis`
    (coefficient vectors over `ctx.grid(n)`; by default its unit vectors,
    so the values have degree at most the tuple degree and all series and
    products stay inside the budget) is kept with probability 0.4, with a
    random coefficient."""
    if basis is None:
        basis = [{j: 1} for j in range(len(ctx.grid(n)))]
    vec = {}
    for b in basis:
        if rng.random() < 0.4:
            add_into(vec, b, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return ctx.cochain(n, vec)


def _random_group_cochain(rng, ctx, n):
    mad = ctx.mad
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
    cols = {lab: vals[lab] * A.unit for lab in vals}
    return ConvMap(C, A, LinMap(C.space, A.space, cols))


def _bar_vs_resolution(ctx, xi, lines):
    """Transported cocycle/coboundary verdicts agree between the two sides."""
    imgs, _ = xi.d(2)
    # every d2-image class transports to an additive coboundary on the bar side
    agree = True
    skipped_total = 0
    for f1, img in zip(xi.space(1).basis[:3], imgs[:3]):
        g2 = transport_cochain(ctx, xi.bar, img)     # Xi(D2) -> C^2_s
        g1 = transport_cochain(ctx, xi.bar, f1)
        res = conv_equal(additive_coboundary(ctx, g1), g2)
        skipped_total += res.skipped
        if not res.passed:
            agree = False
            break
    lines.append("bar-side transport of d2 matches the additive coboundary: %s"
                 "%s" % (agree, " [skipped (budget): %d]" % skipped_total
                         if skipped_total else ""))
    return agree


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
    p.add_argument("--seed", type=int, default=0)
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
        if getattr(args, "degree", 0) < 0:
            raise InputError("--degree must be >= 0")
        if getattr(args, "samples", 1) < 1:
            raise InputError("--samples must be >= 1")
        spec = WorkbenchSpec.load(args.spec)
        if args.budget is not None:
            spec.set_budget(args.budget)
        return handler(spec, args, out)
    # OSError covers a missing file and a directory; UnicodeDecodeError a
    # file that is not text
    except (InputError, NotJordanForm, InvalidAction, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        out.write("input error: %s\n" % exc)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
