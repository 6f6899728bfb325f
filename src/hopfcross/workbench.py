"""The two-variable crossed-product classifier, structured input files and
report emitters."""

from __future__ import annotations

import json
from fractions import Fraction

from .exact import Element, LinMap, rat, rat_str, rref
from .hopf import (GroupSpec, LieSpec, build_group_algebra,
                   build_truncated_enveloping, Report)
from .actions import (AlgebraData, InvalidAction, ModuleAlgebraData,
                      PolyActionSpec, action_module_algebra, build_poly_action,
                      check_poly_action_validity, graded_module_algebra,
                      matrix_order, trivial_module_algebra,
                      _mat_eq, _mat_pow, IDENT2)
from .convolution import ConvMap
from .sweedler import SweedlerContext, conv_exp
from .ce import (CEAlgebra, CETransposition, BarComparison, xi_space,
                 xi_differential_matrix)
from .crossed import (CrossedProductAlgebra, check_cocycle_conditions,
                      trivial_cocycle, verify_crossed_product)


class InputError(Exception):
    pass


class NotJordanForm(Exception):
    pass


# ---------------------------------------------------------------------------
# the workbench input format

class WorkbenchSpec:
    """A single self-describing document; all rationals are 'p/q' strings.

    A poly2 payload is checked here, at load time, and kept parsed as
    `poly2` = (Q, beta1, beta2).
    """

    def __init__(self, kind, payload, budget, tasks=None):
        if kind not in ("group", "lie", "poly2"):
            raise InputError("unknown kind %r" % kind)
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, int):
                raise InputError("budget must be an integer, got %r"
                                 % (budget,))
            if budget < 1:
                raise InputError("budget must be >= 1")
        self.kind = kind
        self.payload = payload
        self.budget = budget
        self.tasks = tasks or []
        self.poly2 = _parse_poly2(payload) if kind == "poly2" else None

    @staticmethod
    def load(path):
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError("not valid JSON: %s" % exc)
        return WorkbenchSpec.parse(doc)

    @staticmethod
    def parse(doc):
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InputError("spec document needs a 'kind'")
        return WorkbenchSpec(doc["kind"], doc.get("payload", {}),
                             doc.get("budget"), doc.get("tasks"))


def _spec_rational(x, where):
    """An exact rational from a spec document: an integer or a 'p/q' string."""
    if not isinstance(x, bool):
        try:
            return rat(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InputError("%s: %r is not an exact rational (write an integer or "
                     "a 'p/q' string)" % (where, x))


def _parse_poly2(payload):
    if not isinstance(payload, dict):
        raise InputError("poly2 payload must be an object")
    if "Q" not in payload:
        raise InputError("poly2 payload needs Q")
    Q = payload["Q"]
    if not (isinstance(Q, list) and len(Q) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in Q)):
        raise InputError("Q must be a 2x2 matrix, got %r" % (Q,))
    Q = [[_spec_rational(x, "Q") for x in row] for row in Q]
    betas = []
    for key in ("beta1", "beta2"):
        beta = payload.get(key, [])
        if not isinstance(beta, list):
            raise InputError("%s must be a list of rationals" % key)
        betas.append([_spec_rational(x, key) for x in beta])
    return Q, betas[0], betas[1]


def build_group_instance(spec: WorkbenchSpec):
    p = spec.payload
    try:
        elements = p["elements"]
        identity = p["identity"]
        raw = p["table"]
    except KeyError as exc:
        raise InputError("group payload missing %s" % exc)
    table = {}
    if isinstance(raw, list):
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                table[(a, b)] = raw[i][j]
    else:
        for key, val in raw.items():
            a, b = key.split("|")
            table[(a, b)] = val
    group = GroupSpec(elements, table, identity)

    alg = p.get("algebra")
    if alg is None:
        hopf = build_group_algebra(group)
        return hopf, None
    basis = alg["basis"]
    atable = {}
    for key, val in alg.get("table", {}).items():
        a, b = key.split("|")
        atable[(a, b)] = {m: rat(c) for m, c in val.items()}
    algebra = AlgebraData.from_table("A", basis, atable, alg["unit"])

    action = None
    if "action" in p:
        action = {}
        for key, val in p["action"].items():
            g, a = key.split("|")
            action[(g, a)] = {m: rat(c) for m, c in val.items()}
    if "gradation" in p:
        autos = {name: dict(t) for name, t in p["automorphisms"].items()}
        mad = graded_module_algebra(group, algebra, p["gradation"], autos,
                                    action_table=action)
    elif action is not None:
        hopf = build_group_algebra(group)
        mad = action_module_algebra(hopf, algebra, action)
        mad.group = group
    else:
        hopf = build_group_algebra(group)
        mad = trivial_module_algebra(hopf, algebra)
        mad.group = group
    return mad.hopf, mad


def poly2_data(spec: WorkbenchSpec):
    """(Q, beta1, beta2, budget) of a poly2 spec."""
    if spec.kind != "poly2":
        raise InputError("this needs a poly2 spec, not %r" % spec.kind)
    if spec.budget is None:
        raise InputError("poly2 spec needs a budget")
    return spec.poly2 + (spec.budget,)


def build_poly2_instance(spec: WorkbenchSpec):
    return build_poly_action(*poly2_data(spec))


def build_lie_instance(spec: WorkbenchSpec):
    p = spec.payload
    try:
        dim = p["dim"]
    except KeyError:
        raise InputError("lie payload needs dim")
    brackets = {}
    for key, val in p.get("brackets", {}).items():
        i, j = (int(x) for x in key.split(","))
        brackets[(i, j)] = {int(k): rat(c) for k, c in val.items()}
    lie = LieSpec(dim, brackets)
    N = spec.budget or 4
    hopf = build_truncated_enveloping(lie, N)
    return lie, hopf


# ---------------------------------------------------------------------------
# classification of Q

def classify_Q(Qm, order_bound=6):
    """Case tag of an invertible Jordan-form 2x2 rational matrix.

    Finite order is decided by checking the orders a rational 2x2 matrix can
    have (1, 2, 3, 4, 6); when none matches, the order is provably infinite.
    """
    Q = [[rat(x) for x in row] for row in Qm]
    det = Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0]
    if det == 0:
        raise InputError("Q is not invertible")
    diagonal = Q[0][1] == 0 and Q[1][0] == 0
    jordan = Q[1][0] == 0 and Q[0][1] == 1 and Q[0][0] == Q[1][1]
    if not diagonal and not jordan:
        raise NotJordanForm("Q must be diagonal or a single Jordan block")

    if _mat_eq(Q, IDENT2):
        return {"case": "2", "Q": Q}
    if jordan:
        return {"case": "1a", "Q": Q, "q": Q[0][0]}
    m = matrix_order(Q, bound=order_bound)
    if m is None:
        return {"case": "1b", "Q": Q, "q1": Q[0][0], "q2": Q[1][1],
                "order": "infinite (no order in {1,2,3,4,6})"}
    q1, q2 = Q[0][0], Q[1][1]
    if q1 != 1 and q2 != 1:
        return {"case": "3a", "Q": Q, "q1": q1, "q2": q2, "m": m}
    return {"case": "3b", "Q": Q, "q1": q1, "q2": q2, "m": m}


def poly_alpha_maps(mad: ModuleAlgebraData):
    """alpha_i^j as LinMaps on A, from the stored Q."""
    A = mad.algebra
    spec = mad.poly_spec
    maps = []
    for i in range(2):
        row = []
        for j in range(2):
            def col(lab, i=i, j=j):
                Qn = _mat_pow(spec.Q, lab[0])
                return Qn[i][j] * Element.basis_vector(A.space, lab)
            row.append(LinMap.from_function(A.space, A.space, col))
        maps.append(row)
    return maps


def action_validity_verdicts(spec: PolyActionSpec, n_check=8):
    """Per-equation verdicts without raising (for the report)."""
    verdicts = {}
    for eq in ("eq10", "eq11", "eq12", "eq13"):
        verdicts[eq] = "pass"
    try:
        check_poly_action_validity(spec, n_check=n_check)
    except InvalidAction as exc:
        verdicts[exc.equation] = "fail: %s" % exc
    is_ident = _mat_eq(spec.Q, IDENT2)
    if not is_ident and matrix_order(spec.Q) is None:
        verdicts["eq12"] = "n/a (Q has infinite order)"
        verdicts["eq13"] = "n/a (Q has infinite order)"
    elif is_ident:
        verdicts["eq13"] = "n/a (Q = ide)"
    else:
        verdicts["eq12"] = "n/a (Q != ide)"
    return verdicts


# ---------------------------------------------------------------------------
# the classification report

def _poly_str(coeffs, varname="Y"):
    """Canonical ascending-degree polynomial text from {exp: Fraction}."""
    if isinstance(coeffs, Element):
        coeffs = {lab[0]: c for lab, c in coeffs.coeffs.items()}
    terms = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(rat_str(c))
        else:
            mono = varname if e == 1 else "%s^%d" % (varname, e)
            terms.append(mono if c == 1 else "%s*%s" % (rat_str(c), mono))
    return " + ".join(terms) if terms else "0"


class ClassificationReport:
    def __init__(self, data):
        self.data = data

    def as_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True)

    def as_text(self):
        d = self.data
        lines = []
        lines.append("classification of k[Y] # k[X1,X2]")
        lines.append("case: %s" % d["case"])
        lines.append("Q: %s" % d["Q"])
        if "m" in d:
            lines.append("order(Q): %s" % d["m"])
        lines.append("beta1: %s" % d["beta1"])
        lines.append("beta2: %s" % d["beta2"])
        for eq in ("eq10", "eq11", "eq12", "eq13"):
            lines.append("validity %s: %s" % (eq, d["validity"][eq]))
        lines.append("budget: %d (value window %d)" % (d["budget"], d["window"]))
        for n in (0, 1, 2):
            lines.append("Xi_D%d_dim: %d" % (n, d["xi_dims"][n]))
        lines.append("d1_rank: %d" % d["d1_rank"])
        lines.append("d2_rank: %d" % d["d2_rank"])
        lines.append("H2_dim: %s" % d["H2_dim"])
        lines.append("H2_exact: %s" % d["H2_exact"])
        if d.get("truncation_caveat"):
            lines.append("caveat: %s" % d["truncation_caveat"])
        lines.append("presentation:")
        for rel in d["relations"]:
            lines.append("  " + rel)
        return "\n".join(lines)


def classify_crossed_products(spec: WorkbenchSpec) -> ClassificationReport:
    Q, beta1, beta2, N = poly2_data(spec)
    qinfo = classify_Q(Q)
    case = qinfo["case"]

    aspec = PolyActionSpec(Q, beta1, beta2)
    verdicts = action_validity_verdicts(aspec, n_check=min(N, 8))
    mad = build_poly_action(Q, beta1, beta2, N)
    ce = CEAlgebra(LieSpec.abelian(2))
    trans = CETransposition(ce, mad, poly_alpha_maps(mad))
    window = N - 1
    xi = [xi_space(ce, n, trans, window=window) for n in (0, 1, 2)]

    caveat = ""
    imgs1, of1 = xi_differential_matrix(ce, trans, xi[0], xi[1], 1)
    imgs2, of2 = xi_differential_matrix(ce, trans, xi[1], xi[2], 2)
    if of1 or of2:
        caveat = ("the image of the differential interacts with the "
                  "truncation boundary; truncated dimensions are reported "
                  "with projection")

    A = mad.algebra
    a_labels = list(A.space.basis())
    aidx = {l: i for i, l in enumerate(a_labels)}
    dropped = [False]

    def rank_of(images, e_sets):
        # the cokernel lives on the value window; image components beyond it
        # are projected away (and reported when that happens)
        rows = []
        for img in images:
            row = {}
            for si, S in enumerate(e_sets):
                val = img.get(S)
                if val is None:
                    continue
                for l, v in val.coeffs.items():
                    if A.space.degree(l) > window:
                        dropped[0] = True
                        continue
                    row[si * len(a_labels) + aidx[l]] = v
            rows.append(row)
        _, piv = rref(rows)
        return len(piv)

    d1_rank = rank_of(imgs1, xi[1].e_sets)
    d2_rank = rank_of(imgs2, xi[2].e_sets)
    if dropped[0] and not caveat:
        caveat = ("the image of the differential interacts with the "
                  "truncation boundary; truncated dimensions are reported "
                  "with projection onto the window")
    h2_trunc = xi[2].dim - d2_rank

    # the exact (untruncated) answer, case by case
    if case == "2":
        b_use = beta1 if any(beta1) else beta2
        if any(b_use):
            deg = max(i for i, c in enumerate(b_use) if c != 0)
            h2_exact = "k[Y]/<%s> (dimension %d)" % (
                _poly_str({i: c for i, c in enumerate(b_use)}), deg)
        else:
            h2_exact = "k[Y] (infinite dimensional)"
    elif case == "1a":
        q = qinfo["q"]
        h2_exact = "k (one free scalar)" if q * q == 1 else "0"
    elif case == "1b":
        h2_exact = "k (one free scalar)" if qinfo["q1"] * qinfo["q2"] == 1 else "0"
    elif case == "3a":
        if qinfo["q1"] * qinfo["q2"] == 1:
            h2_exact = "k[Y^%d] (infinite dimensional)" % qinfo["m"]
        else:
            h2_exact = "0"
    else:
        h2_exact = "0"

    relations = presentation_relations(case, qinfo, aspec, h2_exact)
    data = {
        "case": case,
        "Q": [[rat_str(x) for x in row] for row in Q],
        "beta1": _poly_str({i: c for i, c in enumerate(beta1)}),
        "beta2": _poly_str({i: c for i, c in enumerate(beta2)}),
        "validity": verdicts,
        "budget": N,
        "window": window,
        "xi_dims": [x.dim for x in xi],
        "d1_rank": d1_rank,
        "d2_rank": d2_rank,
        "H2_dim": h2_trunc,
        "H2_exact": h2_exact,
        "truncation_caveat": caveat,
        "relations": relations,
    }
    if "m" in qinfo:
        data["m"] = qinfo["m"]
    return ClassificationReport(data)


def presentation_relations(case, qinfo, aspec: PolyActionSpec, h2_exact):
    """The defining relations, generators ordered Y < W1 < W2."""
    Q = aspec.Q
    b1 = _poly_str({i: c for i, c in enumerate(aspec.beta[0])})
    b2 = _poly_str({i: c for i, c in enumerate(aspec.beta[1])})

    def w_relation(i):
        parts = []
        for j, w in ((0, "W1"), (1, "W2")):
            if Q[i][j] != 0:
                c = "" if Q[i][j] == 1 else rat_str(Q[i][j]) + "*"
                parts.append("%sY*%s" % (c, w))
        bi = (b1, b2)[i]
        if bi != "0":
            parts.append(bi)
        return "W%d*Y = %s" % (i + 1, " + ".join(parts) if parts else "0")

    if case == "2":
        if b1 != "0":
            comm = "R(Y) with R = 0 or deg(R) < %d" % max(
                i for i, c in enumerate(aspec.beta[0]) if c)
        elif b2 != "0":
            comm = "R(Y) with R = 0 or deg(R) < %d" % max(
                i for i, c in enumerate(aspec.beta[1]) if c)
        else:
            comm = "R(Y), an arbitrary polynomial"
    elif case in ("1a", "1b"):
        comm = "lambda, a free scalar" if h2_exact.startswith("k") else "0"
    elif case == "3a":
        comm = ("P(Y^%d), P an arbitrary polynomial" % qinfo["m"]
                if h2_exact.startswith("k[") else "0")
    else:
        comm = "0"
    return [w_relation(0), w_relation(1), "W1*W2 - W2*W1 = " + comm]


# ---------------------------------------------------------------------------
# end-to-end: rebuild a presentation from its cocycle class

def xi2_cocycle(ctx: SweedlerContext, b: Element) -> ConvMap:
    """The multiplicative 2-cocycle exp(phi^2(b)) from a class b in Xi(D_2).

    phi^2(b) is the bimodule cochain with value b on e_1 e_2, transported to
    the bar side through the comparison map, so that the resulting cocycle
    satisfies f(X1 (x) X2) = -f(X2 (x) X1) = b/2.
    """
    from .ce import evaluate_bimodule_cochain
    mad = ctx.mad
    ce = CEAlgebra(LieSpec.abelian(2))
    bc = BarComparison(ce, mad.hopf)
    C2 = ctx.domain(2)
    values = {(0, 1): b}

    def fn(lab):
        u, v = lab
        if sum(u) == 0 or sum(v) == 0:
            return Element.zero(mad.algebra.space)
        mid = (u, v)
        zdict = bc.Phi((bc.unit_atom, mid, bc.unit_atom))
        return evaluate_bimodule_cochain(ce, mad, values, zdict)

    g = ConvMap.from_function(C2, mad.algebra, fn, partial=True)
    return conv_exp(g)


def build_and_verify_presentation(spec: WorkbenchSpec, b_coeffs,
                                  assoc_budget=None):
    """Instantiate the commutator parameter, rebuild A #_f H and verify the
    emitted relations inside the constructed algebra."""
    N = spec.budget
    mad = build_poly2_instance(spec)
    ctx = SweedlerContext(mad)
    A = mad.algebra

    b = Element(A.space, {(i,): rat(c) for i, c in enumerate(b_coeffs)
                          if rat(c) != 0})
    # membership of b in Xi(D_2) is a precondition of the construction
    ce = CEAlgebra(LieSpec.abelian(2))
    trans = CETransposition(ce, mad, poly_alpha_maps(mad))
    window = N - 1
    xi2 = xi_space(ce, 2, trans, window=window)
    if not _in_span(A, xi2, b):
        raise InputError("b is not in Xi(D_2) at this budget")

    f = xi2_cocycle(ctx, b) if not b.is_zero() else trivial_cocycle(ctx)
    coc = check_cocycle_conditions(ctx, f)
    if not coc.all_flags:
        raise InputError("constructed cochain fails the cocycle flags: %r" % coc)
    cp = CrossedProductAlgebra(ctx, coc)
    report = verify_crossed_product(cp, budget=assoc_budget)

    # the emitted relations hold in the built algebra
    H = mad.hopf.space
    x1 = Element.basis_vector(H, ((1, 0),))
    x2 = Element.basis_vector(H, ((0, 1),))
    y = Element.basis_vector(A.space, (1,))
    W1, W2 = cp.include_hopf(x1), cp.include_hopf(x2)
    Ye = cp.include_algebra(y)
    rel = Report("presentation relations")
    from .hopf import CheckResult
    spec_obj = mad.poly_spec
    for i, W in ((0, W1), (1, W2)):
        lhs = cp.multiply(W, Ye)
        rhs = cp.pair(Element(A.space, {(1,): spec_obj.Q[i][0]}), x1) + \
            cp.pair(Element(A.space, {(1,): spec_obj.Q[i][1]}), x2) + \
            cp.include_algebra(Element(
                A.space, {(u,): c for u, c in enumerate(spec_obj.beta[i]) if c}))
        res = CheckResult("relation.W%d_Y" % (i + 1), checked=1)
        if lhs != rhs:
            res.failures.append("W%d*Y" % (i + 1))
        rel.add(res)
    comm = cp.multiply(W1, W2) - cp.multiply(W2, W1)
    res = CheckResult("relation.commutator", checked=1)
    if comm != cp.include_algebra(b):
        res.failures.append("W1*W2 - W2*W1 != b")
    rel.add(res)
    for c in rel.checks:
        report.add(c)
    return cp, report


def _in_span(A, xi2: 'XiSolution', b: Element) -> bool:
    if b.is_zero():
        return True
    labels = list(A.space.basis())
    idx = {l: i for i, l in enumerate(labels)}
    from .exact import solve
    cols = []
    for base in xi2.basis:
        val = base[(0, 1)]
        cols.append({idx[l]: v for l, v in val.coeffs.items()})
    rows = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    all_rows = [rows.get(i, {}) for i in range(len(labels))]
    rhs = [b.coeffs.get(l, Fraction(0)) for l in labels]
    return solve(all_rows, len(cols), rhs) is not None
