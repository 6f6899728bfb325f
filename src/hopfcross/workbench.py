"""The two-variable crossed-product classifier, structured input files and
report emitters."""

from __future__ import annotations

import functools
import json

from .exact import (Element, LinMap, SpaceMismatch, TruncationOverflow,
                    add_into, rat, rat_str, rref, span_coefficients)
from .hopf import (GroupSpec, InvalidGroup, InvalidLieAlgebra, LieSpec,
                   build_group_algebra, build_truncated_enveloping, check_item)
from .actions import (AlgebraData, InvalidGradation,
                      ModuleAlgebraData, PolyActionSpec,
                      action_module_algebra, build_poly_action,
                      graded_module_algebra, matrix_order,
                      trivial_module_algebra,
                      _mat_eq, IDENT2)
from .convolution import ConvMap
from .sweedler import SweedlerContext, additive_coboundary, conv_exp
from .ce import (CEAlgebra, CETransposition, BarComparison, XiSolution,
                 evaluate_bimodule_cochain, xi_space, xi_differential_matrix)
from .crossed import (CrossedProductAlgebra, H2Verdict,
                      check_cocycle_conditions, trivial_cocycle,
                      verify_crossed_product)


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

    def __init__(self, kind, payload, budget):
        if kind not in ("group", "lie", "poly2"):
            raise InputError("unknown kind %r" % kind)
        self.kind = kind
        self.payload = payload
        self.set_budget(budget)
        self.poly2 = _parse_poly2(payload) if kind == "poly2" else None

    def set_budget(self, budget):
        """Set the degree budget: None, or an integer >= 1."""
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, int):
                raise InputError("budget must be an integer, got %r"
                                 % (budget,))
            if budget < 1:
                raise InputError("budget must be >= 1")
        self.budget = budget

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
                             doc.get("budget"))


def _spec_rational(x, where):
    """An exact rational from a spec document: an integer or a 'p/q' string."""
    if not isinstance(x, bool):
        try:
            return rat(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InputError("%s: %r is not an exact rational (write an integer or "
                     "a 'p/q' string)" % (where, x))


def _split_key(key, sep, where):
    """The two parts of a 'a<sep>b' key of a spec table."""
    parts = key.split(sep)
    if len(parts) != 2:
        raise InputError("%s: key %r is not of the form 'a%sb'"
                         % (where, key, sep))
    return tuple(parts)


def _int_tuple(text, where, length):
    """'1,0' as (1, 0), checked to have the given length."""
    try:
        out = tuple(int(x) for x in text.split(","))
    except ValueError:
        out = ()
    if len(out) != length:
        raise InputError("%s: %r is not %d comma-separated integers"
                         % (where, text, length))
    return out


def _spec_values(val, where):
    """A {label: coefficient} object of a spec, coefficients made exact."""
    if not isinstance(val, dict):
        raise InputError("%s: %r is not an object" % (where, val))
    return {m: _spec_rational(c, where) for m, c in val.items()}


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


def _spec_object(x, where):
    if not isinstance(x, dict):
        raise InputError("%s must be an object, got %r" % (where, x))
    return x


def _spec_field(obj, key, where):
    if key not in obj:
        raise InputError("%s needs %r" % (where, key))
    return obj[key]


def _spec_names(x, where):
    """An object whose values are names (strings)."""
    for key, val in _spec_object(x, where).items():
        if not isinstance(val, str):
            raise InputError("%s: %r at %r is not a name" % (where, val, key))
    return x


def _spec_labels(x, where):
    """A list of distinct string labels (table keys are strings)."""
    if not (isinstance(x, list) and x
            and all(isinstance(lab, str) for lab in x)
            and len(set(x)) == len(x)):
        raise InputError("%s must be a non-empty list of distinct strings, "
                         "got %r" % (where, x))
    return x


def _spec_table(raw, left, right, values, where):
    """A {'a|b': {label: coefficient}} table with a in left, b in right and
    every label in values, as {(a, b): {label: Fraction}}."""
    out = {}
    for key, val in _spec_object(raw, where).items():
        a, b = _split_key(key, "|", where)
        if a not in left or b not in right:
            raise InputError("%s: key %r names a label outside the spec"
                             % (where, key))
        val = _spec_values(val, where)
        for m in val:
            if m not in values:
                raise InputError("%s: %r at key %r is not a basis label"
                                 % (where, m, key))
        out[(a, b)] = val
    return out


def build_group_instance(spec: WorkbenchSpec):
    p = _spec_object(spec.payload, "group payload")
    elements = _spec_labels(_spec_field(p, "elements", "group payload"),
                            "group elements")
    identity = _spec_field(p, "identity", "group payload")
    raw = _spec_field(p, "table", "group payload")
    n = len(elements)
    table = {}
    if isinstance(raw, list):
        if len(raw) != n or not all(
                isinstance(row, list) and len(row) == n
                and all(isinstance(x, str) for x in row) for row in raw):
            raise InputError("group table must be %d rows of %d element "
                             "names" % (n, n))
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                table[(a, b)] = raw[i][j]
    else:
        for key, val in _spec_names(raw, "group table").items():
            table[_split_key(key, "|", "group table")] = val
    if identity not in elements:
        raise InputError("group identity %r is not an element" % (identity,))
    try:
        group = GroupSpec(elements, table, identity)
    except InvalidGroup as exc:
        raise InputError("not a group: %s" % exc)

    alg = p.get("algebra")
    if alg is None:
        hopf = build_group_algebra(group)
        return hopf, None
    alg = _spec_object(alg, "algebra")
    basis = _spec_labels(_spec_field(alg, "basis", "algebra"), "algebra basis")
    unit = _spec_field(alg, "unit", "algebra")
    if unit not in basis:
        raise InputError("algebra unit %r is not in the basis" % (unit,))
    atable = _spec_table(alg.get("table", {}), basis, basis, basis,
                         "algebra table")
    algebra = AlgebraData.from_table("A", basis, atable, unit)

    action = None
    if "action" in p:
        action = _spec_table(p["action"], elements, basis, basis,
                             "action table")
        for g in elements:
            for a in basis:
                if (g, a) not in action:
                    raise InputError("action table has no entry %r"
                                     % ("%s|%s" % (g, a)))
    if "gradation" in p:
        grading = _spec_names(p["gradation"], "gradation")
        autos = _spec_object(_spec_field(p, "automorphisms", "group payload"),
                             "automorphisms")
        autos = {name: dict(_spec_names(t, "automorphism %r" % name))
                 for name, t in autos.items()}
        try:
            mad = graded_module_algebra(group, algebra, grading, autos,
                                        action_table=action)
        except InvalidGradation as exc:
            raise InputError("not a gradation: %s" % exc)
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
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError("lie dim must be an integer >= 1, got %r" % (dim,))
    brackets = {}
    for key, val in p.get("brackets", {}).items():
        brackets[_int_tuple(key, "brackets", 2)] = {
            _int_tuple(k, "brackets", 1)[0]: c
            for k, c in _spec_values(val, "brackets").items()}
    try:
        lie = LieSpec(dim, brackets)
    except InvalidLieAlgebra as exc:
        raise InputError("not a Lie algebra: %s" % exc)
    N = spec.budget or 4
    hopf = build_truncated_enveloping(lie, N)
    return lie, hopf


# ---------------------------------------------------------------------------
# classification of Q

def classify_Q(Qm):
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
    m = matrix_order(Q)
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
                return spec.qpower(lab[0])[i][j] * \
                    Element.basis_vector(A.space, lab)
            row.append(LinMap.from_function(A.space, A.space, col))
        maps.append(row)
    return maps


def action_validity_verdicts(spec: PolyActionSpec):
    """Per-equation verdicts of an action that `build_poly_action` has
    validated: each equation passes or does not apply to Q."""
    verdicts = dict.fromkeys(("eq10", "eq11", "eq12", "eq13"), "pass")
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
# Section 7: the functor Xi on the resolution of k[X1,X2]

class XiComplex:
    """Hom(D_*, A) through the functor Xi, for the poly2 instance mad.

    D is the Chevalley-Eilenberg resolution of the abelian 2-dimensional
    Lie algebra L, k[X1,X2] = U(L), and the values lie in A = k[Y].  This
    object owns the choices of Section 7: the Lie algebra, the top
    generator set, the resolution length and the value window N - 1.  The
    transposition s_D, the spaces Xi(D_n) and the differentials are built
    on first use, so a caller that only transports a class builds none of
    them.
    """

    def __init__(self, mad: ModuleAlgebraData):
        self.mad = mad
        self.ce = CEAlgebra(LieSpec.abelian(2))
        self.length = self.ce.r
        self.top = tuple(range(self.length))
        self.window = mad.algebra.space.budget - 1
        self._spaces = {}
        self._d = {}

    @functools.cached_property
    def trans(self) -> CETransposition:
        return CETransposition(self.ce, self.mad, poly_alpha_maps(self.mad))

    @functools.cached_property
    def bar(self) -> BarComparison:
        return BarComparison(self.ce, self.mad.hopf)

    def space(self, n) -> XiSolution:
        """Xi(D_n) at the window."""
        if n not in self._spaces:
            self._spaces[n] = xi_space(self.ce, n, self.trans,
                                       window=self.window)
        return self._spaces[n]

    def d(self, n):
        """(images, overflow) of f -> f o d_n on the basis of Xi(D_{n-1}),
        as `xi_differential_matrix` returns them."""
        if n not in self._d:
            self._d[n] = xi_differential_matrix(
                self.ce, self.trans, self.space(n - 1), self.space(n), n)
        return self._d[n]

    def vector(self, img, cut=False):
        """The values {S: Element of A} of a cochain as a sparse vector
        {(S, A label): coefficient}; cut leaves out the components above
        the window."""
        degree = self.mad.algebra.space.degree
        return {(S, l): v for S, val in img.items()
                for l, v in val.coeffs.items()
                if not cut or degree(l) <= self.window}

    def rank(self, n):
        """Rank of d_n on the window, as (rank, overflow, dropped).

        The cokernel lives on the value window: image components above it
        are projected away, and dropped says whether any were.  overflow
        says whether evaluating the differential met the truncation
        boundary.
        """
        images, overflow = self.d(n)
        rows = [self.vector(img, cut=True) for img in images]
        dropped = any(len(self.vector(img)) > len(row)
                      for img, row in zip(images, rows))
        _, piv = rref(rows)
        return len(piv), overflow, dropped

    def cohomology_dim(self, n):
        """(dim H^n, overflow) at the window, for 0 <= n <= length;
        overflow says whether a differential met the truncation boundary."""
        dim, overflow = self.space(n).dim, False
        for k in (n, n + 1):
            if 0 < k <= self.length:
                rank, of, _ = self.rank(k)
                dim -= rank
                overflow = overflow or of
        return dim, overflow


# ---------------------------------------------------------------------------
# the classification report

def _poly_str(coeffs):
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
            mono = "Y" if e == 1 else "Y^%d" % e
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

    mad = build_poly_action(Q, beta1, beta2, N)
    aspec = mad.poly_spec
    verdicts = action_validity_verdicts(aspec)
    xi = XiComplex(mad)
    d1_rank, of1, dropped1 = xi.rank(1)
    d2_rank, of2, dropped2 = xi.rank(2)
    caveat = ""
    if of1 or of2:
        caveat = ("the image of the differential interacts with the "
                  "truncation boundary; truncated dimensions are reported "
                  "with projection")
    elif dropped1 or dropped2:
        caveat = ("the image of the differential interacts with the "
                  "truncation boundary; truncated dimensions are reported "
                  "with projection onto the window")
    dims = [xi.space(n).dim for n in range(xi.length + 1)]
    data = {
        "case": case,
        "Q": [[rat_str(x) for x in row] for row in Q],
        "beta1": _poly_str({i: c for i, c in enumerate(beta1)}),
        "beta2": _poly_str({i: c for i, c in enumerate(beta2)}),
        "validity": verdicts,
        "budget": N,
        "window": xi.window,
        "xi_dims": dims,
        "d1_rank": d1_rank,
        "d2_rank": d2_rank,
        "H2_dim": dims[2] - d2_rank,
        "H2_exact": h2_exact(qinfo, aspec),
        "truncation_caveat": caveat,
        "relations": presentation_relations(aspec),
    }
    if "m" in qinfo:
        data["m"] = qinfo["m"]
    return ClassificationReport(data)


def h2_exact(qinfo, aspec: PolyActionSpec):
    """The exact (untruncated) H^2, case by case."""
    case = qinfo["case"]
    if case == "2":
        b_use = aspec.beta[0] if any(aspec.beta[0]) else aspec.beta[1]
        if any(b_use):
            deg = max(i for i, c in enumerate(b_use) if c != 0)
            return "k[Y]/<%s> (dimension %d)" % (
                _poly_str({i: c for i, c in enumerate(b_use)}), deg)
        return "k[Y] (infinite dimensional)"
    if case == "1a":
        q = qinfo["q"]
        return "k (one free scalar)" if q * q == 1 else "0"
    if case == "1b":
        return "k (one free scalar)" if qinfo["q1"] * qinfo["q2"] == 1 else "0"
    if case == "3a" and qinfo["q1"] * qinfo["q2"] == 1:
        return "k[Y^%d] (infinite dimensional)" % qinfo["m"]
    return "0"


def presentation_relations(aspec: PolyActionSpec):
    """The defining relations of the crossed-product family, generators
    ordered Y < W1 < W2; the commutator is read off `h2_exact`."""
    Q = aspec.Q
    qinfo = classify_Q(Q)
    case = qinfo["case"]
    h2 = h2_exact(qinfo, aspec)
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
        comm = "lambda, a free scalar" if h2.startswith("k") else "0"
    elif case == "3a":
        comm = ("P(Y^%d), P an arbitrary polynomial" % qinfo["m"]
                if h2.startswith("k[") else "0")
    else:
        comm = "0"
    return [w_relation(0), w_relation(1), "W1*W2 - W2*W1 = " + comm]


# ---------------------------------------------------------------------------
# end-to-end: rebuild a presentation from its cocycle class

def transport_cochain(ctx: SweedlerContext, bc, values):
    """The bar-side cochain of the bimodule cochain with the given values on
    {e_S}: its value at a tuple x is that cochain evaluated at
    Phi(1 | x | 1), and 0 on tuples with a scalar slot.  Values that leave
    the budget are left out (partial columns)."""
    mad = ctx.mad
    C = ctx.domain(len(next(iter(values))))

    def fn(lab):
        if any(sum(a) == 0 for a in lab):
            return Element.zero(mad.algebra.space)
        zdict = bc.Phi((bc.unit_atom, lab, bc.unit_atom))
        return evaluate_bimodule_cochain(mad, values, zdict)

    return ConvMap.from_function(C, mad.algebra, fn, partial=True)


def xi2_cocycle(ctx: SweedlerContext, b: Element) -> ConvMap:
    """The multiplicative 2-cocycle exp(phi^2(b)) from a class b in Xi(D_2).

    phi^2(b) is the bimodule cochain with value b on e_1 e_2, transported to
    the bar side through the comparison map, so that the resulting cocycle
    satisfies f(X1 (x) X2) = -f(X2 (x) X1) = b/2.
    """
    xi = XiComplex(ctx.mad)
    return conv_exp(transport_cochain(ctx, xi.bar, {xi.top: b}))


def xi_h2_witness(ctx: SweedlerContext, w: ConvMap):
    """u = exp(t) with additive_coboundary(t) = w, or the H2Verdict that
    says why none is found.

    On a poly2 instance, the Lie class of w is b = w(X1 (x) X2) -
    w(X2 (x) X1), w evaluated on phi_2(e_1 e_2).  It is solved against the
    d2 images of Xi(D_1) at the value window N - 1, the system behind
    `classify`'s d2_rank; failing that, its part on the window is solved
    against the window part of those images.  d2 lowers no degree
    unless some beta_l has a constant term, so the window part of d2(f1)
    depends only on the window part of f1: no preimage then means that w
    is no coboundary (inequivalent).  It is inconclusive instead when
    evaluating d2 met the truncation boundary or a beta_l has a constant
    term.  A preimage f1 gives t = transport(f1).  Without a Xi side t = 0.
    A nonzero residue w - delta(t) is solved over the n = 1 carrier, and is
    inconclusive when that grid holds no solution.
    """
    mad = ctx.mad
    if getattr(mad, "poly_spec", None) is None:
        t = 0 * ctx.unit_cochain(1)
    else:
        t = _lie_class_preimage(ctx, w)
        if isinstance(t, H2Verdict):
            return t
    residue = w - additive_coboundary(ctx, t)
    if not residue.is_zero():
        v = ctx.coboundary_preimage(ctx.carrier(1), residue)
        if v is None:
            return H2Verdict("inconclusive", detail="the residue w - delta(t)"
                             " is no coboundary on the carrier grid")
        t = t + v
    return conv_exp(t)


def _lie_class_preimage(ctx: SweedlerContext, w: ConvMap):
    """transport(f1) for an f1 in Xi(D_1) whose d2 image is the Lie class
    b of w, or failing that agrees with b on the value window; or the
    H2Verdict if there is none (see `xi_h2_witness`)."""
    mad = ctx.mad
    A = mad.algebra
    xi = XiComplex(mad)
    acc = {}
    for (_, mid, _), c in xi.bar.phi_closed(xi.top).items():
        add_into(acc, w(mid).coeffs, c)
    b = {xi.top: Element(A.space, acc, validate=False)}
    images, overflow = xi.d(2)
    sol = span_coefficients([xi.vector(img) for img in images], xi.vector(b))
    if sol is None:
        # the rest of b may come from the part of f1 above the window
        low = xi.vector(b, cut=True)
        sol = span_coefficients([xi.vector(img, cut=True) for img in images],
                                low)
    if sol is None:
        if overflow:
            return H2Verdict("inconclusive", detail="d2 met the truncation "
                             "boundary at window %d" % xi.window)
        if any(0 in mad.poly_spec.beta_support(l) for l in range(xi.ce.r)):
            return H2Verdict("inconclusive", detail="d2 lowers the degree "
                             "(a beta_l has a constant term)")
        return H2Verdict("inequivalent", detail="Lie class %s is not in "
                         "d2(Xi(D_1)) on the window %d"
                         % (_poly_str({l[0]: v for (_, l), v in low.items()}),
                            xi.window))
    lo = xi.space(1)
    f1 = {S: {} for S in lo.e_sets}
    for c, base in zip(sol, lo.basis):
        for S, val in base.items():
            add_into(f1[S], val.coeffs, c)
    return transport_cochain(ctx, xi.bar, {
        S: Element(A.space, val, validate=False) for S, val in f1.items()})


def _y_polynomial(A: AlgebraData, coeffs, where):
    """sum c_e Y^e in k[Y], from a coefficient list [c_0, c_1, ...] or an
    object {e: c_e} of a spec document."""
    if isinstance(coeffs, list):
        coeffs = dict(enumerate(coeffs))
    if not isinstance(coeffs, dict):
        raise InputError("%s: %r is not a list or object of rationals"
                         % (where, coeffs))
    try:
        return Element(A.space, {(int(e),): _spec_rational(c, where)
                                 for e, c in coeffs.items()})
    except (ValueError, SpaceMismatch, TruncationOverflow):
        raise InputError("%s: %r is not a polynomial in Y within the "
                         "budget %s" % (where, coeffs, A.space.budget))


def cocycle_from_doc(ctx: SweedlerContext, doc) -> ConvMap:
    """The 2-cochain a cocycle document names.

    {"kind": "trivial"} is the unit cochain; {"kind": "xi2", "b": [...]} is
    `xi2_cocycle` of the polynomial b in k[Y]; {"kind": "table", "values":
    {"u1,u2|v1,v2": {exponent: coefficient}}} gives values on basis tuples
    of H (x) H, every other tuple taking the unit cochain's value.
    """
    if not isinstance(doc, dict):
        raise InputError("cocycle document must be an object")
    kind = doc.get("kind", "trivial")
    A = ctx.mad.algebra
    if kind == "trivial":
        return trivial_cocycle(ctx)
    if kind == "xi2":
        b = _y_polynomial(A, doc.get("b"), "cocycle b")
        return xi2_cocycle(ctx, b) if not b.is_zero() else trivial_cocycle(ctx)
    if kind != "table":
        raise InputError("unknown cocycle kind %r" % kind)
    values = doc.get("values")
    if not isinstance(values, dict):
        raise InputError("table cocycle needs a 'values' object")
    C2 = ctx.domain(2)
    table = {}
    for key, val in values.items():
        lab = tuple(_int_tuple(part, "cocycle table", 2)
                    for part in _split_key(key, "|", "cocycle table"))
        if not C2.space.contains(lab):
            raise InputError("cocycle table: %r is not a basis tuple of "
                             "H (x) H within the budget" % key)
        table[lab] = _y_polynomial(A, val, "cocycle table")
    e2 = ctx.unit_cochain(2)
    return ConvMap.from_function(C2, A, lambda lab: table.get(lab, e2(lab)))


def build_and_verify_presentation(spec: WorkbenchSpec, b_coeffs,
                                  assoc_budget=None):
    """Instantiate the commutator parameter, rebuild A #_f H and verify the
    emitted relations inside the constructed algebra."""
    mad = build_poly2_instance(spec)
    ctx = SweedlerContext(mad)
    A = mad.algebra

    b = _y_polynomial(A, b_coeffs, "b")
    # membership of b in Xi(D_2) is a precondition of the construction
    xi = XiComplex(mad)
    top = [xi.vector(base) for base in xi.space(xi.length).basis]
    if span_coefficients(top, xi.vector({xi.top: b})) is None:
        raise InputError("b is not in Xi(D_2) at this budget")

    f = xi2_cocycle(ctx, b) if not b.is_zero() else trivial_cocycle(ctx)
    coc = check_cocycle_conditions(ctx, f)
    if not coc.all_flags:
        raise InputError("constructed cochain fails the cocycle flags: %r" % coc)
    cp = CrossedProductAlgebra(ctx, f)
    report = verify_crossed_product(cp, budget=assoc_budget)

    # the emitted relations hold in the built algebra
    H = mad.hopf.space
    x1 = Element.basis_vector(H, ((1, 0),))
    x2 = Element.basis_vector(H, ((0, 1),))
    y = Element.basis_vector(A.space, (1,))
    W1, W2 = cp.include_hopf(x1), cp.include_hopf(x2)
    Ye = cp.include_algebra(y)
    spec_obj = mad.poly_spec
    for i, W in ((0, W1), (1, W2)):
        lhs = cp.multiply(W, Ye)
        rhs = cp.pair(Element(A.space, {(1,): spec_obj.Q[i][0]}), x1) + \
            cp.pair(Element(A.space, {(1,): spec_obj.Q[i][1]}), x2) + \
            cp.include_algebra(Element(
                A.space, {(u,): c for u, c in enumerate(spec_obj.beta[i]) if c}))
        check_item(report, "relation.W%d_Y" % (i + 1),
                   None if lhs == rhs else "W%d*Y" % (i + 1))
    comm = cp.multiply(W1, W2) - cp.multiply(W2, W1)
    check_item(report, "relation.commutator",
               None if comm == cp.include_algebra(b)
               else "W1*W2 - W2*W1 != b")
    return cp, report

