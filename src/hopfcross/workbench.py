"""The two-variable crossed-product classifier, the H^2 decision,
structured input files and report emitters."""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .exact import (Element, LinMap, SpaceMismatch, TruncationOverflow,
                    add_into, rat, rat_str, rref, span_coefficients, tensor)
from .hopf import (GroupSpec, InvalidGroup, InvalidLieAlgebra, LieSpec,
                   build_group_algebra, build_truncated_enveloping, check_item)
from .actions import (AlgebraData, InvalidGradation,
                      ModuleAlgebraData, PolyActionSpec,
                      action_module_algebra, build_poly_action,
                      graded_module_algebra, trivial_module_algebra)
from .convolution import ConvMap, conv_equal, conv_inverse, convolve
from .sweedler import (SweedlerContext, additive_coboundary, conv_exp, conv_log,
                       differential)
from .ce import (CEAlgebra, CETransposition, BarComparison, XiSolution,
                 evaluate_bimodule_cochain, xi_space, xi_differential_matrix)
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
    else:
        hopf = build_group_algebra(group)
        mad = trivial_module_algebra(hopf, algebra)
    return mad.hopf, mad


def build_poly2_instance(spec: WorkbenchSpec):
    """The module algebra of a poly2 spec at its budget."""
    if spec.kind != "poly2":
        raise InputError("this needs a poly2 spec, not %r" % spec.kind)
    if spec.budget is None:
        raise InputError("poly2 spec needs a budget")
    return build_poly_action(*spec.poly2, spec.budget)


def build_lie_instance(spec: WorkbenchSpec):
    p = _spec_object(spec.payload, "lie payload")
    dim = _spec_field(p, "dim", "lie payload")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError("lie dim must be an integer >= 1, got %r" % (dim,))
    brackets = {}
    for key, val in _spec_object(p.get("brackets", {}), "brackets").items():
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
# Section 7: the functor Xi on the resolution of k[X1,X2]

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
    mad = build_poly2_instance(spec)
    aspec = mad.poly_spec
    h2_exact, commutator = exact_h2_and_commutator(aspec)
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
        "case": aspec.case,
        "Q": [[rat_str(x) for x in row] for row in aspec.Q],
        "beta1": _poly_str(dict(enumerate(aspec.beta[0]))),
        "beta2": _poly_str(dict(enumerate(aspec.beta[1]))),
        "validity": aspec.validity,
        "budget": spec.budget,
        "window": xi.window,
        "xi_dims": dims,
        "d1_rank": d1_rank,
        "d2_rank": d2_rank,
        "H2_dim": dims[2] - d2_rank,
        "H2_exact": h2_exact,
        "truncation_caveat": caveat,
        "relations": presentation_relations(aspec, commutator),
    }
    if aspec.case in ("3a", "3b"):
        data["m"] = aspec.order
    return ClassificationReport(data)


def exact_h2_and_commutator(aspec: PolyActionSpec):
    """The exact (untruncated) H^2 and the commutator W1*W2 - W2*W1 of the
    crossed-product family, case by case, as (H^2 text, commutator text).

    Away from case 2 the class is a free scalar (cases 1a, 1b) or a
    polynomial in Y^m (case 3a) exactly when q1 q2 = 1, and 0 otherwise;
    case 3b always has q1 q2 = -1.  A Q outside the cases raises
    NotJordanForm.
    """
    case, Q = aspec.case, aspec.Q
    if case is None:
        raise NotJordanForm("Q must be diagonal or a single Jordan block")
    if case == "2":
        beta = next((b for b in aspec.beta if any(b)), None)
        if beta is None:
            return "k[Y] (infinite dimensional)", "R(Y), an arbitrary polynomial"
        deg = max(i for i, c in enumerate(beta) if c)
        return ("k[Y]/<%s> (dimension %d)" % (_poly_str(dict(enumerate(beta))),
                                              deg),
                "R(Y) with R = 0 or deg(R) < %d" % deg)
    if Q[0][0] * Q[1][1] != 1:
        return "0", "0"
    if case == "3a":
        return ("k[Y^%d] (infinite dimensional)" % aspec.order,
                "P(Y^%d), P an arbitrary polynomial" % aspec.order)
    return "k (one free scalar)", "lambda, a free scalar"


def presentation_relations(aspec: PolyActionSpec, commutator):
    """The defining relations of the crossed-product family, generators
    ordered Y < W1 < W2: the two W_i*Y relations of aspec and W1*W2 -
    W2*W1 = commutator, the text `exact_h2_and_commutator` gives."""
    Q = aspec.Q

    def w_relation(i):
        parts = []
        for j, w in ((0, "W1"), (1, "W2")):
            if Q[i][j] != 0:
                c = "" if Q[i][j] == 1 else rat_str(Q[i][j]) + "*"
                parts.append("%sY*%s" % (c, w))
        bi = _poly_str(dict(enumerate(aspec.beta[i])))
        if bi != "0":
            parts.append(bi)
        return "W%d*Y = %s" % (i + 1, " + ".join(parts) if parts else "0")

    return [w_relation(0), w_relation(1), "W1*W2 - W2*W1 = " + commutator]


# ---------------------------------------------------------------------------
# bar-side cochains transported from the Xi side

def transport_cochain(ctx: SweedlerContext, bc, values):
    """The bar-side cochain of the bimodule cochain with the given values on
    {e_S}: its value at a tuple x is that cochain evaluated at
    Phi(1 | x | 1), and 0 on tuples with a scalar slot.  Values that leave
    the budget are left out (partial columns)."""
    mad = ctx.mad
    C = ctx.domain(len(next(iter(values))))

    def fn(lab):
        if C.space.min_slot_degree(lab) == 0:
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


# ---------------------------------------------------------------------------
# deciding cohomology classes: the H^2 correspondence

class H2Verdict:
    def __init__(self, status, u=None, detail=""):
        self.status = status        # cohomologous | inequivalent | inconclusive
        self.u = u
        self.detail = detail

    def __repr__(self):
        return "H2Verdict(%s%s)" % (self.status,
                                    ", " + self.detail if self.detail else "")


def h2_correspondence(ctx: SweedlerContext, f: ConvMap, f2: ConvMap) -> H2Verdict:
    """Decide whether the cocycles f and f2 are cohomologous: search for u
    in Reg_+^s(H, A) with q = f * f2^-1 = D(u).

    Both inputs must pass every cocycle flag; otherwise ValueError.
    Graded-connected domains go through `xi_h2_witness`: on a
    poly2 instance the Lie class of w = log q is solved against
    d2(Xi(D_1)) on the value window, and no preimage there certifies
    inequivalence (unless d2 met the truncation boundary or can lower
    degrees).  A preimage is transported to the bar side and completed by
    one carrier solve; an instance with no Xi side gets the carrier solve
    alone.  Group domains use the pointwise reduction for cyclic groups.
    Either way, `cohomologous` is answered only once q * D(u)^-1 = e holds
    on every tuple inside the budget; the detail counts the tuples skipped
    for budget.
    """
    for g in (f, f2):
        coc = check_cocycle_conditions(ctx, g)
        if not coc.all_flags:
            raise ValueError("cocycle flags not all true: %r" % coc)
    q = convolve(f, conv_inverse(f2))
    e2 = ctx.unit_cochain(2)
    u = ctx.unit_cochain(1)
    res = conv_equal(q, e2)
    if not res.passed:
        kind = ctx.domain(2).kind
        if kind == "graded_connected":
            u = xi_h2_witness(ctx, conv_log(q))
        elif kind == "grouplike":
            u = _h2_group(ctx, q)
        else:
            return H2Verdict("inconclusive",
                             detail="unsupported domain kind %r" % kind)
        if isinstance(u, H2Verdict):
            return u
        res = conv_equal(convolve(q, conv_inverse(differential(ctx, u))), e2)
        if not res.passed:
            return H2Verdict("inconclusive",
                             detail="the witness fails q * D(u)^-1 = e")
    return H2Verdict("cohomologous", u,
                     "q * D(u)^-1 = e on %d tuples, %d skipped for budget"
                     % (res.checked, res.skipped))


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


def _h2_group(ctx, q):
    """Cyclic-group pointwise reduction over the scalar line plus
    nilpotents: the witness u to check, or the verdict if there is none."""
    mad = ctx.mad
    A = mad.algebra
    group = getattr(mad.hopf, "group", None)
    if group is None:
        return H2Verdict("inconclusive", detail="no group data on the instance")
    # cyclicity check: some element generates
    gen = None
    for g in group.elements:
        seen, cur = {group.identity}, g
        while cur != group.identity:
            seen.add(cur)
            cur = group.mul(cur, g)
        if len(seen) == len(group.elements):
            gen = g
            break
    if gen is None:
        return H2Verdict("inconclusive", detail="group is not cyclic")
    n = len(group.elements)
    unit_lab = A.unit.items()[0][0]

    def scalar_part(elt):
        return elt.coeffs.get(unit_lab, Fraction(0))

    # scalar 2-cocycle: the class is the norm N = prod_i q0(gen, gen^i)
    power = {0: group.identity}
    for i in range(1, n):
        power[i] = group.mul(power[i - 1], gen)
    norm = Fraction(1)
    for i in range(n):
        val = scalar_part(q((gen, power[i])))
        if val == 0:
            return H2Verdict("inconclusive", detail="non-unit scalar part")
        norm *= val
    root = _rational_nth_root(norm, n)
    if root is None:
        return H2Verdict(
            "inequivalent",
            detail="scalar class %s is not an n-th power in Q" % norm)

    # build u0 on the scalar line: u0(gen^k) = r^k / prod_{i<k} q0(gen, gen^i)
    u0 = {group.identity: Fraction(1)}
    run = Fraction(1)
    for k in range(1, n):
        run *= scalar_part(q((gen, power[k - 1])))
        u0[power[k]] = root ** k / run

    C1 = ctx.domain(1)
    cand = ConvMap.from_function(
        C1, A, lambda lab: u0[lab[0]] * A.unit)
    resid = convolve(q, conv_inverse(differential(ctx, cand)))

    # nilpotent residue: solve the linearized coboundary equation
    units = [{j: 1} for j in range(len(ctx.grid(1)))]
    v = ctx.coboundary_preimage(units, resid - ctx.unit_cochain(2))
    if v is None:
        return H2Verdict("inconclusive",
                         detail="scalar part trivial but nilpotent residue "
                                "not linearizable")
    return convolve(cand, v + ctx.unit_cochain(1))


def _rational_nth_root(x: Fraction, n: int):
    if x == 0:
        return None
    sign = 1
    if x < 0:
        if n % 2 == 0:
            return None
        sign, x = -1, -x
    p, q_ = x.numerator, x.denominator
    rp, rq = _int_nth_root(p, n), _int_nth_root(q_, n)
    if rp is None or rq is None:
        return None
    return Fraction(sign * rp, rq)


def _int_nth_root(m: int, n: int):
    if m == 0:
        return 0
    lo, hi = 1, 1
    while hi ** n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == m else None


# ---------------------------------------------------------------------------
# cocycle documents, and a presentation rebuilt from its class

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
        rhs = tensor(Element(A.space, {(1,): spec_obj.Q[i][0]}), x1) + \
            tensor(Element(A.space, {(1,): spec_obj.Q[i][1]}), x2) + \
            cp.include_algebra(Element(
                A.space, {(u,): c for u, c in enumerate(spec_obj.beta[i]) if c}))
        check_item(report, "relation.W%d_Y" % (i + 1),
                   None if lhs == rhs else "W%d*Y" % (i + 1))
    comm = cp.multiply(W1, W2) - cp.multiply(W2, W1)
    check_item(report, "relation.commutator",
               None if comm == cp.include_algebra(b)
               else "W1*W2 - W2*W1 != b")
    return cp, report

