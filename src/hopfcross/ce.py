"""The Koszul-type DGA resolution D_*, its contracting homotopy, the
transposition on each degree, the functor Xi, and the comparison maps to the
normalized bar resolution.

Basis monomials have the normal form Y^a e_S Z^b (Y's sorted, e's strictly
increasing, Z's sorted).  T_x = Y_x - Z_x is an abbreviation that is expanded
immediately; the auxiliary grading p is computed in the (Y, e, T) normal form
Y^a e_S T^k, where it is |S| + |k|.  One rewriting routine, `_rewrite`, gives
both normal forms, and both are keyed by the monomial (a, S, c), c the
exponent of the third letter.  The half coefficients in the rewriting rules
require characteristic zero.

Inside `CEAlgebra` an element is a scaled-integer vector (den, {key: int})
(`exact.scaled_integers`), and every sum is an int sum over a common
denominator (`exact.combine_scaled`).  Normal forms are computed once per
distinct input and cached in that form: `_rewrite` per word in the basis its
letters name, `_nf` per word with a T letter, and `d` and `gamma` per basis
monomial.  These entries are shared by every caller, so they are read-only.
`to_t_basis`, `_p_parts` and `_sigma` return integer forms too, and
`verify_resolution_identities` composes them.

Fractions are made only at the public methods: `nf` converts a word's
normal form once and caches the Fraction dict, a shared read-only entry
(copy one before changing it); `differential`, `gamma`, `sigma` and
`p_decompose` take and return Fraction dicts, fresh on each call.

The comparison map Phi = sigma o Phi o b' of `BarComparison` has two paths,
chosen from the Lie algebra with no option.  The reference computes every
product and every sigma with the rewriting system above; it is the only
path for a nonabelian L.  For abelian L, D = k[Y, T] (x) Lambda(e) is
graded-commutative, and the same recursion runs on exponents in the
(Y, e, T) coordinates, where sigma is the Euler homotopy (`_sigma_t`).
Tests check that path against the reference.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from operator import add, sub

from .exact import (Element, Slot, Space, TruncationOverflow, add_basis_term,
                    add_into, add_term, combine_scaled, echelon_basis,
                    nullspace, scaled_integers, solution_space, tensor)
from .hopf import (HopfData, LieSpec, Report, _exponent_labels, _word_of,
                   check_equal_on, compare_on)
from .actions import ModuleAlgebraData
from .sweedler import _commutators, invariant_subspace

HALF = Fraction(1, 2)


class AlphaConditionViolated(Exception):
    def __init__(self, cond, msg=""):
        super().__init__("alpha condition (%s) violated%s"
                         % (cond, ": " + msg if msg else ""))
        self.cond = cond


#: the zero scaled-integer vector, shared by the cache entries that are 0
_ZERO = (1, {})

#: the letter order of both normal forms: Y < e < Z, and Y < e < T
_RANK = {"Y": 0, "E": 1, "Z": 2, "T": 2}


def _fractions(vec):
    """A scaled-integer vector as a key -> Fraction dict, in its order."""
    den, nums = vec
    if den == 1:
        return {k: Fraction(n) for k, n in nums.items()}
    return {k: Fraction(n, den) for k, n in nums.items()}


class CEAlgebra:
    """Confluent rewriting over the generators Y_i, Z_i, e_i of a fixed
    finite-dimensional Lie algebra basis."""

    def __init__(self, lie: LieSpec):
        self.lie = lie
        self.r = lie.dim
        self._rewritten = {}    # word -> normal form in its own letters
        self._nf_t_words = {}   # word with a T letter -> Y/e/Z normal form
        self._nf_fractions = {}  # word -> nf(word), the Fraction dict
        self._d_images = {}     # basis monomial -> d(monomial)
        self._gamma_images = {}  # basis monomial -> gamma(monomial)
        self._corrections = {}   # letter pair -> `_corr` terms
        # one tuple per letter, shared by every word built here: the words
        # are cache keys, and sharing their letters keeps the caches small
        self._letters = {kind: tuple((kind, i) for i in range(self.r))
                         for kind in "YZET"}

    # -- words are tuples of letters (kind, index), kind in "YZET"

    def mono_word(self, mono, third="Z"):
        """The sorted word Y^a e_S X^c of a monomial (a, S, c), where X is
        the letter `third`: Z, or T in the (Y, e, T) basis."""
        a, S, c = mono
        Y, E, X = (self._letters[kind] for kind in ("Y", "E", third))
        word = []
        for i, k in enumerate(a):
            word.extend([Y[i]] * k)
        word.extend(E[s] for s in S)
        for i, k in enumerate(c):
            word.extend([X[i]] * k)
        return tuple(word)

    def _substitute(self, word, kind, minus):
        """Replace each `kind` letter of a word by Y minus the `minus` letter
        of its index; returns {word: +-1}."""
        Y, M = self._letters["Y"], self._letters[minus]
        out = {(): 1}
        for letter in word:
            if letter[0] == kind:
                y, m = Y[letter[1]], M[letter[1]]
                nxt = {}
                for w, c in out.items():
                    nxt[w + (y,)] = c
                    nxt[w + (m,)] = -c
                out = nxt
            else:
                out = {w + (letter,): c for w, c in out.items()}
        return out

    def expand_t(self, word):
        """Expand every T letter into Y - Z; returns {word: +-1}."""
        return self._substitute(word, "T", "Z")

    def nf(self, word):
        """Normal form of a word (T letters allowed) in the Y/e/Z basis, as
        a Fraction dict.

        The result is a shared cache entry: read-only."""
        word = tuple(word)
        out = self._nf_fractions.get(word)
        if out is None:
            out = self._nf_fractions[word] = _fractions(self._nf(word))
        return out

    def _nf(self, word):
        """`nf` as a scaled-integer vector, a shared cache entry."""
        cached = self._nf_t_words.get(word)
        if cached is not None:
            return cached
        if all(kind != "T" for kind, _ in word):
            return self._rewrite(word)
        out = self._nf_t_words[word] = combine_scaled(
            (c, 1, self._rewrite(w)) for w, c in self.expand_t(word).items())
        return out

    def _rewrite(self, word):
        """Normal form of a word with no T letter (the Y/e/Z basis) or no Z
        letter (the (Y, e, T) basis), as a scaled-integer vector over the
        monomials (a, S, c) of Y^a e_S X^c, X the word's third letter; a
        shared cache entry.

        Letters are ordered Y < e < X, and an adjacent pair out of order is
        exchanged: with sign -1 for e/e, plus the `_corr` terms otherwise;
        e_i e_i = 0."""
        cached = self._rewritten.get(word)
        if cached is not None:
            return cached
        for k in range(len(word) - 1):
            (k1, i1), (k2, i2) = word[k], word[k + 1]
            if k1 != k2:
                if _RANK[k1] < _RANK[k2]:
                    continue
            elif i1 < i2 or (i1 == i2 and k1 != "E"):
                continue
            elif i1 == i2:                  # e_i e_i = 0
                out = self._rewritten[word] = _ZERO
                return out
            pre, post = word[:k], word[k + 2:]
            sign = -1 if k1 == k2 == "E" else 1
            terms = [(sign, 1,
                      self._rewrite(pre + (word[k + 1], word[k]) + post))]
            terms.extend((p, q, self._rewrite(pre + (g,) + post))
                         for g, p, q in self._corr(k1, i1, k2, i2))
            out = self._rewritten[word] = combine_scaled(terms)
            return out
        # sorted: package into a monomial
        a = [0] * self.r
        c = [0] * self.r
        S = []
        for kind, i in word:
            if kind == "Y":
                a[i] += 1
            elif kind == "E":
                S.append(i)
            else:
                c[i] += 1
        out = self._rewritten[word] = (1, {(tuple(a), tuple(S), tuple(c)): 1})
        return out

    def _corr(self, k1, i1, k2, i2):
        """Correction terms (letter, p, q), for p/q times the word with that
        letter in place of the pair, of moving (k1,i1) right past (k2,i2);
        computed once per pair.  A letter moves right past Y_j with the
        correction 1/2 of its kind at the bracket, in both bases; the e/e,
        T/T and T/e exchanges are free."""
        key = (k1, i1, k2, i2)
        terms = self._corrections.get(key)
        if terms is not None:
            return terms
        br = self.lie.bracket(i1, i2)
        if k1 == "Z" and k2 == "Z":
            # the Z correction and the extra -1/2 Y of the Z/Z exchange
            scaled = [("Z", 1), ("Y", -HALF)]
        elif k2 == "Y":
            scaled = [(k1, HALF)]
        elif (k1, k2) == ("Z", "E"):
            scaled = [("E", HALF)]
        elif (k1, k2) in (("E", "E"), ("T", "T"), ("T", "E")):
            scaled = []
        else:
            raise AssertionError((k1, k2))
        terms = self._corrections[key] = []
        for kind, scale in scaled:
            for g, c in br.items():
                c = scale * c
                terms.append((self._letters[kind][g], c.numerator,
                              c.denominator))
        return terms

    # -- the (Y, e, T) basis, used only for the p-grading

    def to_t_basis(self, vec):
        """A scaled-integer vector in the Y/e/Z basis as one in the (Y, e, T)
        basis, over the monomials (a, S, k) of Y^a e_S T^k."""
        den, nums = vec
        return combine_scaled(
            (c * n, den, self._rewrite(w)) for mono, n in nums.items()
            for w, c in self._substitute(self.mono_word(mono), "Z",
                                         "T").items())

    def _by_p(self, vec):
        """to_t_basis(vec) split by p = |S| + |k|:
        (den, {p: {(a, S, k): int}})."""
        den, nums = self.to_t_basis(vec)
        by_p = {}
        for m, n in nums.items():
            by_p.setdefault(len(m[1]) + sum(m[2]), {})[m] = n
        return den, by_p

    # -- differential, derivation, homotopy

    def differential(self, zdict):
        """d: replace each e-letter by T with the Koszul sign."""
        return _fractions(self._d(scaled_integers(zdict)))

    def _d(self, vec):
        return self._extend(vec, self._d_images, self._d_monomial)

    def _d_monomial(self, mono):
        a, S, b = mono
        base = self.mono_word(mono)
        npos = sum(a)
        T = self._letters["T"]
        return self._signed_sum(
            [(base[:npos + t] + (T[s],) + base[npos + t + 1:],
              -1 if t % 2 else 1) for t, s in enumerate(S)])

    def gamma(self, zdict):
        """The odd derivation with gamma(Y)=gamma(e)=0, gamma(Z) = -e."""
        return _fractions(self._gamma(scaled_integers(zdict)))

    def _gamma(self, vec):
        return self._extend(vec, self._gamma_images, self._gamma_monomial)

    def _gamma_monomial(self, mono):
        a, S, b = mono
        base = self.mono_word(mono)
        npos = sum(a) + len(S)
        sign = 1 if len(S) % 2 else -1      # -(-1)^|S|
        E = self._letters["E"]
        return self._signed_sum(
            [(base[:k] + (E[base[k][1]],) + base[k + 1:], sign)
             for k in range(npos, npos + sum(b))])

    def _signed_sum(self, terms):
        """The sum of sign * nf(word) over (word, sign) terms.  A lone term
        of sign 1 is the shared nf entry itself, which saves its copy."""
        if not terms:
            return _ZERO
        if len(terms) == 1 and terms[0][1] == 1:
            return self._nf(terms[0][0])
        return combine_scaled((sign, 1, self._nf(word))
                              for word, sign in terms)

    @staticmethod
    def _extend(vec, images, image_of):
        """The linear extension of a map given on basis monomials, whose
        images are cached in `images`.  A basis vector's image is the
        cache entry itself: read-only."""
        den, nums = vec
        terms = []
        for mono, n in nums.items():
            img = images.get(mono)
            if img is None:
                img = images[mono] = image_of(mono)
            terms.append((n, den, img))
        if len(terms) == 1 and terms[0][0] == den:
            return terms[0][2]
        return combine_scaled(terms)

    def sigma(self, zdict):
        """sigma(P) = gamma(P) / p(P) per p-homogeneous component (0 on p=0)."""
        return _fractions(self._sigma(scaled_integers(zdict)))

    def _sigma(self, vec):
        den, by_p = self._by_p(vec)
        E = self._letters["E"]
        terms = []
        for p, part in by_p.items():
            if p == 0:
                continue
            # gamma in the T-basis: replace each T by e with the Koszul sign
            for m, n in part.items():
                w = self.mono_word(m, "T")
                sign = -1 if len(m[1]) % 2 else 1
                terms.extend((sign * n, den * p,
                              self._nf(w[:i] + (E[idx],) + w[i + 1:]))
                             for i, (kind, idx) in enumerate(w) if kind == "T")
        return combine_scaled(terms)

    def p_decompose(self, zdict):
        """Components of an element by the auxiliary grading p."""
        return {p: _fractions(part)
                for p, part in self._p_parts(scaled_integers(zdict)).items()}

    def _p_parts(self, vec):
        den, by_p = self._by_p(vec)
        out = {}
        for p, part in by_p.items():
            zpart = combine_scaled((n, den, self._nf(self.mono_word(m, "T")))
                                   for m, n in part.items())
            if zpart[1]:
                out[p] = zpart
        return out

    def monomials(self, hom_degree, pbw_budget):
        """All basis monomials of homological degree n with |a|+|b| bounded."""
        subsets = list(itertools.combinations(range(self.r), hom_degree))
        out = []
        for a in _exponent_labels(self.r, pbw_budget):
            for b in _exponent_labels(self.r, pbw_budget - sum(a)):
                for S in subsets:
                    out.append((tuple(a), tuple(S), tuple(b)))
        return out

    def augmentation(self, zdict, hopf: HopfData):
        """mu: D_0 -> H, the retraction along the auxiliary grading.

        The p = 0 component of an element (in the T-normal form) is a sum
        of pure Y-monomials (a, (), 0); renaming Y^a to the PBW monomial x^a
        of H gives the unique augmentation for which sigma is a contracting
        homotopy.  For an abelian Lie algebra this is just Y^a Z^b ->
        x^{a+b}.
        """
        den, nums = self.to_t_basis(scaled_integers(zdict))
        out = {}
        for (a, S, k), n in nums.items():
            if not S and not any(k):
                add_basis_term(out, hopf.space, (a,), Fraction(n, den))
        return Element(hopf.space, out, validate=False)

    def section(self, h_elt: Element):
        """sigma_0: H -> D_0 on the PBW basis, x^a -> Y^a."""
        out = {}
        for (a,), c in h_elt.coeffs.items():
            add_term(out, (a, (), (0,) * self.r), c)
        return out


def verify_resolution_identities(ce: CEAlgebra, budget=None):
    """d o d = 0 on the monomials of homological degree <= 3 and PBW degree
    <= min(budget, 3), and gamma d + d gamma = p on each (monomial, p) pair
    of their p-components: one `check_equal_on` over each.

    Both run on the integer forms: an identity holds when its residual,
    an int sum over a common denominator, is the empty vector."""
    report = Report("resolution identities")
    monos = [mono for n in range(0, min(3, ce.r) + 1)
             for mono in ce.monomials(n, min(budget or 3, 3))]

    def empty(x, t):
        return {}

    check_equal_on(report, "ce.d_squared_zero", Space((Slot("mono", monos),)),
                   lambda x, t: ce._d(ce._d((1, {t[0]: 1})))[1], empty)

    parts = {mono: ce._p_parts((1, {mono: 1})) for mono in monos}

    def homotopy_residual(x, t):
        (mono, p), = t
        part = parts[mono][p]
        return combine_scaled([(1, 1, ce._gamma(ce._d(part))),
                               (1, 1, ce._d(ce._gamma(part))),
                               (-p, 1, part)])[1]

    pairs = Slot("mono_p", [(mono, p) for mono in monos for p in parts[mono]])
    check_equal_on(report, "ce.homotopy_scaling", Space((pairs,)),
                   homotopy_residual, empty)
    return report


# ---------------------------------------------------------------------------
# the transposition s_D induced by an alpha matrix

def _gather(terms):
    """Sum (key, Element) terms into a dict that keeps no zero value."""
    out = {}
    for k, v in terms:
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


class CETransposition:
    """s_D on every degree of D, from alpha_i^j with conditions (a)-(d)."""

    def __init__(self, ce: CEAlgebra, mad: ModuleAlgebraData, alpha):
        """alpha: r x r matrix of LinMaps A -> A with s(x_i (x) a) =
        sum_j alpha[i][j](a) (x) x_j."""
        self.ce = ce
        self.mad = mad
        self.alpha = alpha
        self._centers = {}
        self._check_conditions()

    def center(self, window=None):
        """Basis of Z(sA) within the window (`center_of_invariants`),
        computed once per window."""
        if window not in self._centers:
            self._centers[window] = center_of_invariants(self.mad, window)
        return self._centers[window]

    def _check_conditions(self):
        A = self.mad.algebra
        r = self.ce.r
        alpha = self.alpha
        unit = A.unit
        images = {}

        def image(i, j, la):
            """alpha_i^j(e_a), computed once per (i, j, a)."""
            key = (i, j, la)
            val = images.get(key)
            if val is None:
                val = images[key] = alpha[i][j].apply(
                    Element.basis_vector(A.space, la))
            return val

        for i in range(r):
            for j in range(r):
                want = unit if i == j else Element.zero(A.space)
                if alpha[i][j].apply(unit) != want:
                    raise AlphaConditionViolated("a")
        labels = list(A.space.basis())
        for la, lb in itertools.product(labels, repeat=2):
            ea, eb = Element.basis_vector(A.space, la), Element.basis_vector(A.space, lb)
            try:
                prod = A.multiply(ea, eb)
            except TruncationOverflow:
                continue
            for i in range(r):
                for j in range(r):
                    lhs = alpha[i][j].apply(prod)
                    rhs = {}
                    for l in range(r):
                        add_into(rhs, A.multiply(image(i, l, la),
                                                 image(l, j, lb)).coeffs,
                                 1)
                    if lhs.coeffs != rhs:
                        raise AlphaConditionViolated(
                            "b", "at (%r, %r) entry (%d,%d)" % (la, lb, i, j))
        for la in labels:
            for i, j, l, m in itertools.product(range(r), repeat=4):
                if alpha[i][l].apply(image(j, m, la)) != \
                        alpha[j][m].apply(image(i, l, la)):
                    raise AlphaConditionViolated("c")
        # (d): s([x_i,x_j] (x) a) = sum_{l<m} (a_i^l a_j^m - a_i^m a_j^l)(a) (x) [x_l,x_m]
        for i, j in itertools.combinations(range(self.ce.r), 2):
            br = self.ce.lie.bracket(i, j)
            for la in labels:
                lhs = {}
                for g, c in br.items():
                    for t in range(r):
                        val = image(g, t, la)
                        for out_lab, v in val.coeffs.items():
                            add_term(lhs, (out_lab, t), c * v)
                rhs = {}
                for l, m in itertools.combinations(range(r), 2):
                    val = alpha[i][l].apply(image(j, m, la)) - \
                        alpha[i][m].apply(image(j, l, la))
                    for g, c in self.ce.lie.bracket(l, m).items():
                        for out_lab, v in val.coeffs.items():
                            add_term(rhs, (out_lab, g), c * v)
                if lhs != rhs:
                    raise AlphaConditionViolated("d", "at basis %r" % (la,))

    def cross(self, mono, a_elt: Element):
        """s_D(mono (x) a): a dict {ce-mono: Element of A}."""
        return self.cross_word(self.ce.mono_word(mono), a_elt)

    def cross_word(self, word, a_elt: Element):
        """s_D(word (x) a) for a word in the letters, in normal form."""
        state = {(): a_elt}
        # cross letters from the right; the leftmost alpha is applied last
        for letter in reversed(tuple(word)):
            kind, i = letter
            nxt = {}
            for suffix, val in state.items():
                for j in range(self.ce.r):
                    img = self.alpha[i][j].apply(val)
                    if img.is_zero():
                        continue
                    key = ((kind, j),) + suffix
                    nxt[key] = nxt.get(key, Element.zero(val.space)) + img
            state = nxt
        out = {}
        for word2, val in state.items():
            for mono2, c in self.ce.nf(word2).items():
                out[mono2] = out.get(mono2, Element.zero(val.space)) + c * val
        return {m: v for m, v in out.items() if not v.is_zero()}

    def respects_relations(self, budget_labels=None) -> bool:
        """s_T of both sides of every defining relation agree in normal form:
        Y_i Y_j = Y_j Y_i + 1/2 Y_[i,j], e_i Y_j = Y_j e_i + 1/2 e_[i,j] and
        e_i^2 = 0, on each A label of budget_labels (default: all of A)."""
        A = self.mad.algebra
        labels = budget_labels if budget_labels is not None \
            else list(A.space.basis())
        r = self.ce.r
        # each relation is a pair of sides, a side a list of (coeff, word)
        relations = []
        for i in range(r):
            for j in range(r):
                br = self.ce.lie.bracket(i, j).items()
                for kind in ("Y", "E"):
                    relations.append((
                        [(1, ((kind, i), ("Y", j)))],
                        [(1, (("Y", j), (kind, i)))]
                        + [(HALF * c, ((kind, g),)) for g, c in br]))
        relations += [([(1, (("E", i), ("E", i)))], []) for i in range(r)]

        def side(k):
            def value(x, t):
                la, rel = t
                a = Element.basis_vector(A.space, la)
                return _gather((m, c * v) for c, word in relations[rel][k]
                               for m, v in self.cross_word(word, a).items())
            return value

        space = Space((Slot("A", labels), Slot("relation",
                                               range(len(relations)))))
        return compare_on(space, side(0), side(1), first_failure=True).passed


# ---------------------------------------------------------------------------
# the functor Xi on the resolution

def center_of_invariants(mad: ModuleAlgebraData, window=None):
    """Basis of Z(sA), sA = {a : s(h (x) a) = a (x) h}, within a window,
    in reduced echelon form: the elements of sA that commute with sA."""
    sA = invariant_subspace(mad, window=window)
    space = mad.algebra.space
    return echelon_basis(space, solution_space(
        space, sA, _commutators(mad.algebra, sA)))


class XiSolution:
    def __init__(self, e_sets, basis, window):
        self.e_sets = e_sets        # ordered generator subsets of this degree
        self.basis = basis          # list of dicts S -> Element of A
        self.window = window

    @property
    def dim(self):
        return len(self.basis)


def xi_space(ce: CEAlgebra, n: int, trans: CETransposition,
             window=None) -> XiSolution:
    """Solution space of Xi(D_n): values b_S in Z(sA) on the generator set
    {e_S}, phi-central against the degree-one generators of A.

    Centrality on generators extends to the whole of A and the bimodule, so
    the linear system below is the full condition set.  A product that
    leaves A's budget raises TruncationOverflow; `trans.center(window)`
    keeps Z(sA) below the budget for every window the callers pass.
    """
    mad = trans.mad
    A = mad.algebra
    r = ce.r
    e_sets = list(itertools.combinations(range(r), n))
    if not e_sets:
        return XiSolution([], [], window)
    zsa = trans.center(window)
    if not zsa:
        return XiSolution(e_sets, [], window)
    nz = len(zsa)
    nvars = nz * len(e_sets)
    gens = [lab for lab in A.space.basis() if A.space.degree(lab) == 1]
    if not gens and len(list(A.space.basis())) > 1:
        gens = [lab for lab in A.space.basis() if A.space.degree(lab) > 0]
    rows = []
    set_index = {S: k for k, S in enumerate(e_sets)}
    for S in e_sets:
        mono = ((0,) * r, S, (0,) * r)
        for gl in gens:
            g = Element.basis_vector(A.space, gl)
            eq = {}
            # lhs: b_S * g
            for z_i, zb in enumerate(zsa):
                j = set_index[S] * nz + z_i
                for out, v in A.multiply(zb, g).coeffs.items():
                    add_term(eq.setdefault(out, {}), j, v)
            # rhs: sum over s_D(e_S (x) g)
            for mono2, a_val in trans.cross(mono, g).items():
                S2 = mono2[1]
                if mono2[0] != (0,) * r or mono2[2] != (0,) * r:
                    continue
                for z_i, zb in enumerate(zsa):
                    j = set_index[S2] * nz + z_i
                    for out, v in A.multiply(a_val, zb).coeffs.items():
                        add_term(eq.setdefault(out, {}), j, -v)
            rows.extend(eq.values())
    basis = []
    for vec in nullspace(rows, nvars):
        val = {}
        for S in e_sets:
            acc = {}
            for z_i, zb in enumerate(zsa):
                c = vec.get(set_index[S] * nz + z_i)
                if c:
                    add_into(acc, zb.coeffs, c)
            val[S] = Element(A.space, acc, validate=False)
        if any(not v.is_zero() for v in val.values()):
            basis.append(val)
    return XiSolution(e_sets, basis, window)


def evaluate_bimodule_cochain(mad: ModuleAlgebraData, values_by_S, zdict,
                              project=False):
    """Evaluate the bimodule map determined by values on {e_S} at an element.

    f(Y^a e_S Z^b) = (x^a) . values[S] . eps(x^b); the trivial right action
    kills every monomial with b != 0.  A monomial whose value leaves the
    budget raises TruncationOverflow, or is dropped when project=True.
    """
    A = mad.algebra
    out = {}
    for (a, S, b), c in zdict.items():
        if sum(b) != 0:
            continue
        val = values_by_S.get(S)
        if val is None or val.is_zero():
            continue
        acc = val
        try:
            for i in reversed(range(len(a))):
                for _ in range(a[i]):
                    acc = mad.act(Element.basis_vector(
                        mad.hopf.space, (_gen_atom(len(a), i),)), acc)
        except TruncationOverflow:
            if not project:
                raise
            continue
        add_into(out, acc.coeffs, c)
    return Element(A.space, out, validate=False)


def xi_differential_matrix(ce: CEAlgebra, trans: CETransposition,
                           lo: XiSolution, hi: XiSolution, n: int):
    """Matrix of f -> f o d_n from Xi(D_{n-1}) to coordinates of Xi(D_n)'s
    ambient value grid.  Components above the budget are dropped, and the
    returned flag says whether any was (the caller reports it as a
    truncation caveat)."""
    mad = trans.mad
    r = ce.r
    images = []
    overflow = False
    for f in lo.basis:
        img = {}
        for S in hi.e_sets:
            mono = ((0,) * r, S, (0,) * r)
            d_mono = ce.differential({mono: Fraction(1)})
            try:
                val = evaluate_bimodule_cochain(mad, f, d_mono)
            except TruncationOverflow:
                overflow = True
                val = evaluate_bimodule_cochain(mad, f, d_mono, project=True)
            img[S] = val
        images.append(img)
    return images, overflow


# ---------------------------------------------------------------------------
# bar resolution and comparison maps

class BarComparison:
    """phi_n: D_n -> bar_n and its quasi-inverse, with both the recursive
    definitions and the closed forms.

    `Phi` computes Phi_n = sigma o Phi_{n-1} o b' on two paths, chosen once
    from the Lie algebra:

    - the reference, `_Phi_core`: every product and every sigma goes
      through the rewriting system of `ce` (`nf`, `sigma`).  It is the
      only path for a nonabelian L.
    - the commuting path, `_Phi_core_t`, taken when L is abelian
      (`commuting`).  Then D = k[Y, T] (x) Lambda(e) is graded-commutative
      and the same recursion runs on exponents: elements are {(a, S, k): c}
      for Y^a e_S T^k, Z^h = (Y - T)^h expands by binomials, and sigma is
      the Euler homotopy `_sigma_t`.  The core is cached per middle in these
      coordinates and taken to the Y/e/Z basis once, when `Phi` returns.
    """

    def __init__(self, ce: CEAlgebra, hopf: HopfData):
        self.ce = ce
        self.hopf = hopf
        self.r = ce.r
        self.unit_atom = hopf.unit_label()
        self.commuting = ce.lie.is_abelian()
        self._phi_memo = {}         # middle -> core, Y/e/Z basis
        self._phi_t_memo = {}       # middle -> core, (Y, e, T) coordinates
        self._expansions = {}       # exponent h -> terms of (Y - T)^h

    # bar elements: dict {(h0, mid_tuple, h1): coeff}

    def phi_recursive(self, S):
        """phi_n(e_S) by the recursion through d_n."""
        n = len(S)
        if n == 0:
            return {(self.unit_atom, (), self.unit_atom): Fraction(1)}
        mono = ((0,) * self.r, tuple(S), (0,) * self.r)
        d = self.ce.differential({mono: Fraction(1)})
        out = {}
        for (a, S2, b), c in d.items():
            inner = self.phi_recursive(S2)
            # multiply by x^a on the left, x^b on the right (degree <= 1 each)
            for (h0, mid, h1), v in inner.items():
                h0e = Element.basis_vector(self.hopf.space, (h0,))
                h1e = Element.basis_vector(self.hopf.space, (h1,))
                if sum(a):
                    i = a.index(1)
                    h0e = self.hopf.multiply(
                        Element.basis_vector(self.hopf.space,
                                             (_gen_atom(self.r, i),)), h0e)
                if sum(b):
                    i = b.index(1)
                    h1e = self.hopf.multiply(
                        h1e, Element.basis_vector(self.hopf.space,
                                                  (_gen_atom(self.r, i),)))
                for (h0b,), c0 in h0e.coeffs.items():
                    for (h1b,), c1 in h1e.coeffs.items():
                        # prepend 1 and push h0 into the normalized middle
                        if h0b == self.unit_atom:
                            continue
                        key = (self.unit_atom, (h0b,) + mid, h1b)
                        add_term(out, key, c * v * c0 * c1)
        return out

    def phi_closed(self, S):
        """Sum over permutations with signs, outer slots trivial."""
        out = {}
        for tau in itertools.permutations(range(len(S))):
            sign = _perm_sign(tau)
            mid = tuple(_gen_atom(self.r, S[t]) for t in tau)
            add_term(out, (self.unit_atom, mid, self.unit_atom),
                     Fraction(sign))
        return out

    def bar_differential(self, n, key):
        """b'_n on a basis bar element; middle entries are H atoms."""
        h0, mid, h1 = key
        out = {}
        H = self.hopf

        def emit(h0e, mid_entries, h1e, sign):
            for (h0b,), c0 in h0e.coeffs.items():
                for (h1b,), c1 in h1e.coeffs.items():
                    add_term(out, (h0b, mid_entries, h1b), sign * c0 * c1)

        h0e = Element.basis_vector(H.space, (h0,))
        h1e = Element.basis_vector(H.space, (h1,))
        # face 0: multiply h0 into the first middle entry
        first = H.multiply(h0e, Element.basis_vector(H.space, (mid[0],)))
        for (m0,), c in first.coeffs.items():
            emit(c * Element.basis_vector(H.space, (m0,)),
                 mid[1:], h1e, Fraction(1))
        # interior faces
        for i in range(len(mid) - 1):
            prod = H.multiply(Element.basis_vector(H.space, (mid[i],)),
                              Element.basis_vector(H.space, (mid[i + 1],)))
            for (mm,), c in prod.coeffs.items():
                if mm == self.unit_atom:
                    continue        # normalized bar: unit middle entries die
                emit(c * h0e, mid[:i] + (mm,) + mid[i + 2:], h1e,
                     Fraction(-1) ** (i + 1))
        # last face: multiply the last middle entry into h1
        last = H.multiply(Element.basis_vector(H.space, (mid[-1],)), h1e)
        for (m1,), c in last.coeffs.items():
            emit(h0e, mid[:-1], c * Element.basis_vector(H.space, (m1,)),
                 Fraction(-1) ** len(mid))
        return out

    def Phi(self, key):
        """Phi_n on a basis bar element, by the sigma-recursion, in the
        Y/e/Z basis."""
        h0, mid, h1 = key
        if self.commuting:
            return self._z_basis(self._Phi_core_t(mid), h0, h1)
        core = self._Phi_core(mid)
        out = {}
        for mono, c in core.items():
            word = (tuple(("Y", i) for i in _word_of(h0))
                    + self.ce.mono_word(mono)
                    + tuple(("Z", i) for i in _word_of(h1)))
            for m, v in self.ce.nf(word).items():
                add_term(out, m, c * v)
        return out

    def _Phi_core(self, mid):
        if mid in self._phi_memo:
            return self._phi_memo[mid]
        if len(mid) == 0:
            out = {((0,) * self.r, (), (0,) * self.r): Fraction(1)}
            self._phi_memo[mid] = out
            return out
        bprime = self.bar_differential(len(mid),
                                       (self.unit_atom, mid, self.unit_atom))
        acc = {}
        for (h0, mid2, h1), c in bprime.items():
            for mono, v in self.Phi((h0, mid2, h1)).items():
                add_term(acc, mono, c * v)
        out = self.ce.sigma(acc)
        self._phi_memo[mid] = out
        return out

    # -- the commuting path (abelian L): Y^a e_S T^k as {(a, S, k): c}

    def _expansion(self, h):
        """(Y - T)^h as [(i, c)] for the terms c Y^(h-i) T^i, i <= h."""
        terms = self._expansions.get(h)
        if terms is None:
            terms = self._expansions[h] = [
                (i, (-1) ** sum(i) * math.prod(map(math.comb, h, i)))
                for i in itertools.product(*(range(x + 1) for x in h))]
        return terms

    def _Phi_core_t(self, mid):
        """`_Phi_core` for abelian L, in (Y, e, T) coordinates: sigma of the
        sum of c Y^h0 core(mid2) Z^h1 over the terms (h0, mid2, h1, c) of
        b'(1 | mid | 1)."""
        out = self._phi_t_memo.get(mid)
        if out is not None:
            return out
        if not mid:
            zero = (0,) * self.r
            out = self._phi_t_memo[mid] = {(zero, (), zero): Fraction(1)}
            return out
        bprime = self.bar_differential(len(mid),
                                       (self.unit_atom, mid, self.unit_atom))
        acc = {}
        for (h0, mid2, h1), c in bprime.items():
            terms = self._expansion(h1)
            for (a, S, k), v in self._Phi_core_t(mid2).items():
                cv = c * v
                top = tuple(map(add, map(add, a, h0), h1))
                for i, b in terms:
                    add_term(acc, (tuple(map(sub, top, i)), S,
                                tuple(map(add, k, i))),
                          cv if b == 1 else cv * b)
        out = self._phi_t_memo[mid] = _sigma_t(acc)
        return out

    def _z_basis(self, elt, h0, h1):
        """Y^h0 elt Z^h1 in the Y/e/Z basis, for elt in (Y, e, T)
        coordinates: T^k = (Y - Z)^k."""
        out = {}
        for (a, S, k), c in elt.items():
            top = tuple(map(add, map(add, a, h0), k))
            for i, b in self._expansion(k):
                # (Y - Z)^k has the coefficients of (Y - T)^k, Z for T
                add_term(out, (tuple(map(sub, top, i)), S,
                            tuple(map(add, i, h1))),
                      c if b == 1 else c * b)
        return out

    def Phi_closed(self, mid):
        """1/n! e_{i_1} ... e_{i_n} for single-generator middle entries."""
        word = []
        for atom in mid:
            if sum(atom) != 1:
                raise ValueError("closed form needs generator entries")
            word.append(("E", atom.index(1)))
        fact = math.factorial(len(mid))
        return {m: v / fact for m, v in self.ce.nf(tuple(word)).items()}


def _sigma_t(elt):
    """sigma = gamma / p in (Y, e, T) coordinates for abelian L: gamma turns
    one T_j into e_j, so Y^a e_S T^k goes to (-1)^|S| sum_j k_j / p times
    Y^a e_S e_j T^(k - 1_j), with p = |S| + |k|; 0 on p = 0, and the j term
    is 0 when j is in S.  e_j moves into S past the indices above j."""
    out = {}
    for (a, S, k), c in elt.items():
        p = len(S) + sum(k)
        if not p:
            continue
        sign = -1 if len(S) % 2 else 1
        for j, kj in enumerate(k):
            if not kj or j in S:
                continue
            pos = bisect.bisect(S, j)
            eps = sign if (len(S) - pos) % 2 == 0 else -sign
            add_term(out, (a, S[:pos] + (j,) + S[pos:],
                        k[:j] + (kj - 1,) + k[j + 1:]),
                  c * Fraction(eps * kj, p))
    return out


def _gen_atom(r, i):
    """The exponent of the generator x_i among r: 1 at i, 0 elsewhere."""
    return tuple(1 if t == i else 0 for t in range(r))


def _perm_sign(tau):
    sign = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sign = -sign
    return sign


def verify_bimodule_transposition(ce: CEAlgebra, trans: CETransposition,
                                  n: int, pbw_budget=2, a_window=None):
    """Conditions (1)-(5) for s_D on degree n of the resolution.

    Conditions involving the Hopf leg are imposed against the Lie generators;
    together with multiplicativity of the transposition this covers all of H.
    Each condition is one `compare_on` over the monomials of degree n, the
    generator indices and the A labels inside the window; a tuple whose
    product leaves A's budget is skipped.  Both sides are {mono: Element}
    dicts without zero values (keyed (mono, Hopf label) for condition 3).
    """
    mad = trans.mad
    A = mad.algebra
    cross = trans.cross
    report = Report("bimodule transposition on degree %d" % n)
    monos = ce.monomials(n, pbw_budget)
    mono_slot = Slot("mono", monos)
    gen_slot = Slot("gen", range(ce.r))
    a_slot = Slot("A", [l for l in A.space.basis()
                        if a_window is None or A.space.degree(l) <= a_window])
    gens = [Element.basis_vector(mad.hopf.space, (_gen_atom(ce.r, i),))
            for i in range(ce.r)]

    def e(la):
        return Element.basis_vector(A.space, la)

    def check(name, slots, lhs, rhs):
        return report.add(compare_on(Space(slots), lambda x, t: lhs(*t),
                                     lambda x, t: rhs(*t), name=name))

    res1 = check(
        "def52.1_algebra_compat", (mono_slot, a_slot, a_slot),
        lambda mono, la, lb: cross(mono, A.multiply(e(la), e(lb))),
        lambda mono, la, lb: _gather(
            (m2, A.multiply(a1, a2))
            for m1, a1 in cross(mono, e(la)).items()
            for m2, a2 in cross(m1, e(lb)).items()))
    res1.failures.extend((mono, "unit") for mono in monos
                         if cross(mono, A.unit) != {mono: A.unit})

    check("def52.2_action_compat", (mono_slot, gen_slot, a_slot),
          lambda mono, i, la: cross(mono, mad.act(gens[i], e(la))),
          lambda mono, i, la: _gather(
              (m1, mad.act(gens[i], a1))
              for m1, a1 in cross(mono, e(la)).items()))

    def s_terms(i, a_elt):
        """s(x_i (x) a) as (A label, Hopf label, coefficient) triples."""
        return [(ap, hp, w) for (ap, hp), w in
                mad.s.apply(tensor(gens[i], a_elt)).coeffs.items()]

    check("def52.3_s_exchange", (mono_slot, gen_slot, a_slot),
          lambda mono, i, la: _gather(
              ((m1, hp), w * a1) for ap, hp, w in s_terms(i, e(la))
              for m1, a1 in cross(mono, e((ap,))).items()),
          lambda mono, i, la: _gather(
              ((m1, hp), w * e((ap,)))
              for m1, a1 in cross(mono, e(la)).items()
              for ap, hp, w in s_terms(i, a1)))

    def letters(kind, hp):
        """The word of a Hopf label hp in the letters Y or Z."""
        return tuple((kind, t) for t in _word_of(hp))

    # the one-label side slot keeps the (mono, side, i, la) witnesses
    check("def52.4_right_action", (mono_slot, Slot("side", ("Z",)),
                                   gen_slot, a_slot),
          lambda mono, _, i, la: _gather(
              (m2, c * v) for m, c in ce.nf(
                  ce.mono_word(mono) + (("Z", i),)).items()
              for m2, v in cross(m, e(la)).items()),
          lambda mono, _, i, la: _gather(
              (m2, w * c * a1) for ap, hp, w in s_terms(i, e(la))
              for m1, a1 in cross(mono, e((ap,))).items()
              for m2, c in ce.nf(ce.mono_word(m1) + letters("Z", hp)).items()))
    check("def52.5_left_action", (mono_slot, Slot("side", ("Y",)),
                                  gen_slot, a_slot),
          lambda mono, _, i, la: _gather(
              (m2, c * v) for m, c in ce.nf(
                  (("Y", i),) + ce.mono_word(mono)).items()
              for m2, v in cross(m, e(la)).items()),
          lambda mono, _, i, la: _gather(
              (m2, w * c * e((ap,)))
              for m1, a1 in cross(mono, e(la)).items()
              for ap, hp, w in s_terms(i, a1)
              for m2, c in ce.nf(letters("Y", hp) + ce.mono_word(m1)).items()))
    return report

