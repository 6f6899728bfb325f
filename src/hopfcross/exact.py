"""Exact rational linear algebra over indexed tensor bases.

Every vector space in the engine is a tensor product of named "slots",
each slot carrying an ordered atomic basis and an optional degree per
atom.  Labels of a space are tuples of atoms, one per slot, so tensor
products flatten to concatenation and associativity is definitional.
All coefficients are `fractions.Fraction`; nothing here ever rounds.
`scaled_integers` and `combine_scaled` hold a vector as int numerators over
one denominator, for hot loops that make a Fraction only at their boundary.

A map made by `LinMap.from_function` builds each column the first time it
is read, so a caller pays only for the columns it uses; the function that
gives the columns must therefore be a pure function of its label.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import contains, getitem

#: the coefficient of every basis vector of coefficient 1; a Fraction is
#: immutable, so one object serves them all
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError("not an exact rational: %r" % (x,))


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


class SpaceMismatch(Exception):
    pass


class TruncationOverflow(Exception):
    """A graded computation left the degree budget; never truncated silently."""


class ColumnOverflow(Exception):
    """A column of a total map left the budget when it was built.

    That is a defect of the map's definition, not a truncation, so it is
    deliberately not a TruncationOverflow: no check counts it as skipped.
    """

    @staticmethod
    def at(lab, domain, codomain, reason):
        """The overflow of column `lab` of a total map domain -> codomain."""
        return ColumnOverflow("column %r of the total map %r -> %r left the "
                              "budget: %s" % (lab, domain, codomain, reason))


class NotInvertible(Exception):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class _Ungraded(dict):
    """Degree table of an ungraded slot: every atom has degree 0."""

    __slots__ = ()

    def __missing__(self, label):
        return 0


_UNGRADED = _Ungraded()


class Slot:
    """One tensor factor: a named ordered atomic basis, optionally graded."""

    def __init__(self, name, labels, degrees=None):
        self.name = name
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in slot %s" % name)
        self._set = set(self.labels)
        self.degrees = dict(degrees) if degrees is not None else None

    def degree(self, label):
        if self.degrees is None:
            return 0
        return self.degrees[label]

    def labels_by_degree(self):
        table = {}
        for lab in self.labels:
            table.setdefault(self.degree(lab), []).append(lab)
        return table

    def __contains__(self, label):
        return label in self._set

    def __eq__(self, other):
        return (isinstance(other, Slot) and self.name == other.name
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.name, self.labels))

    def __repr__(self):
        return "Slot(%s, dim=%d)" % (self.name, len(self.labels))


def _merge_budget(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise SpaceMismatch("incompatible budgets %s vs %s" % (a, b))
    return a


class Space:
    """Tensor product of slots with a shared total-degree budget."""

    __slots__ = ("slots", "budget", "arity", "_degrees", "_atoms")

    def __init__(self, slots, budget=None):
        self.slots = tuple(slots)
        self.budget = budget
        self.arity = len(self.slots)
        self._degrees = tuple(_UNGRADED if s.degrees is None else s.degrees
                              for s in self.slots)
        self._atoms = tuple(s._set for s in self.slots)

    def degree(self, label):
        return sum(map(getitem, self._degrees, label))

    def min_slot_degree(self, label):
        """The smallest degree of a slot of label; None if it has no slot."""
        return min(map(getitem, self._degrees, label), default=None)

    def contains(self, label):
        if len(label) != self.arity:
            return False
        if not all(map(contains, self._atoms, label)):
            return False
        return self.budget is None or self.degree(label) <= self.budget

    def label_error(self, label):
        """The exception for a label outside this space: TruncationOverflow
        when only the budget excludes it, SpaceMismatch otherwise."""
        if self.budget is not None and len(label) == self.arity \
                and all(p in s for s, p in zip(self.slots, label)) \
                and self.degree(label) > self.budget:
            return TruncationOverflow(
                "label %r exceeds budget %s" % (label, self.budget))
        return SpaceMismatch("label %r not in %r" % (label, self))

    def basis(self):
        """Iterate all labels within budget, degree-aware (no blind product)."""
        if self.budget is None:
            yield from itertools.product(*[s.labels for s in self.slots])
            return

        tables = [s.labels_by_degree() for s in self.slots]

        def rec(i, remaining, prefix):
            if i == self.arity:
                yield tuple(prefix)
                return
            for d, labs in tables[i].items():
                if d > remaining:
                    continue
                for lab in labs:
                    prefix.append(lab)
                    yield from rec(i + 1, remaining - d, prefix)
                    prefix.pop()

        yield from rec(0, self.budget, [])

    def dim(self):
        return sum(1 for _ in self.basis())

    def tensor(self, other):
        return Space(self.slots + other.slots,
                     _merge_budget(self.budget, other.budget))

    def permuted(self, perm):
        """Space with slots reordered; perm[i] = index of the source slot."""
        return Space(tuple(self.slots[p] for p in perm), self.budget)

    def __eq__(self, other):
        return (isinstance(other, Space) and self.slots == other.slots
                and self.budget == other.budget)

    def __hash__(self):
        return hash((self.slots, self.budget))

    def __repr__(self):
        return "Space(%s, budget=%s)" % ("*".join(s.name for s in self.slots) or "k",
                                         self.budget)


#: the ground field as a 0-slot space; its single label is the empty tuple
KSPACE = Space(())


class Element:
    """Sparse vector: finite mapping label -> nonzero Fraction."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs, validate=True):
        self.space = space
        clean = {}
        for lab, c in coeffs.items():
            if validate and not space.contains(lab):
                raise space.label_error(lab)
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[lab] = c
        self.coeffs = clean

    @staticmethod
    def zero(space):
        return Element(space, {}, validate=False)

    @staticmethod
    def basis_vector(space, label, coeff=1):
        if coeff == 1:
            if not space.contains(label):
                raise space.label_error(label)
            return _element(space, {label: ONE})
        return Element(space, {label: Fraction(coeff)})

    @staticmethod
    def scalar(value):
        return Element(KSPACE, {(): Fraction(value)})

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: _label_key(kv[0]))

    def scalar_value(self):
        if self.space.arity != 0:
            raise SpaceMismatch("not a scalar element")
        return self.coeffs.get((), Fraction(0))

    def __add__(self, other):
        if self.space != other.space:
            raise SpaceMismatch("adding elements of different spaces")
        out = dict(self.coeffs)
        add_into(out, other.coeffs, 1)
        return _element(self.space, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return Element.zero(self.space)
        return _element(self.space,
                        {lab: scalar * c for lab, c in self.coeffs.items()})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, Element) and self.space == other.space
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.coeffs.items(),
                                              key=lambda kv: _label_key(kv[0])))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lab, c in self.items():
            bits.append("%s*%s" % (c, "(" + ",".join(map(str, lab)) + ")"))
        return " + ".join(bits)


_new_element = object.__new__


def _element(space, coeffs):
    """An Element that takes ownership of `coeffs` as it is: the caller
    guarantees labels in `space` and nonzero `Fraction` values."""
    e = _new_element(Element)
    e.space = space
    e.coeffs = coeffs
    return e


def add_into(out, coeffs, scale):
    """out += scale * coeffs on label -> Fraction dicts, in place.

    Entries that cancel are removed as they cancel, so the result (and its
    order) is that of summing `scale * Element` terms one at a time.
    """
    unit = scale == 1
    for lab, c in coeffs.items():
        v = c if unit else scale * c
        old = out.get(lab)
        if old is not None:
            v = old + v
        if v:
            out[lab] = v
        elif old is not None:
            del out[lab]


def scaled_integers(coeffs):
    """A label -> rational dict as a scaled-integer vector (den, nums): den
    is the lcm of the coefficients' denominators, and nums maps each label,
    in order, to the int n with n / den its coefficient."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {lab: c.numerator * (den // c.denominator)
                 for lab, c in coeffs.items()}


def combine_scaled(terms):
    """The scaled-integer vector of the sum of (p / q) * v over the terms
    (p, q, v), p and q ints and v a vector (den, nums); its den is the lcm of
    the terms' q * den.

    The sum runs in ints with the cancellation rule of `add_into`, so its
    labels and their order are those of the same sum over Fractions.  The
    vectors are only read: one may be a shared cache entry.
    """
    terms = [(p, q * den, nums) for p, q, (den, nums) in terms if p]
    den = lcm(*[d for _, d, _ in terms])
    out = {}
    get = out.get
    for p, d, nums in terms:
        m = p * (den // d)
        for lab, n in nums.items():
            old = get(lab)
            if old is None:
                out[lab] = m * n
            else:
                v = old + m * n
                if v:
                    out[lab] = v
                else:
                    del out[lab]
    return den, out


def add_term(out, key, c):
    """out[key] += c, in place, with the cancellation rule of `add_into`."""
    old = out.get(key)
    v = c if old is None else old + c
    if v:
        out[key] = v
    elif old is not None:
        del out[key]


def add_basis_term(out, space, lab, c):
    """out += c * Element.basis_vector(space, lab), in place on a coefficient
    dict, with the cancellation rule of `add_into`."""
    if not space.contains(lab):
        raise space.label_error(lab)
    add_term(out, lab, c)


def _label_key(label):
    return tuple(repr(p) for p in label)


def tensor(a: Element, b: Element) -> Element:
    """Tensor of elements; raises TruncationOverflow past the budget."""
    space = a.space.tensor(b.space)
    out = {}
    budget = space.budget
    for la, ca in a.coeffs.items():
        for lb, cb in b.coeffs.items():
            lab = la + lb
            if budget is not None and space.degree(lab) > budget:
                raise TruncationOverflow(
                    "tensor label %r exceeds budget %s" % (lab, budget))
            out[lab] = ca * cb
    return _element(space, out)


class _Columns(dict):
    """The column dict of a `LinMap.from_function` map, filled on first read.

    `[]`, `get` and `in` build the column they ask for, by one call of `fn`
    whose result is kept; a column a partial map cannot build inside the
    budget reads as absent, as if it had been left out.  Whatever sees the
    whole map (iteration, `keys` / `values` / `items`, `len`, `==`) first
    builds every remaining column and puts all of them in `domain.basis()`
    order, so it sees the dict an eager build would have made.
    """

    __slots__ = ("domain", "codomain", "fn", "partial", "absent")

    def __init__(self, domain, codomain, fn, partial):
        super().__init__()
        self.domain = domain
        self.codomain = codomain
        self.fn = fn
        self.partial = partial
        self.absent = set()

    def build(self, lab):
        """Build, keep and return the column at `lab`, which is not in the
        dict yet; None if the map has no column there."""
        fn = self.fn
        if fn is None or lab in self.absent or type(lab) is not tuple \
                or not self.domain.contains(lab):
            return None
        return self._make(fn, lab)

    def _make(self, fn, lab):
        """`build` for a label of the domain not yet tried."""
        try:
            img = fn(lab)
        except TruncationOverflow as exc:
            if not self.partial:
                raise ColumnOverflow.at(lab, self.domain, self.codomain,
                                        exc) from exc
            self.absent.add(lab)
            return None
        if img.space != self.codomain:
            raise SpaceMismatch("column for %r lands in %r, expected %r"
                                % (lab, img.space, self.codomain))
        dict.__setitem__(self, lab, img)
        return img

    def complete(self):
        """Build every remaining column, order all of them as
        `domain.basis()` does and drop `fn`."""
        fn = self.fn
        if fn is None:
            return
        absent = self.absent
        order = [lab for lab in self.domain.basis()
                 if dict.__contains__(self, lab) or lab not in absent
                 and self._make(fn, lab) is not None]
        if list(dict.keys(self)) != order:
            cols = [(lab, dict.__getitem__(self, lab)) for lab in order]
            dict.clear(self)
            dict.update(self, cols)
        self.fn = self.absent = None

    def __missing__(self, lab):
        col = self.build(lab)
        if col is None:
            raise KeyError(lab)
        return col

    def get(self, lab, default=None):
        col = dict.get(self, lab)
        if col is None:
            col = self.build(lab)
        return default if col is None else col

    def __contains__(self, lab):
        return dict.__contains__(self, lab) or self.build(lab) is not None

    def __iter__(self):
        self.complete()
        return dict.__iter__(self)

    def __len__(self):
        self.complete()
        return dict.__len__(self)

    def keys(self):
        self.complete()
        return dict.keys(self)

    def values(self):
        self.complete()
        return dict.values(self)

    def items(self):
        self.complete()
        return dict.items(self)

    def __eq__(self, other):
        self.complete()
        if isinstance(other, _Columns):
            other.complete()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class LinMap:
    """Linear map given by its columns on the basis labels of its domain.

    `columns` maps each label to its image.  Built from a dict, the map has
    exactly that dict's columns.  Built by `from_function`, a column is
    computed the first time it is read, by one call of `fn` (see
    `_Columns`), so `fn` must be a pure function of its label: a closure
    that reads state reassigned later sees the new state.  Caches that only
    memoise a pure result are fine.

    Columns are read-only once built: `apply` and `apply_at` cache a term
    entry per column on its first use (see `_terms`), which shares the
    column's coefficient dict rather than copying it, so a later write to
    `columns` or to a column's coefficients would go unseen.  `apply_at`
    also keeps the result space of each input layout in `_spaces`.
    """

    __slots__ = ("domain", "codomain", "columns", "_entries", "_spaces")

    def __init__(self, domain, codomain, columns):
        self.domain = domain
        self.codomain = codomain
        self.columns = columns
        self._entries = {}
        self._spaces = {}

    def _terms(self, lab):
        """Build and cache the term entry of the column at `lab`, on a miss
        in `_entries`; None if there is no such column.

        The entry is (items, top, fits): `items` is the column's own
        coefficient dict, in which every coefficient equal to 1 is rebound
        to the shared `ONE` (the same value), so `apply` and `apply_at`
        find it by identity and never multiply by it; `top` is the largest
        codomain degree of an image label; `fits` says the column lies in
        the codomain.
        """
        col = self.columns.get(lab)
        if col is None:
            return None
        cod = self.codomain
        items = col.coeffs
        for img in [img for img, c in items.items() if c is not ONE and c == 1]:
            items[img] = ONE
        top = max(map(cod.degree, items), default=0)
        entry = self._entries[lab] = (items, top,
                                      col.space is cod or col.space == cod)
        return entry

    @staticmethod
    def from_function(domain, codomain, fn, partial=False):
        """The map whose column at each label is fn(label), computed on its
        first read; fn must be a pure function of the label.

        With partial=True, a column whose computation leaves the budget is
        absent, and applying the map to it raises TruncationOverflow
        (truncation is loud, never silent).  Without it, such a column
        raises ColumnOverflow when it is read.  A column outside the
        codomain raises SpaceMismatch when it is built.
        """
        return LinMap(domain, codomain, _Columns(domain, codomain, fn, partial))

    @staticmethod
    def identity(space):
        return LinMap.from_function(space, space,
                                    lambda lab: Element.basis_vector(space, lab))

    def apply(self, elt: Element) -> Element:
        if elt.space is not self.domain and elt.space != self.domain:
            raise SpaceMismatch("element not in domain")
        entries = self._entries
        out = {}
        get = out.get
        for lab, c in elt.coeffs.items():
            entry = entries.get(lab) or self._terms(lab)
            if entry is None:
                raise TruncationOverflow("no column for label %r" % (lab,))
            items, _, fits = entry
            if not fits:
                raise SpaceMismatch("adding elements of different spaces")
            # `is`, not ==: a 1 that is not ONE multiplies, to an equal value
            unit = c is ONE
            for img, ci in items.items():
                v = c if ci is ONE else ci if unit else c * ci
                old = get(img)
                if old is None:
                    out[img] = v
                else:
                    v = old + v
                    if v:
                        out[img] = v
                    else:
                        del out[img]
        return _element(self.codomain, out)

    def __call__(self, elt):
        return self.apply(elt)

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.domain == other.domain
                and self.codomain == other.codomain
                and self.columns.keys() == other.columns.keys()
                and all(self.columns[l] == other.columns[l]
                        for l in self.columns))

    def __repr__(self):
        return "LinMap(%r -> %r)" % (self.domain, self.codomain)


def compose(f: LinMap, g: LinMap) -> LinMap:
    """f after g."""
    if g.codomain != f.domain:
        raise SpaceMismatch("compose: domain of f != codomain of g")
    cols = {lab: f.apply(col) for lab, col in g.columns.items()}
    return LinMap(g.domain, f.codomain, cols)


def tensor_maps(f: LinMap, g: LinMap) -> LinMap:
    dom = f.domain.tensor(g.domain)
    cod = f.codomain.tensor(g.codomain)

    def column(lab):
        la, lb = lab[:f.domain.arity], lab[f.domain.arity:]
        return tensor(f.columns[la], g.columns[lb])

    return LinMap.from_function(dom, cod, column)


def slot_permutation(space: Space, perm) -> LinMap:
    """The map sending slot perm[i] of the input to slot i of the output."""
    cod = space.permuted(perm)

    def column(lab):
        return Element.basis_vector(cod, tuple(lab[p] for p in perm))

    return LinMap.from_function(space, cod, column)


def apply_at(f: LinMap, elt: Element, at: int) -> Element:
    """Apply f to the slot range [at, at + f.domain.arity) of elt.

    An output label is the input label with its middle replaced by an image
    label of f, so its degree is that of the untouched slots plus the image
    label's.  The budget is therefore checked once per input label against
    the column's top image degree, and term by term only when that bound
    exceeds it; the first overflowing term raises, as a per-term check
    would.
    """
    end = at + f.domain.arity
    sp = elt.space
    # one result space per position, budget and input slot objects: the
    # cached space holds the slots it keeps, so their ids are not reused.
    # Its budget is merged as in `Space.tensor`, so a budgeted image keeps
    # its budget inside an unbudgeted input such as k (x) k.
    key = (at, sp.budget, *map(id, sp.slots))
    codomain = f._spaces.get(key)
    if codomain is None:
        codomain = f._spaces[key] = Space(
            sp.slots[:at] + f.codomain.slots + sp.slots[end:],
            _merge_budget(sp.budget, f.codomain.budget))
    budget = codomain.budget
    if budget is not None:
        pre_degrees, post_degrees = sp._degrees[:at], sp._degrees[end:]
    entries = f._entries
    out = {}
    get = out.get
    for lab, c in elt.coeffs.items():
        mid = lab[at:end]
        entry = entries.get(mid) or f._terms(mid)
        if entry is None:
            raise TruncationOverflow("no column for %r" % (mid,))
        items, top, _ = entry
        if not items:
            continue
        pre, post = lab[:at], lab[end:]
        check = budget is not None and (
            sum(map(getitem, pre_degrees, pre))
            + sum(map(getitem, post_degrees, post)) + top > budget)
        # `is`, not ==: a 1 that is not ONE multiplies, to an equal value
        unit = c is ONE
        for img, ci in items.items():
            new = pre + img + post
            if check and codomain.degree(new) > budget:
                raise TruncationOverflow("label %r exceeds budget" % (new,))
            v = c if ci is ONE else ci if unit else c * ci
            old = get(new)
            if old is None:
                out[new] = v
            else:
                v = old + v
                if v:
                    out[new] = v
                else:
                    del out[new]
    return _element(codomain, out)


def chain(domain: Space, codomain: Space, steps, partial=False) -> LinMap:
    """The composite of the (map, slot) steps, first step first: the map
    whose column at a label is its basis vector taken through each step by
    `apply_at`.  partial is that of `LinMap.from_function`."""
    def column(lab):
        x = Element.basis_vector(domain, lab)
        for f, at in steps:
            x = apply_at(f, x, at)
        return x

    return LinMap.from_function(domain, codomain, column, partial)


# ---------------------------------------------------------------------------
# sparse exact row reduction

def rref(rows):
    """Reduced row echelon form of sparse rows (dicts col -> Fraction).

    Returns (reduced_rows, pivots) with pivots[i] the pivot column of row i.
    Input rows are not modified.
    """
    work = []
    for r in rows:
        clean = {c: v for c, v in r.items() if v != 0}
        if clean:
            work.append(clean)
    reduced = []
    pivots = []
    while work:
        piv = min(min(r) for r in work)
        keep = []
        lead = None
        for r in work:
            if min(r) == piv:
                if lead is None:
                    lead = r
                else:
                    add_into(r, lead, -(r[piv] / lead[piv]))
                    if r:
                        keep.append(r)
            else:
                keep.append(r)
        inv = 1 / lead[piv]
        lead = {c: v * inv for c, v in lead.items()}
        for r in reduced:
            if piv in r:
                add_into(r, lead, -r[piv])
        reduced.append(lead)
        pivots.append(piv)
        work = keep
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


def nullspace(rows, ncols):
    """Basis of the solutions x of the homogeneous system rows @ x = 0, one
    per free column: a sparse dict col -> nonzero Fraction in ascending
    column order, 1 at its free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {c: {} for c in range(ncols) if c not in pivot_set}
    # a reduced row is 0 on the other pivot columns, so each of its non-pivot
    # entries lies in a free column; rows come in ascending pivot order, and a
    # free column lies right of the pivot of every row that has it
    for row, piv in zip(red, pivots):
        for c, v in row.items():
            if c != piv:
                basis[c][piv] = -v
    for c, vec in basis.items():
        vec[c] = ONE
    return list(basis.values())


def solution_space(space, unknowns, conditions):
    """Basis of the combinations of `unknowns` (Elements of `space`) that
    every condition sends to 0, in `nullspace`'s free-variable form.

    A condition is a linear function of one unknown, called on each unknown
    in turn; its value gives one equation per label of the value.  An
    unknown whose value under a condition leaves the budget (the call
    raises TruncationOverflow) adds no term to that condition.
    """
    rows = []
    for cond in conditions:
        eq = {}
        for j, u in enumerate(unknowns):
            try:
                value = cond(u)
            except TruncationOverflow:
                continue
            for out, v in value.coeffs.items():
                eq.setdefault(out, {})[j] = v
        rows.extend(eq.values())
    basis = []
    for vec in nullspace(rows, len(unknowns)):
        out = {}
        for j, c in vec.items():
            add_into(out, unknowns[j].coeffs, c)
        basis.append(_element(space, out))
    return basis


def echelon_basis(space, vectors):
    """The reduced row echelon basis of the span of `vectors`, with the
    columns in `space.basis()` order."""
    labels = list(space.basis())
    idx = {lab: j for j, lab in enumerate(labels)}
    red, _ = rref([{idx[lab]: v for lab, v in b.coeffs.items()}
                   for b in vectors])
    return [_element(space, {labels[j]: r[j] for j in sorted(r)})
            for r in red]


def solve(rows, ncols, rhs):
    """One solution of rows @ x = rhs, or None if inconsistent.

    rows are sparse dicts; rhs is a dense list aligned with rows.
    """
    aug = []
    for r, b in zip(rows, rhs):
        nr = dict(r)
        if b != 0:
            nr[ncols] = Fraction(b)
        aug.append(nr)
    red, pivots = rref(aug)
    sol = [Fraction(0)] * ncols
    for row, piv in zip(red, pivots):
        if piv == ncols:
            return None
        sol[piv] = row.get(ncols, Fraction(0))
    return sol


def span_coefficients(vectors, target):
    """One c with sum c[j] vectors[j] = target, or None if target is not in
    the span; vectors and target are sparse {key: coefficient} dicts."""
    rows = {}
    for j, vec in enumerate(vectors):
        for key, v in vec.items():
            rows.setdefault(key, {})[j] = v
    keys = list(rows) + [key for key in target if key not in rows]
    return solve([rows.get(key, {}) for key in keys], len(vectors),
                 [target.get(key, 0) for key in keys])


def kernel_image_quotient(f: LinMap):
    """Exact (kernel basis, image basis, cokernel representative labels)."""
    dom_labels = list(f.domain.basis())
    cod_labels = list(f.codomain.basis())
    cod_index = {lab: i for i, lab in enumerate(cod_labels)}
    # a missing column raises here, so the kernel solve reads no gap
    cols = [f.columns[dl] for dl in dom_labels]
    kernel = _kernel(f, dom_labels)

    # image: row-reduce the transposed columns
    red, pivots = rref([{cod_index[cl]: v for cl, v in col.coeffs.items()}
                        for col in cols])
    image = [Element(f.codomain,
                     {cod_labels[c]: v for c, v in row.items()},
                     validate=False)
             for row in red]
    pivot_set = set(pivots)
    coker = [cod_labels[i] for i in range(len(cod_labels)) if i not in pivot_set]

    if len(kernel) + len(image) != len(dom_labels):
        raise ArithmeticError("rank-nullity fails: kernel %d + image %d != %d"
                              % (len(kernel), len(image), len(dom_labels)))
    return kernel, image, coker


def invert_linmap(f: LinMap) -> LinMap:
    """Inverse of a bijective map, solved exactly per degree block."""
    dom_labels = list(f.domain.basis())
    cod_labels = list(f.codomain.basis())
    if len(dom_labels) != len(cod_labels):
        raise NotInvertible("dimension mismatch %d vs %d"
                            % (len(dom_labels), len(cod_labels)))

    blocks = {}
    for lab in dom_labels:
        blocks.setdefault(f.domain.degree(lab), [[], []])[0].append(lab)
    for lab in cod_labels:
        blocks.setdefault(f.codomain.degree(lab), [[], []])[1].append(lab)

    inv_cols = {}
    for deg, (dls, cls) in sorted(blocks.items()):
        if len(dls) != len(cls):
            raise NotInvertible("degree-%s block is not square" % deg)
        n = len(dls)
        cidx = {lab: i for i, lab in enumerate(cls)}
        # [block | I], row i at codomain label i, reduces to [I | inverse]
        rows = [{n + i: ONE} for i in range(n)]
        for j, dl in enumerate(dls):
            for cl, v in f.columns[dl].coeffs.items():
                if f.codomain.degree(cl) != deg:
                    raise NotInvertible("map does not preserve degree blocks")
                rows[cidx[cl]][j] = v
        red, pivots = rref(rows)
        if pivots != list(range(n)):
            wit = _kernel(f, dls)
            raise NotInvertible("singular block at degree %s" % deg,
                                wit[0] if wit else None)
        for i, cl in enumerate(cls):
            inv_cols[cl] = Element(f.domain,
                                   {dls[j]: red[j][n + i] for j in range(n)
                                    if n + i in red[j]},
                                   validate=False)
    return LinMap(f.codomain, f.domain, inv_cols)


def _kernel(f, labels):
    """Basis of the kernel of f on the span of `labels`, whose columns
    have all been read."""
    return solution_space(f.domain, [Element.basis_vector(f.domain, lab)
                                     for lab in labels], [f.apply])
