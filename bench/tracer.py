"""Outside-in tracing of one hopfcross CLI job, and span aggregation.

Run as a script, this module wraps the public functions and methods listed in
SPANS, runs ``hopfcross.cli.main`` on the remaining arguments, and writes the
recorded spans as JSON when the job ends::

    python bench/tracer.py SPANS_OUT -- verify spec.json --budget 4

Each wrapper rebinds the function's name in every ``hopfcross`` module that
imported it (methods are rebound on their class), so no code under ``src/``
changes.  ``Element`` and ``Fraction`` dunder methods are deliberately not
wrapped: they run millions of times per job and would dominate the overhead.

Imported as a module, it only aggregates spans (``summarize``) and touches no
part of hopfcross.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULES = ("exact", "hopf", "actions", "convolution", "sweedler", "ce",
           "crossed", "workbench", "cli")

# (module, qualified name, span name or None for "<module>.<qualname>")
SPANS = [
    ("exact", "apply_at", None),
    ("exact", "LinMap.apply", None),
    ("exact", "LinMap.from_function", None),
    ("exact", "compose", None),
    ("exact", "tensor_maps", None),
    ("exact", "slot_permutation", None),
    ("exact", "rref", None),
    ("exact", "nullspace", None),
    ("exact", "solve", None),
    ("exact", "kernel_image_quotient", None),
    ("exact", "invert_linmap", None),
    ("hopf", "check_equal_on", None),
    ("hopf", "verify_braided_bialgebra", None),
    ("hopf", "verify_antipode", None),
    ("hopf", "build_group_algebra", None),
    ("hopf", "build_truncated_poly_hopf", None),
    ("hopf", "build_truncated_enveloping", None),
    ("hopf", "flip_braid", None),
    ("actions", "braid_cross", None),
    ("actions", "braid_shuffle", None),
    ("actions", "tensor_power_coalgebra", None),
    ("actions", "AlgebraData.element_inverse", "actions.element_inverse"),
    ("actions", "verify_transposition", None),
    ("actions", "verify_module_algebra", None),
    ("actions", "example_entwining", None),
    ("actions", "power_transposition", None),
    ("actions", "build_graded_transposition", None),
    ("actions", "action_module_algebra", None),
    ("actions", "check_poly_action_validity", None),
    ("actions", "build_poly_action", None),
    ("convolution", "ConvMap.from_function", None),
    ("convolution", "conv_equal", None),
    ("convolution", "convolve", None),
    ("convolution", "conv_inverse", None),
    ("convolution", "is_psi_central", None),
    ("convolution", "is_s_compatible", None),
    ("sweedler", "SweedlerContext.domain", "sweedler.domain"),
    ("sweedler", "coface", None),
    ("sweedler", "differential", None),
    ("sweedler", "additive_coboundary", None),
    ("sweedler", "h0", None),
    ("sweedler", "gimel", None),
    ("sweedler", "barr_differential", None),
    ("sweedler", "conv_exp", None),
    ("sweedler", "conv_log", None),
    ("ce", "CEAlgebra.nf", "ce.nf"),
    ("ce", "CEAlgebra.expand_t", "ce.expand_t"),
    ("ce", "CEAlgebra.differential", "ce.differential"),
    ("ce", "CEAlgebra.gamma", "ce.gamma"),
    ("ce", "CEAlgebra.p_decompose", "ce.p_decompose"),
    ("ce", "CEAlgebra.monomials", "ce.monomials"),
    ("ce", "CETransposition.__init__", "ce.CETransposition"),
    ("ce", "xi_space", None),
    ("ce", "xi_differential_matrix", None),
    ("ce", "evaluate_bimodule_cochain", None),
    ("ce", "BarComparison.Phi", "ce.Phi"),
    ("crossed", "chi_map", None),
    ("crossed", "script_F", None),
    ("crossed", "trivial_cocycle", None),
    ("crossed", "check_cocycle_conditions", None),
    ("crossed", "CrossedProductAlgebra.__init__", "crossed.build"),
    ("crossed", "verify_crossed_product", None),
    ("workbench", "WorkbenchSpec.load", "workbench.load"),
    ("workbench", "build_group_instance", None),
    ("workbench", "build_poly2_instance", None),
    ("workbench", "build_lie_instance", None),
    ("workbench", "classify_crossed_products", None),
    ("workbench", "poly_alpha_maps", None),
    ("workbench", "xi2_cocycle", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_cohomology", None),
    ("cli", "cmd_crossed_product", None),
    ("cli", "cmd_classify", None),
    ("cli", "cmd_compare", None),
    ("cli", "_random_additive", None),
    ("cli", "_random_group_cochain", None),
    ("cli", "_bar_vs_resolution", None),
]


class Recorder:
    """Spans as (name id, start, end, parent index), kept in memory in start
    order, plus the counters that are read at span boundaries."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.columns_built = 0
        self.nf_words = set()

    def wrap(self, fn, name, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name_id, t0, t1, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def observers(self):
        def columns(args, result):
            self.columns_built += len(result.columns)

        def nf_word(args, result):
            self.nf_words.add(tuple(args[1]))

        return {"exact.LinMap.from_function": columns, "ce.nf": nf_word}

    def install(self):
        """Rebind every SPANS entry in hopfcross; returns the cli module."""
        mods = {m: importlib.import_module("hopfcross." + m) for m in MODULES}
        observers = self.observers()
        for module, qualname, alias in SPANS:
            name = alias or "%s.%s" % (module, qualname)
            owner = mods[module]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if path else getattr(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            traced = self.wrap(fn, name, observers.get(name))
            if path:
                setattr(owner, attr, staticmethod(traced) if is_static else traced)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        return mods["cli"]

    def dump(self, path):
        doc = {"names": self.names, "spans": self.spans,
               "counters": {"exact.columns_built": self.columns_built,
                            "ce.nf.distinct": len(self.nf_words)}}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# aggregation, used by the runner

def layer_of(name):
    return name.split(".", 1)[0]


def summarize(doc):
    """Per-span-name calls, self time and inclusive time of one job's spans.

    Self time is a span's duration minus the durations of its direct children
    (children never overlap: one thread).  Inclusive time counts only the
    outermost span of a name, so recursion is not counted twice.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for name_id, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name_id, t0, t1, parent) in enumerate(spans):
        name = names[name_id]
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and names[spans[p][0]] != name:
            p = spans[p][3]
        if p < 0:
            rec["total_s"] += t1 - t0
    return out


def count_children(doc, child, parent):
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    names, spans = doc["names"], doc["spans"]
    return sum(1 for name_id, _, _, p in spans
               if names[name_id] == child and p >= 0
               and names[spans[p][0]] == parent)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_OUT -- <hopfcross args>\n")
        return 2
    rec = Recorder()
    cli = rec.install()
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
