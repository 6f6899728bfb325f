"""Every function under src/ is reached by a command, or kept for a reason.

The scan is static: it parses `src/hopfcross/*.py` with `ast` and imports
nothing from the package.  Its roots are `cli.main` and every module-level
statement.  The functions the benchmark tracer wraps (the SPANS list of
`bench/tracer.py`) are no roots: `test_bench_trace_names.py` checks that
they resolve, and one that only the tracer names needs a KEPT entry.  A
function reaches each function or class whose name, and each function or
method whose attribute name, occurs in its body, decorators or defaults; a
method is reached only through its attribute name.  A reached class
reaches its bases, its decorators, its non-method body and its dunders.
Annotations reach nothing.

KEPT lists the entry points that no command reaches, each with its reason;
they are roots too, so their helpers need no entry.  A reason takes one of
three forms:

- "ROADMAP item N: ..." (or "ROADMAP leftover: ..."), a feature that a
  planned command will reach, or a deletion that the item plans;
- "oracle for X", a reference implementation that tests check against X,
  which the roots or a ROADMAP or example entry must reach;
- "example spec", a constructor of test fixtures.
"""

import ast
import glob
import os
import re

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hopfcross")

KEPT = {
    "h2_correspondence": "ROADMAP item 1: the `equivalent` command",
    "check_equivalence": "ROADMAP item 1: the `equivalent` command",
    "is_inner": "ROADMAP item 6: `cohomology --degree 1` on group specs",
    "is_crossed_homomorphism":
        "ROADMAP item 6: `cohomology --degree 1` on group specs",
    "verify_bimodule_transposition":
        "ROADMAP leftover: the s_D conditions (1)-(5) in a command",
    "CETransposition.respects_relations":
        "ROADMAP leftover: the s_D conditions (1)-(5) in a command",
    "build_and_verify_presentation":
        "ROADMAP item 10: the presentation check in `crossed-product`",
    "verify_module_coalgebra": "oracle for tensor_power_coalgebra",
    "verify_entwining": "oracle for example_entwining",
    "is_psi_compatible": "oracle for carrier_solve",
    "is_h_linear": "oracle for coface",
    "transfer_TAC": "oracle for convolve",
    "transfer_TAC_inverse": "oracle for convolve",
    "CEAlgebra.augmentation": "oracle for CEAlgebra.sigma",
    "CEAlgebra.section": "oracle for CEAlgebra.sigma",
    "BarComparison.phi_recursive": "oracle for BarComparison.phi_closed",
    "BarComparison.Phi_closed": "oracle for BarComparison.Phi",
    "is_normalized": "oracle for differential",
    "digamma_membership": "oracle for gimel",
    "gimel_inverse": "oracle for gimel",
    "CEAlgebra.gamma": "oracle for CEAlgebra.sigma",
    "CEAlgebra.p_decompose": "oracle for CEAlgebra.sigma",
    "compose": "oracle for convolve",
    "tensor_maps": "ROADMAP item 2: only bench/tracer.py names it; delete "
                   "it with its SPANS entry",
    "braid_shuffle": "ROADMAP item 2: only bench/tracer.py names it; "
                     "delete it with its SPANS entry",
    "kernel_image_quotient": "ROADMAP item 2: only bench/tracer.py names "
                             "it; delete it with its SPANS entry",
    "GroupSpec.cyclic": "example spec",
    "GroupSpec.symmetric": "example spec",
    "LieSpec.heisenberg": "example spec",
}

REASON = re.compile(r"ROADMAP (item \d+|leftover): \S|oracle for (\S+)$"
                    r"|example spec$")

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Uses(ast.NodeVisitor):
    """The names and attribute names a node uses, annotations left out."""

    def __init__(self):
        self.names, self.attrs = set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node):
        for sub in node.decorator_list + [node.args] + node.body:
            self.visit(sub)

    visit_AsyncFunctionDef = visit_FunctionDef


def _uses(nodes):
    v = _Uses()
    for node in nodes:
        v.visit(node)
    return v


def scan(sources):
    """(definitions, root uses) of {module: source}.

    definitions maps each qualified name (`f`, `C`, `C.m`) to the edges of
    its definitions, pairs (uses, implied qualnames); like a use, a name
    does not tell two modules apart.  Root uses are those of module-level
    statements.
    """
    defs, roots = {}, _Uses()

    def define(qualname, edges):
        defs.setdefault(qualname, []).append(edges)

    for source in sources.values():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, _DEF):
                define(stmt.name, (_uses([stmt]), ()))
            elif isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, _DEF)]
                rest = [m for m in stmt.body if not isinstance(m, _DEF)]
                define(stmt.name, (
                    _uses(stmt.bases + stmt.keywords + stmt.decorator_list
                          + rest),
                    ["%s.%s" % (stmt.name, m.name) for m in methods
                     if m.name.startswith("__") and m.name.endswith("__")]))
                for m in methods:
                    define("%s.%s" % (stmt.name, m.name), (_uses([m]), ()))
            else:
                roots.visit(stmt)
    return defs, roots


def reach(defs, root_uses, roots):
    """The qualified names reached from the root uses and the roots."""
    by_name, by_attr = {}, {}
    for q in defs:
        by_attr.setdefault(q.rpartition(".")[2], []).append(q)
        if "." not in q:
            by_name.setdefault(q, []).append(q)

    def targets(uses, implied):
        out = list(implied)
        for n in uses.names:
            out += by_name.get(n, ())
        for a in uses.attrs:
            out += by_attr.get(a, ())
        return out

    seen = set()
    todo = targets(root_uses, roots)
    while todo:
        q = todo.pop()
        if q in seen or q not in defs:
            continue
        seen.add(q)
        for edges in defs[q]:
            todo += targets(*edges)
    return seen


def problems(sources, roots, kept):
    """Every breach of the invariant, as one line each."""
    defs, root_uses = scan(sources)
    out = []
    base = reach(defs, root_uses, roots)
    oracles = {}
    for q, reason in sorted(kept.items()):
        m = REASON.match(reason)
        if m is None:
            out.append("%s: reason %r takes none of the three forms"
                       % (q, reason))
        elif m.group(2):
            oracles[q] = m.group(2)
        if q not in defs:
            out.append("%s: stale entry, the function is gone" % q)
        elif q in base:
            out.append("%s: stale entry, reached without it" % q)
    features = reach(defs, root_uses,
                     list(roots) + [q for q in kept if q not in oracles])
    for q, target in sorted(oracles.items()):
        if target not in features:
            out.append("%s: oracle target %s is not reached" % (q, target))
    reached = reach(defs, root_uses, list(roots) + list(kept))
    out += ["%s: reached by no command and not in KEPT" % q
            for q in sorted(defs) if q not in reached]
    return out


def _src_sources():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    return sources


def _roots():
    return ["main"]


def test_every_src_function_is_reached_or_kept():
    assert problems(_src_sources(), _roots(), KEPT) == []


# the guard itself, on a small synthetic package

SYNTHETIC = {
    "cli": "import lib\n\n\ndef main():\n    return lib.helper()\n",
    "lib": '''
class Thing:
    size: spare_target = 0

    def __init__(self):
        self.n = 1

    def run(self):
        return 1

    def spare(self):
        return 2


def helper(x: target = None) -> orphan:
    return Thing().run()


def orphan():
    return spare_target()


def spare_target():
    return 0


def target():
    return 0
''',
}


def test_scan_reports_a_planted_unreached_function():
    # annotations reach nothing: those naming spare_target, target and
    # orphan leave them unreached
    assert problems(SYNTHETIC, ["main"], {}) == [
        "Thing.spare: reached by no command and not in KEPT",
        "orphan: reached by no command and not in KEPT",
        "spare_target: reached by no command and not in KEPT",
        "target: reached by no command and not in KEPT",
    ]
    # kept entries are roots: orphan's entry covers spare_target
    assert problems(SYNTHETIC, ["main"], {
        "orphan": "ROADMAP item 1: a command",
        "Thing.spare": "example spec",
        "target": "oracle for helper"}) == []


def test_scan_reports_a_stale_entry():
    kept = {"orphan": "ROADMAP item 1: a command",
            "Thing.spare": "example spec", "target": "oracle for helper"}
    assert problems(SYNTHETIC, ["main"], dict(kept, helper="example spec")) \
        == ["helper: stale entry, reached without it"]
    assert problems(SYNTHETIC, ["main"], dict(kept, gone="example spec")) \
        == ["gone: stale entry, the function is gone"]
    assert problems(SYNTHETIC, ["main"], dict(kept, target="kept")) \
        == ["target: reason 'kept' takes none of the three forms"]


def test_scan_rejects_an_oracle_whose_target_is_unreached():
    kept = {"orphan": "oracle for spare_target", "target": "oracle for orphan",
            "Thing.spare": "oracle for Thing.gone"}
    assert problems(SYNTHETIC, ["main"], kept) == [
        "Thing.spare: oracle target Thing.gone is not reached",
        "orphan: oracle target spare_target is not reached",
        "target: oracle target orphan is not reached",
    ]
