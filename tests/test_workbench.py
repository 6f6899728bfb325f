import io
import json
import os
import re

import pytest
from fractions import Fraction

from hopfcross import cli, workbench
from hopfcross.ce import BarComparison, CEAlgebra
from hopfcross.cli import main
from hopfcross.exact import Element
from hopfcross.hopf import LieSpec
from hopfcross.sweedler import SweedlerContext
from hopfcross.actions import InvalidAction, PolyActionSpec
from hopfcross.workbench import (InputError, NotJordanForm, WorkbenchSpec,
                                 build_and_verify_presentation,
                                 build_poly2_instance,
                                 classify_crossed_products, cocycle_from_doc,
                                 exact_h2_and_commutator,
                                 transport_cochain, xi2_cocycle)

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDENS = os.path.join(HERE, "goldens")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_poly_action_spec_decides_case_and_order():
    # the matrices the classifier sees, and the order-4 rotation, whose case
    # is None since it is neither diagonal nor a single Jordan block
    for Q, case, order in [([[1, 0], [0, 1]], "2", 1),
                           ([[1, 0], [0, -1]], "3b", 2),
                           ([[2, 0], [0, "1/2"]], "1b", None),
                           ([[2, 1], [0, 2]], "1a", None),
                           ([[-1, 0], [0, -1]], "3a", 2),
                           ([[0, -1], [1, 0]], None, 4),
                           ([[1, 2], [3, 4]], None, None)]:
        spec = PolyActionSpec(Q, [], [])
        assert (spec.case, spec.order) == (case, order), Q


def test_non_jordan_Q_is_refused_by_the_case_ladder():
    for Q in ([[1, 2], [3, 4]], [[0, -1], [1, 0]]):
        with pytest.raises(NotJordanForm):
            exact_h2_and_commutator(PolyActionSpec(Q, [], []))
    with pytest.raises(InvalidAction) as err:
        PolyActionSpec([[1, 1], [1, 1]], [], [])       # singular
    assert str(err.value) == "Q violated: Q is not invertible"


def test_spec_parsing_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        WorkbenchSpec.load(str(bad))
    with pytest.raises(InputError):
        WorkbenchSpec.parse({"payload": {}})
    with pytest.raises(InputError):
        WorkbenchSpec.parse({"kind": "poly3"})
    with pytest.raises(InputError):
        WorkbenchSpec.parse({"kind": "poly2", "budget": 0})


@pytest.mark.parametrize("name", [
    "case2_beta1_Y", "case2_beta1_Y2", "case1a_q2", "case1a_qm1",
    "case1b_q1q2_1", "case1b_q1q2_ne1", "case3a", "case3b"])
def test_classification_matches_golden(name):
    spec = WorkbenchSpec.load(fixture(name + ".json"))
    rep = classify_crossed_products(spec)
    with open(os.path.join(GOLDENS, name + ".txt")) as fh:
        assert rep.as_text() + "\n" == fh.read()
    with open(os.path.join(GOLDENS, name + ".json")) as fh:
        assert json.loads(rep.as_json()) == json.load(fh)


@pytest.mark.parametrize("command", ["classify", "crossed-product"])
def test_each_command_runs_the_h2_case_ladder_once(monkeypatch, command):
    calls = []
    real = workbench.exact_h2_and_commutator

    def counting(aspec):
        calls.append(aspec.case)
        return real(aspec)

    monkeypatch.setattr(workbench, "exact_h2_and_commutator", counting)
    monkeypatch.setattr(cli, "exact_h2_and_commutator", counting)
    argv = [command, fixture("case1a_q2.json")]
    if command == "crossed-product":
        argv += ["--cocycle", fixture("cocycle_trivial.json")]
    main(argv, out=io.StringIO())
    assert calls == ["1a"]


def test_json_and_text_numeric_content_agree():
    spec = WorkbenchSpec.load(fixture("case2_beta1_Y.json"))
    rep = classify_crossed_products(spec)
    doc = json.loads(rep.as_json())
    text = rep.as_text()
    assert "H2_dim: %s" % doc["H2_dim"] in text
    assert "d1_rank: %s" % doc["d1_rank"] in text
    assert "d2_rank: %s" % doc["d2_rank"] in text
    for n in (0, 1, 2):
        assert "Xi_D%d_dim: %d" % (n, doc["xi_dims"][n]) in text
    for rel in doc["relations"]:
        assert rel in text


def test_case2_both_betas_zero_presentation():
    # the degenerate classical subcase: the commutator parameter is an
    # arbitrary polynomial
    spec = WorkbenchSpec.parse({
        "kind": "poly2", "budget": 4,
        "payload": {"Q": [["1", "0"], ["0", "1"]], "beta1": [], "beta2": []}})
    rep = classify_crossed_products(spec)
    assert rep.data["relations"][2] == \
        "W1*W2 - W2*W1 = R(Y), an arbitrary polynomial"
    assert rep.data["H2_exact"].startswith("k[Y]")


def test_case_tags_consistent_with_Q():
    for name, tag in [("case2_beta1_Y", "2"), ("case1a_q2", "1a"),
                      ("case1b_q1q2_1", "1b"), ("case3a", "3a"),
                      ("case3b", "3b")]:
        spec = WorkbenchSpec.load(fixture(name + ".json"))
        rep = classify_crossed_products(spec)
        assert rep.data["case"] == tag
        assert rep.data["case"] == PolyActionSpec(
            spec.payload["Q"], [], []).case


@pytest.mark.parametrize("name,b", [
    ("case2_beta1_Y", ["1"]),          # Weyl-like: commutator = 1
    ("case2_beta1_Y", ["0"]),          # trivial parameter
    ("case1a_qm1", ["1"]),             # q = -1, lambda = 1
    ("case1b_q1q2_1", ["2"]),          # lambda = 2
    ("case3a", ["0", "0", "1"]),       # P(Y^2) = Y^2
])
def test_presentation_roundtrip(name, b):
    # every emitted presentation, rebuilt through the cocycle construction,
    # satisfies its own relations inside the constructed algebra
    spec = WorkbenchSpec.load(fixture(name + ".json"))
    cp, rep = build_and_verify_presentation(spec, b, assoc_budget=3)
    assert rep.ok, rep.summary()


def test_presentation_rejects_class_outside_xi2():
    spec = WorkbenchSpec.load(fixture("case1a_q2.json"))   # Xi(D_2) = 0
    with pytest.raises(InputError):
        build_and_verify_presentation(spec, ["1"], assoc_budget=3)


# ---------------------------------------------------------------------------
# the command-line surface


def test_cli_verify_group_ok():
    code, out = run_cli("verify", fixture("z2_sign.json"))
    assert code == 0
    assert "OVERALL: PASS" in out


def test_cli_verify_lie():
    code, out = run_cli("verify", fixture("heisenberg.json"), "--budget", "3")
    assert code == 0
    assert "ce.d_squared_zero" in out


def test_cli_classify_text_and_json():
    code, out = run_cli("classify", fixture("case2_beta1_Y.json"))
    assert code == 0 and "H2_dim: 1" in out
    code, outj = run_cli("classify", fixture("case2_beta1_Y.json"),
                         "--format", "json")
    assert code == 0
    assert json.loads(outj)["H2_dim"] == 1


def test_cli_crossed_product_trivial():
    code, out = run_cli("crossed-product", fixture("case2_beta1_Y.json"),
                        "--cocycle", fixture("cocycle_trivial.json"),
                        "--budget", "3")
    assert code == 0
    assert "presentation:" in out


def test_cli_crossed_product_corrupt_cocycle(tmp_path):
    # a corrupted explicit table (non-normal value on a unit slot) fails the
    # flags: exit 1
    bad = tmp_path / "bad_cocycle.json"
    bad.write_text(json.dumps({
        "kind": "table",
        "values": {"1,0|0,0": {"0": "2"}}}))
    code, out = run_cli("crossed-product", fixture("case2_beta1_Y.json"),
                        "--cocycle", str(bad), "--budget", "3")
    assert code == 1
    assert "flags" in out


def test_cli_cohomology_poly():
    code, out = run_cli("cohomology", fixture("case2_beta1_Y.json"),
                        "--degree", "2")
    assert code == 0
    assert "H^2 dimension at window 4: 1" in out


def test_cli_cohomology_group():
    code, out = run_cli("cohomology", fixture("z2_sign.json"), "--degree", "0")
    assert code == 0
    assert "H0 carrier dimension: 1" in out


def test_cli_compare_poly():
    code, out = run_cli("compare", fixture("case2_beta1_Y.json"),
                        "--samples", "4", "--seed", "1")
    assert code == 0
    assert "exp/log roundtrip" in out


def test_cli_compare_group():
    code, out = run_cli("compare", fixture("z3_inversion_graded.json"))
    assert code == 0
    assert "homogenized differential agrees" in out


def test_cli_input_error_exit_code():
    code, out = run_cli("classify", "no_such_file.json")
    assert code == 2
    code, out = run_cli("verify", fixture("cocycle_trivial.json"))
    assert code == 2           # not a spec document


def _poly2_spec_file(tmp_path, Q=(("1", "0"), ("0", "1")), beta1=("0", "1"),
                     budget=4):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "kind": "poly2", "budget": budget,
        "payload": {"Q": [list(row) for row in Q], "beta1": list(beta1),
                    "beta2": ["0"]}}))
    return str(path)


def test_cli_rejects_non_square_Q(tmp_path):
    # a 2x3 Q used to pass verify silently
    spec = _poly2_spec_file(tmp_path, Q=((1, 0, 0), (0, 1, 0)))
    code, out = run_cli("verify", spec)
    assert code == 2
    assert out.startswith("input error:") and "2x2" in out


def test_cli_rejects_float_coefficient(tmp_path):
    spec = _poly2_spec_file(tmp_path, beta1=("0", 0.5))
    code, out = run_cli("verify", spec)
    assert code == 2
    assert out.startswith("input error:") and "0.5" in out


def test_cli_rejects_zero_denominator(tmp_path):
    spec = _poly2_spec_file(tmp_path, beta1=("0", "1/0"))
    code, out = run_cli("verify", spec)
    assert code == 2
    assert out.startswith("input error:") and "1/0" in out


def test_cli_rejects_string_budget(tmp_path):
    spec = _poly2_spec_file(tmp_path, budget="6")
    code, out = run_cli("verify", spec)
    assert code == 2
    assert out.startswith("input error:") and "budget" in out


def test_cli_classify_rejects_an_invalid_action(tmp_path):
    # Q = diag(2, 1/2) with beta1 = Y^2 breaks eq11: classify refuses the
    # input before it reports any validity verdict
    spec = _poly2_spec_file(tmp_path, Q=(("2", "0"), ("0", "1/2")),
                            beta1=("0", "0", "1"))
    code, out = run_cli("classify", spec)
    assert code == 2
    assert out == ("input error: eq11 violated: Q^1 != ide but beta "
                   "coefficient 2 nonzero\n")


def test_cli_classify_needs_a_budgeted_poly2_spec(tmp_path):
    code, out = run_cli("classify", fixture("heisenberg.json"))
    assert code == 2 and out.startswith("input error:")
    spec = tmp_path / "no_budget.json"
    spec.write_text(json.dumps({"kind": "poly2",
                                "payload": {"Q": [[1, 0], [0, 1]]}}))
    code, out = run_cli("classify", str(spec))
    assert code == 2 and "budget" in out


@pytest.mark.parametrize("name", ["case1a_qm1", "case1b_q1q2_1", "case3a"])
def test_crossed_product_prints_the_classify_presentation(name):
    def relations(out):
        lines = out.splitlines()
        start = lines.index("presentation:") + 1
        return [line.strip() for line in lines[start:start + 3]]

    code, out = run_cli("crossed-product", fixture(name + ".json"),
                        "--cocycle", fixture("cocycle_trivial.json"),
                        "--budget", "3")
    assert code == 0
    code, golden = run_cli("classify", fixture(name + ".json"))
    assert code == 0
    assert relations(out) == relations(golden)


# numeric command-line arguments


def test_cli_rejects_negative_degree():
    code, out = run_cli("cohomology", fixture("case2_beta1_Y.json"),
                        "--degree", "-1")
    assert code == 2 and out.startswith("input error:") and "degree" in out


def test_only_compare_takes_a_seed():
    spec = fixture("case2_beta1_Y.json")
    with pytest.raises(SystemExit) as err:
        main(["verify", spec, "--seed", "1"], out=io.StringIO())
    assert err.value.code == 2
    code, out = run_cli("compare", spec, "--budget", "2", "--seed", "1",
                        "--samples", "1")
    assert code == 0


def test_cli_rejects_nonpositive_samples():
    code, out = run_cli("compare", fixture("case2_beta1_Y.json"),
                        "--samples", "-3")
    assert code == 2 and out.startswith("input error:") and "samples" in out


def test_cli_rejects_zero_budget():
    code, out = run_cli("verify", fixture("case2_beta1_Y.json"),
                        "--budget", "0")
    assert code == 2 and out.startswith("input error:") and "budget" in out


def test_cli_rejects_negative_budget():
    code, out = run_cli("verify", fixture("case2_beta1_Y.json"),
                        "--budget", "-2")
    assert code == 2 and out.startswith("input error:") and "budget" in out


# group, Lie and cocycle documents


def _spec_file(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _z2_sign_doc():
    with open(fixture("z2_sign.json")) as fh:
        return json.load(fh)


def test_cli_rejects_float_in_group_algebra_table(tmp_path):
    doc = _z2_sign_doc()
    doc["payload"]["algebra"]["table"]["1|t"] = {"t": 0.5}
    code, out = run_cli("verify", _spec_file(tmp_path, doc))
    assert code == 2 and out.startswith("input error:") and "0.5" in out


def test_cli_rejects_float_in_lie_brackets(tmp_path):
    doc = {"kind": "lie", "budget": 2,
           "payload": {"dim": 3, "brackets": {"0,1": {"2": 0.5}}}}
    code, out = run_cli("verify", _spec_file(tmp_path, doc))
    assert code == 2 and out.startswith("input error:") and "0.5" in out


def test_cli_rejects_group_table_without_identity_law(tmp_path):
    doc = _z2_sign_doc()
    doc["payload"]["table"] = [["g1", "e"], ["e", "g1"]]
    code, out = run_cli("verify", _spec_file(tmp_path, doc))
    assert code == 2 and out.startswith("input error:") and "identity" in out


def test_cli_rejects_float_in_xi2_cocycle(tmp_path):
    coc = _spec_file(tmp_path, {"kind": "xi2", "b": [0.5]}, "cocycle.json")
    code, out = run_cli("crossed-product", fixture("case2_beta1_Y.json"),
                        "--cocycle", coc, "--budget", "3")
    assert code == 2 and out.startswith("input error:") and "0.5" in out


@pytest.mark.parametrize("b", [{"-1": "0", "0": "1"}, ["1", "0", "0", "0", "0"]])
def test_cli_rejects_zero_coefficient_outside_k_y(tmp_path, b):
    # a label outside k[Y] within the budget is bad input even at coefficient 0
    coc = _spec_file(tmp_path, {"kind": "xi2", "b": b}, "cocycle.json")
    code, out = run_cli("crossed-product", fixture("case2_beta1_Y.json"),
                        "--cocycle", coc, "--budget", "3")
    assert code == 2 and out.startswith("input error:")


@pytest.mark.parametrize("budget", ["2", "3", "4"])
@pytest.mark.parametrize("name", ["case3a.json", "case3b.json"])
def test_cli_compare_counts_budget_skips(name, budget):
    # drawn column by column outside the carrier, the exp(delta f) = D(exp f)
    # trial left the budget here and was counted as skipped; drawn from
    # C^1_s it stays inside, so the count is 0 and the line shows none
    code, out = run_cli("compare", fixture(name), "--budget", budget,
                        "--samples", "2")
    assert code == 0
    assert re.search(r"^exp\(delta f\) = D\(exp f\): 1 samples exact$",
                     out, re.M)


def test_cli_rejects_table_cocycle_key_without_bar(tmp_path):
    coc = _spec_file(tmp_path, {"kind": "table",
                                "values": {"1,0;0,1": {"0": "1"}}},
                     "cocycle.json")
    code, out = run_cli("crossed-product", fixture("case2_beta1_Y.json"),
                        "--cocycle", coc, "--budget", "3")
    assert code == 2 and out.startswith("input error:") and "1,0;0,1" in out


def _graded_doc():
    with open(fixture("z3_inversion_graded.json")) as fh:
        return json.load(fh)


def _edit(doc, edit):
    edit(doc["payload"])
    return doc


@pytest.mark.parametrize("doc, says", [
    (_edit(_z2_sign_doc(), lambda p: p["algebra"].pop("unit")), "'unit'"),
    (_edit(_z2_sign_doc(), lambda p: p["algebra"].update(unit="u")),
     "unit 'u'"),
    (_edit(_z2_sign_doc(), lambda p: p.update(table=[["e", "g1"], ["g1"]])),
     "group table"),
    (_edit(_z2_sign_doc(), lambda p: p["algebra"].pop("basis")), "'basis'"),
    (_edit(_z2_sign_doc(), lambda p: p["algebra"].update(basis="1,t")),
     "algebra basis"),
    (_edit(_z2_sign_doc(), lambda p: p["action"].pop("g1|t")), "'g1|t'"),
    (_edit(_graded_doc(), lambda p: p.pop("automorphisms")),
     "'automorphisms'"),
    (_edit(_graded_doc(), lambda p: p["automorphisms"].update(inv=["e"])),
     "automorphism 'inv'"),
    (_edit(_graded_doc(), lambda p: p.update(gradation=["id", "inv"])),
     "gradation"),
    (_edit(_graded_doc(), lambda p: p["gradation"].update(t="nope")),
     "not a gradation"),
], ids=["no-unit", "unit-outside-basis", "ragged-table", "no-basis",
        "basis-not-a-list", "action-missing-entry", "no-automorphisms",
        "automorphism-not-an-object", "gradation-not-an-object",
        "gradation-unknown-automorphism"])
def test_cli_rejects_malformed_group_spec(tmp_path, doc, says):
    code, out = run_cli("verify", _spec_file(tmp_path, doc))
    assert code == 2 and out.startswith("input error:") and says in out


class _ReferenceBarComparison(BarComparison):
    """A BarComparison that computes Phi through the rewriting system even
    for an abelian Lie algebra."""

    def __init__(self, ce, hopf):
        super().__init__(ce, hopf)
        self.commuting = False


def test_cocycle_values_agree_on_both_Phi_paths(monkeypatch):
    # CLI text shows no cocycle values, so pin them here: transported
    # cochains and xi2 cocycles are the same whichever path Phi takes
    spec = WorkbenchSpec.load(fixture("case2_beta1_Y.json"))
    spec.set_budget(6)
    ctx = SweedlerContext(build_poly2_instance(spec))
    A = ctx.mad.algebra.space
    with open(fixture("cocycle_b1.json")) as fh:
        doc = json.load(fh)
    one = Element(A, {(0,): Fraction(1)})
    poly = Element(A, {(0,): Fraction(1), (1,): Fraction(2),
                       (2,): Fraction(-1, 3)})
    values = [{(0, 1): one}, {(0, 1): poly}, {(0,): poly, (1,): one}]
    ce = CEAlgebra(LieSpec.abelian(2))

    def cochains(bc):
        return ([transport_cochain(ctx, bc, v) for v in values]
                + [cocycle_from_doc(ctx, doc), xi2_cocycle(ctx, poly)])

    fast_bc = BarComparison(ce, ctx.mad.hopf)
    assert fast_bc.commuting
    fast = cochains(fast_bc)
    monkeypatch.setattr(workbench, "BarComparison", _ReferenceBarComparison)
    ref = cochains(_ReferenceBarComparison(ce, ctx.mad.hopf))
    nonzero = 0
    for f, g in zip(fast, ref):
        fc, gc = f.values.columns, g.values.columns
        assert fc.keys() == gc.keys()
        for lab in fc:
            assert fc[lab].coeffs == gc[lab].coeffs, lab
            nonzero += not fc[lab].is_zero()
    assert nonzero > 90


@pytest.mark.parametrize("argv", [["classify"], ["cohomology", "--degree", "1"]],
                         ids=["classify", "cohomology-1"])
def test_classify_computes_the_center_of_invariants_once(monkeypatch, argv):
    import hopfcross.ce as ce
    calls = []
    real = ce.center_of_invariants

    def counting(mad, window=None):
        calls.append(window)
        return real(mad, window)

    monkeypatch.setattr(ce, "center_of_invariants", counting)
    code, out = run_cli(argv[0], fixture("case3b.json"), *argv[1:])
    assert code == 0
    assert len(calls) == 1
    if argv == ["classify"]:
        with open(os.path.join(GOLDENS, "case3b.txt")) as fh:
            assert out == fh.read()
    else:
        assert out == "H^1 dimension at window 4: 3\n"


# the facts about Q, decided once by PolyActionSpec

def test_crossed_product_refuses_a_non_jordan_Q_before_building(
        tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("crossed-product went past the Jordan test")

    monkeypatch.setattr(cli, "SweedlerContext", unreachable)
    monkeypatch.setattr(cli, "check_cocycle_conditions", unreachable)
    spec = _poly2_spec_file(tmp_path, Q=(("1", "1"), ("0", "2")), beta1=(),
                            budget=7)
    code, out = run_cli("crossed-product", spec,
                        "--cocycle", fixture("cocycle_trivial.json"))
    assert code == 2
    assert out == ("input error: Q must be diagonal or a single Jordan "
                   "block\n")


@pytest.mark.parametrize("argv", [
    ["verify"], ["cohomology"], ["classify"], ["compare"],
    ["crossed-product", "--cocycle", fixture("cocycle_trivial.json")]],
    ids=lambda argv: argv[0])
def test_a_singular_Q_reads_the_same_on_every_command(tmp_path, argv):
    spec = _poly2_spec_file(tmp_path, Q=(("1", "1"), ("1", "1")))
    code, out = run_cli(argv[0], spec, *argv[1:])
    assert code == 2
    assert out == "input error: Q violated: Q is not invertible\n"


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["crossed-product", "--cocycle", fixture("cocycle_trivial.json"),
     "--budget", "2"]], ids=lambda argv: argv[0])
def test_the_order_of_Q_is_computed_once(monkeypatch, argv):
    import hopfcross.actions as actions
    calls = []
    real = actions.matrix_order

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(actions, "matrix_order", counting)
    code, out = run_cli(argv[0], fixture("case3b.json"), *argv[1:])
    assert code == 0
    assert len(calls) == 1
    if argv == ["classify"]:
        with open(os.path.join(GOLDENS, "case3b.txt")) as fh:
            assert out == fh.read()


def test_verify_titles_the_module_algebra_with_rational_entries():
    code, out = run_cli("verify", fixture("case2_beta1_Y.json"),
                        "--budget", "2")
    assert code == 0
    assert "module algebra: k[X1,X2] on k[Y] (Q=[[1, 0], [0, 1]])" in \
        out.splitlines()
