"""Every command on every fixture ends in a documented exit code.

Runs `cli.main` in-process for each command on each spec fixture at budgets
2 and 3 and asserts that it returns 0, 1, 2 or 3 without raising: a malformed
or out-of-scope combination is bad input (2), never a traceback.  `compare`
on a poly2 fixture must pass (0): the exp/log comparison is a theorem there.
"""

import io
import json
import os

import pytest

from hopfcross import cli
from hopfcross.cli import main
from hopfcross.exact import TruncationOverflow
from hopfcross.hopf import Report, check_equal_on
from hopfcross.workbench import WorkbenchSpec, build_instance

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
COCYCLES = ["cocycle_b1.json", "cocycle_trivial.json"]
SPECS = sorted(name for name in os.listdir(FIXTURES)
               if name.endswith(".json") and name not in COCYCLES)
COMMANDS = ([["verify"], ["cohomology", "--degree", "1"],
             ["cohomology", "--degree", "2"], ["classify"],
             ["compare", "--samples", "2"]]
            + [["crossed-product", "--cocycle", os.path.join(FIXTURES, c)]
               for c in COCYCLES])


def _kind(spec):
    with open(os.path.join(FIXTURES, spec)) as fh:
        return json.load(fh)["kind"]


def _argv(command, spec, budget, *extra):
    return [command[0], os.path.join(FIXTURES, spec), "--budget", budget,
            *command[1:], *extra]


@pytest.mark.parametrize("budget", ["2", "3"])
@pytest.mark.parametrize("spec", SPECS)
def test_every_command_ends_in_an_exit_code(spec, budget):
    for command in COMMANDS:
        argv = _argv(command, spec, budget)
        code = main(argv, out=io.StringIO())
        assert code in (0, 1, 2, 3), argv
        if command[0] == "compare" and _kind(spec) == "poly2":
            assert code == 0, argv


@pytest.mark.parametrize("budget", ["2", "3"])
@pytest.mark.parametrize("spec", SPECS)
def test_json_ok_means_exit_0(spec, budget):
    # an inconclusive or failed run must not read as ok in its JSON; bad
    # input (2) prints its one error line instead of a document
    for command in COMMANDS:
        argv = _argv(command, spec, budget, "--format", "json")
        out = io.StringIO()
        code = main(argv, out=out)
        if code != 2:
            assert json.loads(out.getvalue())["ok"] == (code == 0), argv


# every poly2 fixture with Q != ide, at its own budget with the default
# samples, and the two that failed at budget 4 when `compare` drew its
# cochains outside the carrier
@pytest.mark.parametrize("spec,budget", [
    ("case1a_q2.json", None), ("case1a_qm1.json", None),
    ("case1b_q1q2_1.json", None), ("case1b_q1q2_ne1.json", None),
    ("case3a.json", None), ("case3b.json", None),
    ("case3a.json", "4"), ("case3b.json", "4")])
def test_compare_passes_on_poly2(spec, budget):
    argv = ["compare", os.path.join(FIXTURES, spec)]
    if budget is not None:
        argv += ["--budget", budget]
    assert main(argv, out=io.StringIO()) == 0, argv


def _poly2_spec(tmp_path, beta1, beta2):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "poly2", "budget": 5, "payload": {
        "Q": [["-1", "0"], ["0", "1"]], "beta1": beta1, "beta2": beta2}}))
    return str(path)


def test_cohomology_at_the_truncation_boundary_is_inconclusive(tmp_path):
    out = io.StringIO()
    argv = ["cohomology", _poly2_spec(tmp_path, ["0", "1"], ["0", "0", "0", "1"]),
            "--budget", "3", "--degree", "0"]
    assert main(argv, out=out) == 3
    assert "caveat: differential met the truncation boundary" in out.getvalue()


@pytest.mark.parametrize("spec,budget", [
    ("case2_beta1_Y.json", "3"), ("case2_beta1_Y.json", "5"),
    ("case1a_q2.json", None)])
def test_a_cocycle_whose_inverse_leaves_the_budget_is_not_invertible(
        tmp_path, spec, budget):
    # f(1 (x) 1) = 1 + Y: its trial products (1 + Y) Y^N leave k[Y]_{<=N}, so
    # the budget cannot certify an inverse
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text(json.dumps({"kind": "table", "values": {
        "0,0|0,0": {"0": "1", "1": "1"}}}))
    argv = ["crossed-product", os.path.join(FIXTURES, spec),
            "--cocycle", str(cocycle)]
    if budget is not None:
        argv += ["--budget", budget]
    out = io.StringIO()
    assert main(argv, out=out) == 1, argv
    assert "invertible=False" in out.getvalue()


def test_an_invalid_poly2_action_is_bad_input(tmp_path):
    out = io.StringIO()
    argv = ["cohomology", _poly2_spec(tmp_path, ["0", "0", "0", "1"], ["0", "1"]),
            "--budget", "3", "--degree", "0"]
    assert main(argv, out=out) == 2
    assert out.getvalue() == ("input error: eq13 violated: beta_1 nonlinear "
                              "while beta_2 nonzero\n")


def test_cohomology_of_a_group_spec_without_an_algebra_is_bad_input(tmp_path):
    with open(os.path.join(FIXTURES, "z2_sign.json")) as fh:
        doc = json.load(fh)
    del doc["payload"]["algebra"], doc["payload"]["action"]
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert main(["cohomology", str(path)], out=out) == 2
    assert out.getvalue() == ("input error: group spec has no coefficient "
                              "algebra\n")


@pytest.mark.parametrize("payload", [
    [],
    {"dim": 2, "brackets": []},
    {"dim": 2, "brackets": {"0,1": {"5": 1}}},
    {"dim": 2, "brackets": {"0,1": {"-1": 1}}},
], ids=["payload-list", "brackets-list", "output-index-5", "output-index-minus-1"])
def test_a_malformed_lie_spec_is_bad_input(tmp_path, payload):
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"kind": "lie", "budget": 3, "payload": payload}))
    out = io.StringIO()
    assert main(["verify", str(path)], out=out) == 2
    assert out.getvalue().startswith("input error: ")


@pytest.mark.parametrize("which", ["directory", "not-text"])
@pytest.mark.parametrize("role", ["spec", "cocycle"])
def test_an_unreadable_input_file_is_bad_input(tmp_path, role, which):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff\xfe\x00\x9c{}")
    bad = FIXTURES if which == "directory" else str(bad)
    spec = os.path.join(FIXTURES, "case2_beta1_Y.json")
    cocycle = os.path.join(FIXTURES, "cocycle_b1.json")
    if role == "spec":
        spec = bad
    else:
        cocycle = bad
    out = io.StringIO()
    argv = ["crossed-product", spec, "--cocycle", cocycle, "--budget", "3"]
    assert main(argv, out=out) == 2, argv
    assert out.getvalue().startswith("input error: ")
    if role == "spec":
        out = io.StringIO()
        assert main(["verify", spec], out=out) == 2
        assert out.getvalue().startswith("input error: ")


@pytest.mark.parametrize("spec", ["z2_sign.json", "z3_inversion_graded.json"])
def test_group_cohomology_above_degree_0_is_inconclusive(spec):
    # only H^0 is computed on a group spec; a higher degree prints the
    # predicates note and is no computed answer
    path = os.path.join(FIXTURES, spec)
    out = io.StringIO()
    assert main(["cohomology", path, "--degree", "0"], out=out) == 0
    assert out.getvalue().startswith("H0 carrier dimension: ")
    out = io.StringIO()
    assert main(["cohomology", path, "--degree", "1"], out=out) == 3
    assert out.getvalue().splitlines()[1] == (
        "degree 1: multiplicative complex; predicates available, dimensions "
        "not linearizable")


@pytest.mark.parametrize("command,spec,says", [
    (["classify"], "z2_sign.json", "group spec has no k[X1,X2] action"),
    (["classify"], "heisenberg.json", "lie spec has no k[X1,X2] action"),
    (["crossed-product", "--cocycle", os.path.join(FIXTURES, COCYCLES[0])],
     "z2_sign.json", "group spec has no k[X1,X2] action"),
    (["crossed-product", "--cocycle", os.path.join(FIXTURES, COCYCLES[0])],
     "heisenberg.json", "lie spec has no k[X1,X2] action"),
    (["cohomology"], "heisenberg.json", "lie spec has no coefficient algebra"),
    (["compare"], "heisenberg.json",
     "lie spec has no graded coefficient algebra"),
], ids=["classify-group", "classify-lie", "crossed-product-group",
        "crossed-product-lie", "cohomology-lie", "compare-lie"])
def test_a_command_refuses_a_kind_without_its_part(command, spec, says):
    out = io.StringIO()
    argv = [command[0], os.path.join(FIXTURES, spec), *command[1:]]
    assert main(argv, out=out) == 2, argv
    assert out.getvalue() == "input error: %s\n" % says


@pytest.mark.parametrize("spec,parts", [
    ("z2_sign.json", {"hopf", "mad"}),
    ("heisenberg.json", {"hopf", "lie"}),
    ("case2_beta1_Y.json", {"hopf", "mad", "xi"}),
])
def test_build_instance_gives_the_parts_of_each_kind(spec, parts):
    inst = build_instance(WorkbenchSpec.load(os.path.join(FIXTURES, spec)))
    assert inst.kind == _kind(spec)
    assert {p for p in ("hopf", "mad", "lie", "xi")
            if getattr(inst, p) is not None} == parts
    if inst.xi is not None:
        assert inst.xi.mad is inst.mad


def test_a_check_with_every_tuple_skipped_makes_the_command_inconclusive(
        monkeypatch):
    # the antipode suite with every tuple leaving the budget: 0 checked is
    # no pass, so the command exits 3 and its JSON is not ok
    def overflow(x, t):
        raise TruncationOverflow("every tuple leaves the budget")

    def vacuous_antipode(h, budget=None):
        report = Report("antipode")
        check_equal_on(report, "antipode.vacuous", h.space, overflow, overflow,
                       budget)
        return report

    monkeypatch.setattr(cli, "verify_antipode", vacuous_antipode)
    path = os.path.join(FIXTURES, "z2_sign.json")
    out = io.StringIO()
    assert main(["verify", path], out=out) == 3
    line = next(line for line in out.getvalue().splitlines()
                if line.startswith("antipode.vacuous"))
    assert line.endswith("INCONCLUSIVE (0 checked) [skipped (budget): 2]")
    assert "OVERALL: INCONCLUSIVE" in out.getvalue()
    out = io.StringIO()
    assert main(["verify", path, "--format", "json"], out=out) == 3
    assert json.loads(out.getvalue())["ok"] is False
