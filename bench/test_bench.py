"""Tests of the benchmark's own parts: generators, output parsing, span
aggregation and the metric list.  They run no hopfcross job."""

import json
import os
import random
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads


def _read_all(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.generate(name, 7, str(tmp_path / "a"))
    b = workloads.generate(name, 7, str(tmp_path / "b"))
    c = workloads.generate(name, 8, str(tmp_path / "c"))
    assert [j.key for j in a] == [j.key for j in b] == [j.key for j in c]
    assert [j.argv for j in a] == [[x.replace("/b/", "/a/") for x in j.argv]
                                   for j in b]
    files_a = _read_all(str(tmp_path / "a"))
    assert files_a == _read_all(str(tmp_path / "b"))
    assert files_a != _read_all(str(tmp_path / "c"))


def test_every_job_has_a_recorded_verdict(tmp_path):
    with open(os.path.join(run.HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for name in workloads.WORKLOADS:
        for job in workloads.generate(name, 3, str(tmp_path / name)):
            assert job.golden is not None or job.key in expected, job.key


def _lie_brackets(doc):
    return {tuple(int(x) for x in key.split(",")):
            {int(k): Fraction(v) for k, v in val.items()}
            for key, val in doc["payload"]["brackets"].items()}


@pytest.mark.parametrize("seed", range(5))
def test_generated_lie_specs_satisfy_jacobi(tmp_path, seed):
    workloads.generate("resolution", seed, str(tmp_path))
    for name in workloads.LIE_ALGEBRAS:
        with open(tmp_path / ("lie_%s.json" % name)) as fh:
            doc = json.load(fh)
        assert workloads.jacobi_holds(doc["payload"]["dim"], _lie_brackets(doc))


def test_jacobi_check_rejects_a_non_lie_bracket():
    # [x0,x1] = x1, [x0,x2] = x2, [x1,x2] = x0: the Jacobi sum is 2 x0
    assert not workloads.jacobi_holds(
        3, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    sl2 = workloads.LIE_ALGEBRAS["sl2"][1]
    assert workloads.jacobi_holds(3, workloads.rescale(
        sl2, [Fraction(2), Fraction(-3, 4), Fraction(1, 3)]))


def _support(beta):
    return {i for i, c in enumerate(beta) if c != 0}


@pytest.mark.parametrize("seed", range(20))
def test_poly2_families_meet_their_constraints(seed):
    fams = workloads.poly2_families(random.Random(seed))
    (q, one), (zero, q_) = fams["1a"][0]
    assert q == q_ and one == 1 and zero == 0 and q not in (0, 1, -1)
    (q1, z1), (z2, q2) = fams["1b"][0]
    assert z1 == z2 == 0 and q1 * q2 == 1 and q1 not in (1, -1)
    assert fams["2"][0] == [[1, 0], [0, 1]]
    assert fams["3a"][0] == [[-1, 0], [0, -1]]
    assert fams["3b"][0] == [[-1, 0], [0, 1]]
    for fam in ("1a", "1b"):
        assert _support(fams[fam][1]) == _support(fams[fam][2]) == {1}
    assert _support(fams["2"][1]) == {1} and not _support(fams["2"][2])
    for fam in ("3a", "3b"):
        assert all(u % 2 == 1 for b in fams[fam][1:] for u in _support(b))
    assert not _support(fams["3b"][2])


def test_check_line_parser():
    text = "\n".join([
        "braided bialgebra axioms: k[X1..X2]/deg>4",
        "algebra.associativity                      PASS (210 checked)",
        "module.item4_braided_leibniz               PASS (66 checked) "
        "[skipped (budget): 4]",
        "crossed.unit                               FAIL (35 checked) "
        "[skipped (budget): 2] witness=((0,), (1, 0))",
        "bar-side transport of d2 matches the additive coboundary: True "
        "[skipped (budget): 5]",
        "OVERALL: FAIL",
    ])
    assert checks.parse_checks(text) == [
        ("algebra.associativity", "PASS", 210, 0),
        ("module.item4_braided_leibniz", "PASS", 66, 4),
        ("crossed.unit", "FAIL", 35, 2)]
    assert checks.suite_counts(text) == (311, 6)


def test_signature_ignores_seeded_lines_only():
    a = "case: 2\nQ: [['1', '0'], ['0', '1']]\nbeta1: 3/4*Y\nH2_dim: 1\n" \
        "presentation:\n  W1*Y = Y*W1 + 3/4*Y\n"
    b = a.replace("3/4", "-2")
    assert checks.signature(0, a) == checks.signature(0, b)
    assert checks.signature(0, a) != checks.signature(0, a.replace(
        "H2_dim: 1", "H2_dim: 2"))
    assert checks.signature(0, a) != checks.signature(1, a)


def _doc():
    # main [0, 10] -> a [1, 4] -> a [2, 3]   (recursion)
    #              -> b [5, 9] -> a [6, 8]
    names = ["cli.main", "exact.a", "ce.b"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 2.0, 3.0, 1),
             (2, 5.0, 9.0, 0), (1, 6.0, 8.0, 3)]
    return {"names": names, "spans": spans, "counters": {}}


def test_self_time_on_a_synthetic_span_tree():
    s = tracer.summarize(_doc())
    assert s["cli.main"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    # self: 2 + 1 + 2; total: the outer a (3) and the a under b (2), not the
    # recursive inner a again
    assert s["exact.a"] == {"calls": 3, "self_s": 5.0, "total_s": 5.0}
    assert s["ce.b"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}
    assert sum(v["self_s"] for v in s.values()) == 10.0
    assert tracer.count_children(_doc(), "exact.a", "ce.b") == 1
    assert tracer.count_children(_doc(), "exact.a", "cli.main") == 1


def test_layer_self_times_and_cli_remainder_sum_to_job_wall():
    job = workloads.Job("k", [], "verify", 4, 1)
    summary = tracer.summarize(_doc())
    base = [{"job": job, "wall": 10.5, "error": None, "suite": (8, 2)}]
    traced = [{"job": job, "wall": 12.0, "error": None, "suite": (8, 2),
               "spans": summary,
               "counters": {"exact.columns_built": 3, "ce.nf.distinct": 0,
                            "tpc_in_domain": 0}}]
    metrics = run.per_layer(base, traced)
    layers = sum(metrics["%s.self_s" % l] for l in run.LAYERS)
    assert layers == pytest.approx(12.0)
    assert metrics["cli.self_s"] == pytest.approx(12.0 - 5.0 - 2.0)
    assert metrics["exact.columns_built"] == 3
    assert metrics["suite.skip_ratio"] == pytest.approx(0.2)
    assert metrics["trace.overhead"] == pytest.approx(12.0 / 10.5 - 1)


def test_benchmark_json_names_the_runner_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(m, run.unit_of(m)) for m in run.PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
