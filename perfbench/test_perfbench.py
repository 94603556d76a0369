"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ncperiods.quadrature as quadrature  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.child", 1, 2.0, 3.0),
        Span("b", 0, 3.5, 5.5),  # overlaps a and c: counted once
        Span("c", 0, 5.0, 6.0),
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx([10.0 - 5.0, 3.0 - 1.0, 1.0, 2.0, 1.0])


def _vj(parent, start, end, key):
    return Span("iterint.vertical_J", parent, start, end, {"key": key})


def _ev(parent, t):
    return Span("modforms.eval_forms", parent, t, t + 0.1, {"points": 5})


def test_vertical_j_hits_solves_repeats():
    spans = [Span("cocycle.psi", -1, 0.0, 20.0)]
    spans.append(_vj(0, 0.0, 5.0, "ray1"))          # 1: solve, 3 evaluations
    spans += [_ev(1, 1.0), _ev(1, 2.0), _ev(1, 3.0)]
    spans.append(_vj(0, 6.0, 6.1, "ray1"))          # 5: memo hit, a repeat
    spans.append(_vj(0, 7.0, 12.0, "ray2"))         # 6: solve, 5 evaluations
    spans += [_ev(6, 7.0 + k) for k in range(5)]
    spans.append(_vj(0, 13.0, 13.1, None))          # 12: empty collection,
    spans.append(_vj(0, 14.0, 14.1, None))          # 13: never reaches the memo
    stats = tracing.vertical_j_stats(spans)
    assert stats["calls"] == 5
    assert stats["solves"] == 2
    assert stats["hit_share"] == pytest.approx(3 / 5)
    assert stats["repeat_share"] == pytest.approx(1 / 5)
    assert stats["attempts_per_solve"] == pytest.approx(((3 - 1) + (5 - 1)) / 2)


def test_accept_ratio_arithmetic():
    spans = [
        Span("quadrature.adaptive_pw", -1, 0.0, 1.0,
             {"rounds": 3, "points": 8 * tracing.NPTS, "accepted": 6}),
        Span("quadrature.adaptive_pw", -1, 1.0, 2.0,
             {"rounds": 1, "points": 4 * tracing.NPTS, "accepted": 4}),
    ]
    stats = tracing.adaptive_pw_stats(spans)
    assert stats == {"calls": 2, "rounds": 4, "panels_tried": 12,
                     "accept_ratio": pytest.approx(10 / 12)}


def test_traced_adaptive_pw_counts_every_panel():
    tracer = tracing.Tracer()
    original = quadrature.adaptive_pw
    tracer.install()
    try:
        pw = quadrature.adaptive_pw(lambda s: np.exp(40.0 * s), 0.0, 1.0, tol=1e-12)
    finally:
        tracer.uninstall()
    assert quadrature.adaptive_pw is original
    spans = tracer.take()
    stats = tracing.adaptive_pw_stats(spans)
    accepted = len(pw.breaks) - 1
    # every tried panel is accepted or bisected into two new tried panels,
    # starting from the 4 initial panels
    assert stats["panels_tried"] == 2 * accepted - 4
    assert stats["rounds"] == sum(s.name == "integrand" for s in spans) > 1
    assert stats["accept_ratio"] == pytest.approx(accepted / stats["panels_tried"])


def test_gate_is_relative_and_counts_absolute_breaches():
    rows = [
        ("big", 2e3, 3.6e18, 1e-7, 1e-7),   # fails 1e-7 absolutely, 6e-16 relatively
        ("small", 5e-8, 0.0, 1e-7, 1e-7),   # scale below 1 divides by 1
    ]
    g = workloads.gate(rows)
    assert g["ok"] and g["abs_breaches"] == ["big"]
    assert g["resid_ratio"] == pytest.approx(0.5)
    assert not workloads.gate(rows + [("bad", 2e-7, 0.5, 1e-7, None)])["ok"]
    assert not workloads.gate([("nan", float("nan"), 1.0, 1e-7, None)] + rows)["ok"]


@pytest.fixture(scope="module")
def small_dump():
    wl = workloads.PsiWide()
    inp = wl.setup(3)
    inp["cfg"] = inp["cfg"].with_(alphabet="10:trivial", degree=2)
    inp["h"] = workloads.cli.default_collection(inp["cfg"])
    inp["panel"] = inp["panel"][::64]
    return inp, wl.run(inp)


def test_psi_relations_pass_on_a_real_dump(small_dump):
    inp, dump = small_dump
    g = workloads.gate(workloads.PsiWide().check(inp, dump, {}))
    assert g["ok"] and g["resid_ratio"] < 1e-3


def test_psi_relations_flag_a_perturbed_row(small_dump):
    inp, dump = small_dump
    bad = json.loads(json.dumps(dump))
    entry = next(e for e in bad["entries"] if e["gamma"] == "ST")
    # the largest value of Psi_ST sets the relation's scale; a 1e-5 relative
    # change of it is 100 times the 1e-7 tolerance
    pair = max((p for col in entry["values"].values() for p in col), key=lambda p: abs(p[0]))
    pair[0] *= 1.0 + 1e-5
    g = workloads.gate(workloads.PsiWide().check(inp, bad, {}))
    assert not g["ok"]


def test_benchmark_json_names_match_the_output():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    layer = set(tracing.layer_metrics([])) | {
        "trace.wall_s", "trace.overhead_s", "modforms.level_one_basis.self_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
