"""Acceptance criteria, one test per criterion, one printed line each.

Criteria 3 through 8 run through module-level helpers that serialize their
reports to canonical JSON bytes; criterion 10 clears every cache and reruns
them, demanding byte-identical output.  Run with -v; the lines print straight
to the terminal even under capture.
"""

import json
import time

import numpy as np

import ncperiods
from ncperiods.cocycle import (
    CuspCollection,
    eta_example_check,
    j_rows_direct,
    verify_cocycle,
    verify_equivariance,
)
from ncperiods.config import DEFAULT_PANEL
from ncperiods.iterint import QuadConfig, path_split_check, vertical_J
from ncperiods.mlv import lambda_probe, verify_shuffle
from ncperiods.modforms import eta_form, level_one_basis
from ncperiods.ncpoly import Alphabet, GradedWords, Letter, nc_inv, nc_mul
from ncperiods.reconstruct import (build_catalog, compare_recovery, hidden_collection,
                                   injectivity_probe, peel, psi_evaluator)
from ncperiods.sl2z import S, T

PANEL = np.asarray(DEFAULT_PANEL, dtype=complex)
Z0 = 2.0j

AB_12_16 = Alphabet((Letter.trivial(10), Letter.trivial(14)))
AB_12_6 = Alphabet((Letter.trivial(10), Letter.trivial(4)))
AB_1 = Alphabet((Letter.trivial(10),))

# interior endpoints shared with the CLI identity checks
Z_HI = 2.2j
Y_MID = 0.5 + 1.3j
X_LO = -0.3 + 0.8j

_REPORTS: dict = {}


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _announce(capsys, n, name, ok, detail, elapsed, limit):
    flag = "PASS" if ok else "FAIL"
    line = f"criterion {n:2d} ({name}): {flag}  {detail}  elapsed={elapsed:.1f}s (limit {limit:.0f}s)"
    with capsys.disabled():
        print("\n" + line, flush=True)


def _delta():
    return level_one_basis(12)[0]


def _g16():
    return level_one_basis(16)[0]


# --- helpers for criteria 3..8, reused by the determinism criterion ----------

def run_c3():
    delta = _delta()
    reps = [
        path_split_check([delta, delta], Z_HI, Y_MID, X_LO, PANEL),
        path_split_check([delta, delta, delta], Z_HI, Y_MID, X_LO, PANEL),
    ]
    worst = max(r["max"] for r in reps)
    return _canon(reps), worst


def run_c4():
    h = CuspCollection.from_letters(AB_1, [_delta()])
    # the TS/ST pair moves panel points far from i, where degree-3 rows grow;
    # default targets leave under 10 percent margin against 1e-7
    cfg = QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)
    pairs = [(S, S), (S, T), (T, S), (T * S, S * T)]
    reps = [verify_cocycle(h, g, d, Z0, PANEL, 3, cfg) for g, d in pairs]
    worst = max(r["max"] for r in reps)
    return _canon(reps), worst


def run_c5():
    h = CuspCollection.from_letters(AB_1, [_delta()])
    reps = []
    for D in (1, 2):
        for g in (T, S):
            reps.append(verify_equivariance(h, g, None, 0, PANEL, D))
    worst = max(r["max"] for r in reps)
    return _canon(reps), worst


def run_c6():
    # the N=1 letter decays like q^(1/24), leaving residuals right at 1e-7
    # under the default targets; tighten to buy two orders of margin
    cfg = QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)
    reps = []
    for N in (1, 4, 12, 24):
        h = CuspCollection.from_letters(Alphabet((Letter.eta(N),)), [eta_form(N)])
        rep = eta_example_check(h, Z0, PANEL, 3, cfg)
        rep["eta_power"] = N
        reps.append(rep)
    worst = max(max(r["product_relation_max"], r["involution_relation_max"]) for r in reps)
    return _canon(reps), worst


def run_c7():
    delta, g16 = _delta(), _g16()
    reps = [verify_shuffle(delta, delta, PANEL), verify_shuffle(delta, g16, PANEL)]
    worst_shuffle = max(r["max"] for r in reps)
    fe = lambda_probe(delta)  # splits 0.7 / 1.3, s = 1..11
    reps.append(fe)
    return _canon(reps), worst_shuffle, fe["max_rel"]


C8_SEEDS = (7, 11, 23, 101, 555)
C8_CFG = QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)


def run_c8():
    catalog = build_catalog(AB_12_6, 3, PANEL, C8_CFG)
    out = []
    worst = 0.0
    for seed in C8_SEEDS:
        rng = np.random.default_rng(seed)
        coeffs = {e.mono: rng.uniform(-2.0, 2.0, size=e.dim) for e in catalog.entries}
        X = psi_evaluator(hidden_collection(catalog, coeffs), 3, Z0, C8_CFG)
        _, rep = peel(X, catalog, z0=Z0, cfg=C8_CFG)
        for stage in rep.degrees:
            assert stage["abelian"]["status"] == "ok", (seed, stage["degree"])
        comparison, seed_worst = compare_recovery(coeffs, rep)
        worst = max(worst, seed_worst)
        out.append({"seed": seed, "comparison": comparison,
                    "max_rel_err": seed_worst, "report": rep.to_dict()})
    return _canon(out), worst


def _get(key, runner):
    if key not in _REPORTS:
        _REPORTS[key] = runner()
    return _REPORTS[key]


# --- the criteria -------------------------------------------------------------

def test_criterion_01_series_arithmetic(capsys):
    t0 = time.perf_counter()
    words = GradedWords(AB_12_6, 4)
    # 500 draws of (a, b, c), each a real then an imaginary part per series
    parts = np.random.default_rng(2024).uniform(-1, 1, (500, 3, 2, words.total))
    a, b, c = np.moveaxis(parts[:, :, 0] + 1j * parts[:, :, 1], 1, 0)
    for x in (a, b, c):
        x[:, 0] = 1.0
    one = np.zeros(words.total)
    one[0] = 1.0
    inv_res = nc_mul(words, nc_inv(words, a), a) - one

    def mul(x, y):  # each product rounded to complex128 before the next
        return nc_mul(words, x, y).astype(complex)

    assoc_res = mul(mul(a, b), c) - mul(a, mul(b, c))
    worst = float(max(np.max(np.abs(inv_res)), np.max(np.abs(assoc_res))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _announce(capsys, 1, "series inverse/associativity x500", ok,
              f"max_residual={worst:.2e} tol=1e-12", elapsed, 5)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_dual_route(capsys):
    t0 = time.perf_counter()
    h = CuspCollection.from_letters(AB_12_16, [_delta(), _g16()])
    # degree-2 weight-14 words reach coefficient size ~1e3 on these draws,
    # so meeting an absolute 1e-7 bound needs tighter relative targets
    cfg = QuadConfig(rtol=1e-12, atol=1e-14, quad_tol=1e-13)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        z0 = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.8, 2.2)
        t = np.array([rng.uniform(-1.2, 1.2) - 1j * rng.uniform(0.3, 1.5)])
        ode = vertical_J(h, z0, t, 2, cfg)
        quad = j_rows_direct(h, z0, None, t, 2, cfg)
        worst = max(worst, float(np.max(np.abs(ode - quad))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 120
    _announce(capsys, 2, "dual-route J agreement x10", ok,
              f"max_abs_diff={worst:.2e} tol=1e-07", elapsed, 120)
    assert worst <= 1e-7
    assert elapsed < 120


def test_criterion_03_composition_relations(capsys):
    t0 = time.perf_counter()
    _, worst = _get("c3", run_c3)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 180
    _announce(capsys, 3, "order-2/3 path composition", ok,
              f"max_residual={worst:.2e} tol=1e-07", elapsed, 180)
    assert worst <= 1e-7
    assert elapsed < 180


def test_criterion_04_cocycle_relation(capsys):
    t0 = time.perf_counter()
    _, worst = _get("c4", run_c4)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 120
    _announce(capsys, 4, "cocycle relation, 4 pairs, D=3", ok,
              f"max_residual={worst:.2e} tol=1e-07", elapsed, 120)
    assert worst <= 1e-7
    assert elapsed < 120


def test_criterion_05_equivariance(capsys):
    t0 = time.perf_counter()
    _, worst = _get("c5", run_c5)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60
    _announce(capsys, 5, "slash equivariance, orders 1-2", ok,
              f"max_residual={worst:.2e} tol=1e-08", elapsed, 60)
    assert worst <= 1e-8
    assert elapsed < 60


def test_criterion_06_eta_relations(capsys):
    t0 = time.perf_counter()
    _, worst = _get("c6", run_c6)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 180
    _announce(capsys, 6, "eta^N defining relations, D=3", ok,
              f"max_residual={worst:.2e} tol=1e-07", elapsed, 180)
    assert worst <= 1e-7
    assert elapsed < 180


def test_criterion_07_shuffle_and_functional_eq(capsys):
    t0 = time.perf_counter()
    _, worst_shuffle, worst_rel = _get("c7", run_c7)
    elapsed = time.perf_counter() - t0
    ok = worst_shuffle <= 1e-7 and worst_rel <= 1e-9 and elapsed < 120
    _announce(capsys, 7, "shuffle + functional equation", ok,
              f"shuffle={worst_shuffle:.2e} tol=1e-07, funceq_rel={worst_rel:.2e} tol=1e-09",
              elapsed, 120)
    assert worst_shuffle <= 1e-7
    assert worst_rel <= 1e-9
    assert elapsed < 120


def test_criterion_08_roundtrip_recovery(capsys):
    t0 = time.perf_counter()
    _, worst = _get("c8", run_c8)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 600
    _announce(capsys, 8, "random-collection recovery x5", ok,
              f"max_rel_err={worst:.2e} tol=1e-04", elapsed, 600)
    assert worst <= 1e-4
    assert elapsed < 600


def test_criterion_09_injectivity(capsys):
    t0 = time.perf_counter()
    catalog = build_catalog(AB_12_6, 2, PANEL)
    rng = np.random.default_rng(97)
    checked = 0
    for trial in range(10):
        ca = {e.mono: rng.uniform(-2.0, 2.0, size=e.dim) for e in catalog.entries}
        cb = {e.mono: rng.uniform(-2.0, 2.0, size=e.dim) for e in catalog.entries}
        if trial % 2:
            cb[(1,)] = ca[(1,)]  # force the difference into degree 2
            expect = 2
        else:
            expect = 1
        rep = injectivity_probe(hidden_collection(catalog, ca), hidden_collection(catalog, cb),
                                PANEL)
        assert rep["first_differing_degree"] == expect, trial
        assert rep["separated"] is True, (trial, rep)
        assert rep["margin"] > 0.0
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 10 and elapsed < 180
    _announce(capsys, 9, "injectivity probe x10", ok,
              "separated=10/10 at first differing degree", elapsed, 180)
    assert checked == 10
    assert elapsed < 180


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()
    first = {k: _get(k, r) for k, r in
             [("c3", run_c3), ("c4", run_c4), ("c5", run_c5),
              ("c6", run_c6), ("c7", run_c7), ("c8", run_c8)]}
    ncperiods.clear_caches()
    mismatched = []
    for key, runner in [("c3", run_c3), ("c4", run_c4), ("c5", run_c5),
                        ("c6", run_c6), ("c7", run_c7), ("c8", run_c8)]:
        again = runner()
        if again[0] != first[key][0]:
            mismatched.append(key)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _announce(capsys, 10, "byte-identical reruns of 3-8", ok,
              f"mismatched={mismatched or 'none'}", elapsed, 900)
    assert not mismatched, mismatched
