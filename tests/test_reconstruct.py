"""Catalog construction, peeling cocycles back to collections, injectivity."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncperiods import reconstruct
from ncperiods.cocycle import CuspCollection
from ncperiods.config import DEFAULT_PANEL, ConfigError
from ncperiods.iterint import Endpoint, QuadConfig, r_direct
from ncperiods.mlv import period_polynomial
from ncperiods.modforms import eta_form, form_linear_combination, level_one_basis
from ncperiods.ncpoly import (
    Alphabet,
    GradedWords,
    Letter,
    mono_multiplier,
    mono_weight,
    slash_factors,
)
from ncperiods.reconstruct import (
    PEEL_VALUE_GRID,
    PeelError,
    PeelReport,
    UnavailableValue,
    _degree_one_coboundaries,
    _extend_panel,
    _fit,
    build_catalog,
    cocycle_from_json,
    compare_recovery,
    dump_cocycle_values,
    hidden_collection,
    injectivity_probe,
    peel,
    psi_evaluator,
)
from ncperiods.sl2z import S, T

AB2 = Alphabet((Letter.trivial(10), Letter.trivial(4)))
AB1 = Alphabet((Letter.trivial(10),))
PANEL = np.asarray(DEFAULT_PANEL, dtype=complex)

EXPECTED_DIMS = {
    "A1": 1,
    "A1*A1": 1, "A1*A2": 1, "A2*A1": 1,
    "A1*A1*A1": 2, "A1*A1*A2": 1, "A1*A2*A1": 1, "A1*A2*A2": 1,
    "A2*A1*A1": 1, "A2*A1*A2": 1, "A2*A2*A1": 1,
}


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(AB2, 3, PANEL)


def test_catalog_structure(catalog):
    from ncperiods.ncpoly import mono_str

    got = {mono_str(e.mono): e.dim for e in catalog.entries}
    assert got == EXPECTED_DIMS
    # zero cusp spaces are genuinely absent, not present-with-dim-0
    assert catalog.entry((2,)) is None
    assert catalog.entry((2, 2)) is None
    assert catalog.entry((2, 2, 2)) is None
    assert catalog.entry((1,)).forms[0].label == "S12.1"
    assert [e.psi_samples.shape for e in catalog.entries if len(e.mono) == 3][0] == (5, 2)


def test_catalog_samples_match_period_polynomials(catalog, delta, g16):
    """Degree-1 psi samples are period polynomials on the panel: the catalog
    column for A1 must agree with the moment-route polynomial of Delta."""
    p = period_polynomial(delta)
    assert np.max(np.abs(catalog.entry((1,)).psi_samples[:, 0] - p(PANEL))) < 1e-9
    w14 = catalog.entry((1, 2)).forms[0]
    q = period_polynomial(w14)
    assert np.max(np.abs(catalog.entry((1, 2)).psi_samples[:, 0] - q(PANEL))) < 1e-9


@pytest.mark.parametrize("coeffs, message", [
    ({(1,): np.array([1.0, 5.0])}, "A1: expected 1 coefficients, got 2"),
    # S_6 = 0: the catalog has no entry for A2
    ({(2,): np.array([1.0])}, "A2: no cusp forms exist for this monomial"),
    # S42 has dimension 3, but the catalog stops at degree 3
    ({(1, 1, 1, 1): np.array([1.0])}, "A1\\*A1\\*A1\\*A1: degree 4 exceeds truncation 3"),
    ({(3,): np.array([1.0])}, "A3: letter index 3 out of range"),
])
def test_hidden_collection_refuses_coefficients_off_the_catalog(catalog, coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        hidden_collection(catalog, coeffs)


def test_catalog_rejects_bad_panel():
    with pytest.raises(ValueError):
        build_catalog(AB1, 1, np.array([0.5 + 0.5j]))
    # refused by the panel rule itself, also where no cusp space has forms
    # to integrate
    with pytest.raises(ValueError, match=r"panel point \(nan-1j\) is not a finite point"):
        build_catalog(Alphabet((Letter.trivial(4),)), 1, [complex("nan-1j"), -1j])


def test_catalog_samples_each_cusp_space_once(monkeypatch):
    """One period integral per distinct basis form: the monomials of one cusp
    space share one basis tuple and one read-only samples array, equal bit
    for bit to integrating each monomial's basis on its own."""
    calls = []

    def counting(forms, y, x, t, cfg):
        calls.append(forms[0])
        return r_direct(forms, y, x, t, cfg)

    monkeypatch.setattr(reconstruct, "r_direct", counting)
    catalog = build_catalog(AB2, 3, PANEL)
    assert Counter(calls) == Counter({f for e in catalog.entries for f in e.forms})
    spaces = {}
    for e in catalog.entries:
        first = spaces.setdefault((mono_weight(AB2, e.mono), mono_multiplier(AB2, e.mono)), e)
        assert e.forms is first.forms and e.psi_samples is first.psi_samples
        with pytest.raises(ValueError):
            e.psi_samples[0, 0] = 0.0
    assert len(calls) < sum(e.dim for e in catalog.entries)
    top, zero = Endpoint.cusp(None), Endpoint.cusp(0)
    for e in catalog.entries:
        ref = np.column_stack([r_direct([g], top, zero, PANEL, QuadConfig()) for g in e.forms])
        assert e.psi_samples.tobytes() == ref.tobytes(), e.mono


def _values_file(label, panel, columns) -> dict:
    """A one-entry file in the shape dump_cocycle_values writes."""
    def pairs(v):
        return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]
    return {"entries": [{"gamma": label, "panel": pairs(panel),
                         "values": {m: pairs(col) for m, col in columns.items()}}]}


def test_peel_exact_collection(catalog, delta, g16):
    """Recover a three-entry collection from its own cocycle values."""
    hidden = CuspCollection(AB2, {
        (1,): delta,
        (1, 2): form_linear_combination([0.7], [g16]),
        (2, 1): form_linear_combination([-0.3], [g16]),
    })
    X = psi_evaluator(hidden, 3)
    h_rec, report = peel(X, catalog)
    assert report.parabolic_check.startswith("ok")
    assert len(report.degrees) == 3
    for stage in report.degrees:
        assert stage["abelian"]["status"] == "ok"
    fits1 = report.degrees[0]["fits"]
    assert fits1["A1"]["coefficients"][0] == pytest.approx(1.0, abs=1e-5)
    fits2 = report.degrees[1]["fits"]
    assert fits2["A1*A2"]["coefficients"][0] == pytest.approx(0.7, abs=1e-5)
    assert fits2["A2*A1"]["coefficients"][0] == pytest.approx(-0.3, abs=1e-5)
    assert abs(fits2["A1*A1"]["coefficients"][0]) < 1e-5
    assert report.final_residual < 1e-7
    assert set(h_rec.support_monos) == {(1,), (1, 2), (2, 1)}
    assert h_rec.form_of((1, 2)).expansion.coeffs[0] == pytest.approx(0.7, abs=1e-5)


def test_peel_from_dumped_json(delta, g16):
    """Full JSON shape round trip: dump the value grid, rebuild the evaluator
    from the parsed dict, peel, compare."""
    cat2 = build_catalog(AB2, 2, PANEL)
    hidden = CuspCollection(AB2, {(1,): delta, (1, 2): form_linear_combination([0.7], [g16])})
    X = psi_evaluator(hidden, 2)
    blob = dump_cocycle_values(X, AB2, 2, PANEL)
    assert {e["gamma"] for e in blob["entries"]} >= {"T", "S", "ST", "TS", "SS"}
    h_rec, report = peel(cocycle_from_json(blob, AB2, 2), cat2)
    assert report.final_residual < 1e-7
    assert set(h_rec.support_monos) == {(1,), (1, 2)}
    for stage in report.degrees:
        assert stage["abelian"]["status"] == "ok"


def test_peel_reads_each_grid_value_once(catalog, delta):
    """peel asks X for each PEEL_VALUE_GRID entry at most once."""
    X0 = psi_evaluator(CuspCollection(AB2, {(1,): delta}), 3)
    calls = Counter()

    def X(gamma, t):
        calls[gamma.entries(), np.asarray(t, dtype=complex).tobytes()] += 1
        return X0(gamma, t)

    peel(X, catalog)
    assert sum(calls.values()) <= len(PEEL_VALUE_GRID)
    assert max(calls.values()) == 1


def test_peel_refuses_x_s_only_file(delta):
    """A file that stores only X_S on one panel is refused, naming X_T, the
    first grid entry it lacks: no check is left out of a peel."""
    cat1 = build_catalog(AB1, 1, PANEL)
    X = psi_evaluator(CuspCollection.from_letters(AB1, [delta]), 1)
    only_s = _values_file("S", PANEL, {"A1": X(S, PANEL)[:, 1]})
    with pytest.raises(UnavailableValue, match="peel needs X_T at t on its panel"):
        peel(cocycle_from_json(only_s, AB1, 1), cat1)


@pytest.mark.parametrize("label, move", PEEL_VALUE_GRID)
def test_peel_refuses_a_missing_grid_entry(delta, label, move):
    """A full dump with one PEEL_VALUE_GRID entry deleted is refused, naming
    that entry, whichever it is."""
    X = psi_evaluator(CuspCollection.from_letters(AB1, [delta]), 1)
    blob = dump_cocycle_values(X, AB1, 1, PANEL)
    del blob["entries"][PEEL_VALUE_GRID.index((label, move))]
    where = "t" if move is None else f"{move} t"
    with pytest.raises(UnavailableValue, match=f"peel needs X_{label} at {where} on its panel"):
        peel(cocycle_from_json(blob, AB1, 1), build_catalog(AB1, 1, PANEL))


def test_peel_refuses_nonfinite_cocycle_value(delta):
    """A NaN in a dumped X_S must stop peel, not pass every `> tol` gate."""
    cat1 = build_catalog(AB1, 1, PANEL)
    blob = dump_cocycle_values(psi_evaluator(CuspCollection.from_letters(AB1, [delta]), 1),
                               AB1, 1, PANEL)
    entry = next(e for e in blob["entries"]
                 if e["gamma"] == "S" and np.allclose(complex(*e["panel"][0]), PANEL[0]))
    entry["values"]["A1"][0] = [float("nan"), 0.0]
    with pytest.raises(PeelError, match="X_S at t: non-finite"):
        peel(cocycle_from_json(blob, AB1, 1), cat1)


def test_peel_refuses_broken_abelian_relation(delta):
    """Shifting the degree-1 value of X_ST alone breaks X_ST = X_S|T * X_T,
    which the degree-1 abelian check must catch."""
    X = psi_evaluator(CuspCollection(AB2, {(1,): delta}), 2)
    blob = dump_cocycle_values(X, AB2, 2, PANEL)
    entry = next(e for e in blob["entries"] if e["gamma"] == "ST")
    entry["values"]["A1"] = [[re + 1e-3, im] for re, im in entry["values"]["A1"]]
    with pytest.raises(PeelError, match="degree 1: abelian cocycle check failed"):
        peel(cocycle_from_json(blob, AB2, 2), build_catalog(AB2, 2, PANEL))


def test_peel_refuses_value_on_zero_cusp_space(delta):
    """S_6 = 0, so a nonzero A2 coefficient of X (A2 of shifted weight 4) is
    outside every reachable cocycle.  Adding the coboundary c (1|gamma - 1)
    on the A2 column keeps X_T = 1 and every abelian relation, so only the
    degree-1 fit can refuse it."""
    X0 = psi_evaluator(CuspCollection(AB2, {(1,): delta}), 2)
    words = GradedWords(AB2, 2)
    a2 = words.index((2,))

    def X(gamma, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        rows = np.asarray(X0(gamma, t), dtype=complex)
        rows[:, a2] += 1e-3 * (slash_factors(words, gamma, t)[:, a2] - 1.0)
        return rows

    with pytest.raises(PeelError, match="relative coefficient .* zero cusp space"):
        peel(X, build_catalog(AB2, 2, PANEL))


def test_compare_recovery_counts_fits_nothing_was_hidden_at():
    """A coefficient peel fits where nothing was hidden is compared against
    hidden zero."""
    report = PeelReport(panel=[], parabolic_check="ok", degrees=[
        {"fits": {"A1": {"coefficients": [1.0]}}},
        {"fits": {"A1*A2": {"coefficients": [0.5]}}},
    ])
    comparison, worst = compare_recovery({(1,): np.array([1.0])}, report)
    assert worst == 0.5
    assert comparison["A1*A2"] == {"hidden": [0.0], "recovered": [0.5], "rel_err": 0.5}


def test_cocycle_from_json_unavailable():
    ev = cocycle_from_json(_values_file("S", PANEL, {"A1": np.ones(5)}), AB1, 1)
    got = ev(S, PANEL)
    assert got.shape == (5, 2)
    got[0, 0] = 77.0  # stored rows must not alias the returned array
    assert ev(S, PANEL)[0, 0] == 1.0
    # a panel within 1e-12 of the stored one reads the stored rows
    assert ev(S, PANEL + 1e-14)[0, 0] == 1.0
    with pytest.raises(UnavailableValue):
        ev(T, PANEL)
    with pytest.raises(UnavailableValue):
        ev(S, PANEL * 1.5)


@pytest.mark.parametrize("data, named", [
    ({"entries": [{"panel": [[0.0, -1.0]], "values": {}}]}, ("entry 0", "gamma")),
    ({"entries": [{"gamma": "S", "panel": [[0.0, -1.0]], "values": {}},
                  {"gamma": "T", "values": {}}]}, ("entry 1", "panel")),
    ({"entries": [{"gamma": "S", "panel": [[0.0, -1.0]]}]}, ("entry 0", "values")),
    ({"entries": [{"gamma": "S", "panel": [[0.0, -1.0]], "values": [1.0]}]},
     ("entry 0", "values")),
    ({"entries": ["S"]}, ("entry 0", "object")),
    ({"S": [[1.0, 0.0]] * 5}, ("field 'entries'",)),
    ([{"S": {}}], ("JSON object",)),
    ({"entries": [{"gamma": "S", "panel": [[1.0]], "values": {}}]}, ("entry 0", "panel")),
    ({"entries": [{"gamma": "S", "panel": [["a", "b"]], "values": {}}]},
     ("entry 0", "panel")),
    ({"entries": 5}, ("entries", "list")),
    ({"entries": [{"gamma": "S", "panel": [[0.0, -1.0]], "values": {"A1": [["a", "b"]]}}]},
     ("S/A1", "pair")),
    ({"entries": [{"gamma": 5, "panel": [[0.0, -1.0]], "values": {}}]}, ("entry 0", "gamma")),
    ({"entries": [{"gamma": "m:1,0,0", "panel": [[0.0, -1.0]], "values": {}}]},
     ("entry 0", "m:1,0,0")),
    ({"entries": [{"gamma": "m:2,0,0,1", "panel": [[0.0, -1.0]], "values": {}}]},
     ("entry 0", "m:2,0,0,1")),
    ({"entries": [{"gamma": "X", "panel": [[0.0, -1.0]], "values": {}}]}, ("entry 0", "'X'")),
    ({"entries": [{"gamma": "S", "panel": [[0.0, -1.0]], "values": {"A": [[1.0, 0.0]]}}]},
     ("entry 0", "'A'")),
    ({"entries": [{"gamma": "S", "panel": [[0, 1]], "values": {}}]},
     ("entry 0", "lower half plane")),
    # a dump of another degree, refused by name rather than by peel's abelian check
    ({"degree": 2, "entries": []}, ("dumped at degree 2", "read at degree 1")),
    # a bare pair is not a list of pairs, even for a one-point panel
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [2.0, 0.5]}}]},
     ("S/A1", "pair")),
    # only JSON numbers are numbers: not strings, not bools
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [["0.5", "0"]]}}]},
     ("S/A1", "point 0", "'0.5'")),
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [[True, 0.5]]}}]},
     ("S/A1", "point 0", "True")),
    ({"entries": [{"gamma": "S", "panel": [[0, "-1"]], "values": {}}]},
     ("entry 0", "panel", "'-1'")),
    ({"entries": [{"gamma": "S", "panel": [[False, -1]], "values": {}}]},
     ("entry 0", "panel", "False")),
    # an int JSON reads exactly, too large for a float
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [[10**400, 0]]}}]},
     ("S/A1", "overflows")),
    # only a JSON int is a degree: not a bool, not a float
    ({"degree": True, "entries": []}, ("field 'degree'", "True")),
    ({"degree": 1.0, "entries": []}, ("field 'degree'", "1.0")),
    # two entries for one gamma (up to sign) on one panel: neither wins silently
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [[1, 0]]}},
                  {"gamma": "T", "panel": [[0, -1]], "values": {}},
                  {"gamma": "m:0,1,-1,0", "panel": [[0, -1]], "values": {"A1": [[9, 9]]}}]},
     ("entry 2", "'m:0,1,-1,0'", "entry 0", "'S'")),
    # panels the reader cannot tell apart (within its 1e-12 match) are one panel
    ({"entries": [{"gamma": "S", "panel": [[0, -1]], "values": {"A1": [[1, 0]]}},
                  {"gamma": "S", "panel": [[1e-14, -1]], "values": {"A1": [[9, 9]]}}]},
     ("entry 1", "'S'", "repeats entry 0", "on its panel")),    # two spellings of one monomial: neither column wins silently
    ({"entries": [{"gamma": "S", "panel": [[0, -1]],
                   "values": {"A1": [[1, 0]], "A01": [[9, 9]]}}]},
     ("entry 0", "keys 'A1' and 'A01'", "monomial A1")),
])
def test_cocycle_from_json_names_malformed_entry(data, named):
    with pytest.raises(ValueError) as err:
        cocycle_from_json(data, AB1, 1)
    for text in named:
        assert text in str(err.value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=12)
_PAIRS = st.lists(st.lists(st.floats(allow_nan=False, min_value=-2.0, max_value=2.0),
                           min_size=2, max_size=2), min_size=1, max_size=2)
_ENTRY = st.fixed_dictionaries({}, optional={
    "gamma": st.sampled_from(["S", "T", "ST^-1", "m:1,1,0,1", "m:1,0,0", "X"]) | _JSON,
    "panel": _PAIRS | _JSON,
    "values": st.dictionaries(st.sampled_from(["1", "A1", "A2", "A", "A1*A1"]) | st.text(max_size=4),
                              _PAIRS | _JSON, max_size=3) | _JSON,
})


@given(st.fixed_dictionaries({"entries": st.lists(_ENTRY | _JSON, max_size=3) | _JSON})
       | st.dictionaries(st.sampled_from(["S", "T", "Q"]) | st.text(max_size=4), _JSON, max_size=3)
       | _JSON)
@example("")
@example(".")
def test_cocycle_from_json_fuzz_raises_only_value_error(data):
    """Whatever JSON-shaped input arrives, a malformed file surfaces as a
    ValueError and nothing else."""
    try:
        cocycle_from_json(data, AB1, 1)
    except ValueError:
        pass


def test_peel_panel_too_small(delta):
    small = np.array([-0.8j, -1.5j])
    cat = build_catalog(AB2, 3, small)  # A1*A1*A1 has dim 2, needs 4 points
    X = psi_evaluator(CuspCollection(AB2, {(1,): delta}), 3)
    with pytest.raises(ConfigError, match="panel too small"):
        peel(X, cat)


def test_peel_rejects_broken_parabolic(catalog):
    words = GradedWords(AB2, 3)

    def X(gamma, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        rows = np.zeros((len(t), words.total), dtype=complex)
        rows[:, 0] = 1.0
        if gamma.c == 0 and abs(gamma.b) > 0:
            rows[:, 1] = 0.25
        return rows

    with pytest.raises(PeelError, match="parabolic"):
        peel(X, catalog)


def test_peel_rejects_coboundary_component(catalog, delta):
    """A constant-polynomial coboundary on the A1 slot passes the parabolic
    and abelian checks exactly but is outside the period span: the degree-1
    fit must refuse it."""
    h = CuspCollection(AB2, {(1,): delta})
    X0 = psi_evaluator(h, 3)
    words = GradedWords(AB2, 3)

    def X(gamma, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        rows = np.asarray(X0(gamma, t), dtype=complex)
        fac = slash_factors(words, gamma, t)[:, 1]
        rows[:, 1] += 0.01 * (fac - 1.0)
        return rows

    with pytest.raises(PeelError, match="fit residual"):
        peel(X, catalog)


def test_injectivity_probe(delta, g16):
    s22 = level_one_basis(22)[0]
    h = CuspCollection(AB1, {(1,): delta, (1, 1): s22})
    same = CuspCollection(AB1, {(1,): delta, (1, 1): s22})
    rep = injectivity_probe(h, same, PANEL)
    assert rep["separated"] is False
    assert rep["first_differing_degree"] is None

    hp1 = CuspCollection(AB1, {(1,): form_linear_combination([2.0], [delta]), (1, 1): s22})
    rep1 = injectivity_probe(h, hp1, PANEL)
    assert rep1["first_differing_degree"] == 1
    assert rep1["separated"] is True
    assert rep1["panel_size"] == 8  # extended for the coboundary fit

    hp2 = CuspCollection(AB1, {(1,): delta})
    rep2 = injectivity_probe(h, hp2, PANEL)
    assert rep2["first_differing_degree"] == 2
    assert rep2["separated"] is True

    with pytest.raises(ValueError):
        injectivity_probe(h, CuspCollection(AB2, {(1,): delta}), PANEL)


def test_injectivity_probe_reads_eta_letters_raw():
    """An eta^4 letter admits no coboundary direction at degree one, so the
    difference is read as it stands, on the panel as given."""
    ab = Alphabet((Letter.eta(4),))
    f = eta_form(4)
    h = CuspCollection(ab, {(1,): f})
    hp = CuspCollection(ab, {(1,): form_linear_combination([1.001], [f])})
    assert _degree_one_coboundaries(GradedWords(ab, 1), 1, PANEL[:3]) is None
    rep = injectivity_probe(h, hp, PANEL[:3])
    assert rep["first_differing_degree"] == 1
    assert rep["separated"] is True
    assert rep["panel_size"] == 3


def test_fit_reads_a_complex_multiple_as_two_real_coefficients():
    """The pair (q, iq) spans the complex multiples of q: the fit returns the
    real and imaginary part of the multiple, a misfit relative to the rhs,
    and the condition number of the scaled stacked columns."""
    q = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, 6))
    A = np.stack([q, 1j * q], axis=1)
    coef, resid, cond = _fit(A, (0.7 - 2.5j) * q)
    assert np.allclose(coef, [0.7, -2.5], rtol=0, atol=1e-14)
    assert resid < 1e-15
    assert cond == pytest.approx(1.0)  # the stacked columns are orthogonal, of equal norm
    off = np.conj(q) * 1j ** np.arange(6)
    _, resid_off, _ = _fit(A, (0.7 - 2.5j) * q + off)
    assert resid_off > 1e-2
    scaled, _, cond_scaled = _fit(np.stack([q, 1e8 * q ** 2], axis=1), q + q ** 2)
    assert np.allclose(scaled, [1.0, 1e-8], rtol=1e-12, atol=0)
    B = np.stack([q, q ** 2], axis=1)
    Bn = np.concatenate([B.real, B.imag])
    assert cond_scaled == pytest.approx(np.linalg.cond(Bn / np.linalg.norm(Bn, axis=0)), rel=1e-12)


def test_extend_panel():
    out = _extend_panel(PANEL, 9)
    assert len(out) == 9
    assert np.array_equal(out[:5], PANEL)
    assert np.all(out.imag < 0)
    again = _extend_panel(PANEL, 9)
    assert out.tobytes() == again.tobytes()
    assert len(np.unique(np.round(out, 12))) == 9
