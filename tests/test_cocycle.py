"""Cocycle construction and the verification battery at small degree."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncperiods.cocycle import (
    CuspCollection,
    apply_to_endpoint,
    eta_example_check,
    j_rows_direct,
    psi,
    psi_evaluator,
    rows_inv,
    rows_mul,
    rows_slash,
    untwist_rows,
    verify_base_point_independence,
    verify_cocycle,
    verify_equivariance,
    verify_multiplicativity,
)
from ncperiods.config import DEFAULT_PANEL
from ncperiods.iterint import Endpoint, QuadConfig, report_passes, vertical_J
from ncperiods.modforms import CuspForm, QSeries, eta_form, form_linear_combination, level_one_basis
from ncperiods.ncpoly import Alphabet, GradedWords, Letter
from ncperiods.reconstruct import PEEL_VALUE_GRID, _grid_values, dump_cocycle_values
from ncperiods.sl2z import I2, S, T, parse_gamma_label, parse_word, word_product

PANEL = np.array([-0.7j, -0.4 - 0.6j])
Z0 = 2.0j


def _one_letter(delta):
    ab = Alphabet((Letter.trivial(10),))
    return CuspCollection.from_letters(ab, [delta])


def test_collection_validation(delta, g16):
    ab = Alphabet((Letter.trivial(10),))
    with pytest.raises(ValueError):
        CuspCollection(ab, {(1,): g16})  # weight 16 form on a weight-12 slot
    with pytest.raises(ValueError):
        CuspCollection(ab, {(): delta})  # empty monomial
    with pytest.raises(ValueError):
        CuspCollection(ab, {(2,): delta})  # letter out of range
    with pytest.raises(ValueError):
        CuspCollection(ab, (((1,), delta), ((1,), delta)))  # duplicate
    from fractions import Fraction as _F

    from ncperiods.modforms import cusp_space_basis
    from ncperiods.ncpoly import MultiplierSpec

    # monomial (1,1) over an eta^12 letter has eta power 24 = trivial; a
    # weight-matching eta^20 form must be rejected on its multiplier
    ab3 = Alphabet((Letter.eta(12),))
    f20 = cusp_space_basis(_F(8), MultiplierSpec.eta_power(20))[0]
    with pytest.raises(ValueError):
        CuspCollection(ab3, {(1, 1): f20})
    # zero forms are dropped from the support
    import numpy as _np

    zero = CuspForm(_F(10), delta.multiplier, QSeries(_F(1), _np.zeros(5, complex)))
    h = CuspCollection(ab, {(1,): zero})
    assert h.support == ()


def test_collection_digest_keys_on_the_forms(delta, g16):
    """Equal collections, however their support is spelled, share a digest;
    a changed form changes it."""
    ab = Alphabet((Letter.trivial(10), Letter.trivial(14)))
    h = CuspCollection.from_letters(ab, [delta, g16])
    assert CuspCollection(ab, {(2,): g16, (1,): delta}).digest == h.digest
    doubled = CuspCollection.from_letters(ab, [delta, form_linear_combination([2.0], [g16])])
    assert doubled.digest != h.digest


def test_block_splits(delta):
    s22 = level_one_basis(22)[0]
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection(ab, {(1,): delta, (1, 1): s22})
    assert h.form_of((1, 1)) == s22
    assert h.form_of((1, 1, 1)) is None


@st.composite
def row_pairs(draw):
    """Words over 1-3 letters up to degree 0-4, and two (n_t, n_words)
    coefficient arrays of 1-8 rows with constant term 1."""
    ell = draw(st.integers(1, 3))
    D = draw(st.integers(0, 4))
    words = GradedWords(Alphabet(tuple(Letter.trivial(2 * j) for j in range(1, ell + 1))), D)
    n = draw(st.integers(1, 8))
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    A, B = (draw(arrays(complex, (n, words.total), elements=coeff)) for _ in range(2))
    A[:, 0] = B[:, 0] = 1.0
    return words, A, B


def _concat_reference(words, x, y):
    """out[u+v] += x[u] y[v] over word pairs with |u| + |v| <= D, by dicts."""
    xd = {words.word(i): x[i] for i in range(words.total)}
    yd = {words.word(i): y[i] for i in range(words.total)}
    out = dict.fromkeys(xd, 0j)
    for u, xu in xd.items():
        for v, yv in yd.items():
            if len(u) + len(v) <= words.D:
                out[u + v] += xu * yv
    return np.array([out[words.word(i)] for i in range(words.total)])


@given(row_pairs())
def test_rows_kernel_matches_dict_reference(case):
    words, A, B = case
    prod = rows_mul(words, A, B)
    assert prod.shape == A.shape and prod.dtype == complex
    for r in range(len(A)):
        want = _concat_reference(words, A[r], B[r])
        assert np.max(np.abs(prod[r] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    inv = rows_inv(words, A)
    assert inv.dtype == complex
    unit = np.zeros_like(A)
    unit[:, 0] = 1.0
    # the residual cancels terms as large as the product of the factor sizes
    scale = max(1.0, np.max(np.abs(inv))) * max(1.0, np.max(np.abs(A)))
    assert np.max(np.abs(rows_mul(words, inv, A) - unit)) <= 1e-13 * scale
    assert np.max(np.abs(rows_mul(words, A, inv) - unit)) <= 1e-13 * scale


def test_psi_evaluator_refuses_nonfinite_base_point(delta):
    """A NaN z0 is refused by its ray solve, naming it, not by a failed
    lookup of its solve (NaN keys never compare equal)."""
    ev = psi_evaluator(_one_letter(delta), 2, complex(0.0, float("nan")))
    with pytest.raises(ValueError, match="nan"):
        ev(S, PANEL)


def test_psi_parabolic_unit(delta):
    h = _one_letter(delta)
    for g in (T, I2, parse_word("TT"), T.inv()):
        rows = psi(h, g, Z0, PANEL, 2)
        assert np.allclose(rows[:, 0], 1.0)
        assert np.max(np.abs(rows[:, 1:])) == 0.0


@pytest.mark.parametrize("bad", [[complex("nan+1j"), 0.5 - 2j], [0.5 - 2j, 0.5 + 2j], []])
def test_parabolic_read_keeps_the_panel_rule(delta, bad):
    """A c = 0 read needs no ray, but its panel is refused as a c != 0 read's
    is: a NaN, an upper-half-plane point or no point at all, by read and by
    plan alike."""
    ev = psi_evaluator(_one_letter(delta), 1)
    for gamma in (T, I2):
        with pytest.raises(ValueError, match="panel"):
            ev(gamma, bad)
        with pytest.raises(ValueError, match="panel"):
            ev.plan([(gamma, bad)])


@pytest.fixture
def ray_calls(monkeypatch):
    """The (base point, panel) of every vertical_J call the cocycle module
    makes while the test runs."""
    import ncperiods.cocycle as cocycle

    solve = cocycle.vertical_J
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cocycle, "vertical_J", counting)
    return calls


def test_evaluator_solves_each_ray_once(delta, ray_calls):
    """Psi_ST(t) and Psi_S(T t) share the ray J(z0) at ST t: one evaluator
    solves it once, so the pair costs three vertical solves, not four."""
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    P = psi_evaluator(_one_letter(delta), 2, Z0)
    P(parse_word("ST"), panel)
    P(S, T.mobius(panel))
    assert len(ray_calls) == 3


def test_planned_grid_solves_each_base_point_once(delta, ray_calls):
    """PEEL_VALUE_GRID reads rays from four base points, z0 = 2i, S^-1 z0,
    (ST)^-1 z0 and (TS)^-1 z0: a planned evaluator solves each once, on the
    union of its panels, and reads then hit the memo.  The values agree with
    on-demand reads, which solve every panel on its own, to the ray's rtol."""
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    h = _one_letter(delta)
    P = psi_evaluator(h, 2, Z0)
    planned = _grid_values(P, panel)
    assert len(ray_calls) == 4
    assert [z for z, _ in ray_calls] == [Z0, S.inv().mobius(Z0),
                                         parse_word("ST").inv().mobius(Z0),
                                         parse_word("TS").inv().mobius(Z0)]
    again = _grid_values(P, panel)
    assert len(ray_calls) == 4  # a second read on the same evaluator solves nothing
    for key in planned:
        assert np.array_equal(again[key], planned[key])

    dump = dump_cocycle_values(psi_evaluator(h, 2, Z0), h.alphabet, 2, panel)
    assert len(ray_calls) == 8
    assert [entry["gamma"] for entry in dump["entries"]] == [g for g, _ in PEEL_VALUE_GRID]

    rtol = QuadConfig().rtol
    on_demand = psi_evaluator(h, 2, Z0)
    for label, move in PEEL_VALUE_GRID:
        pts = panel if move is None else parse_word(move).mobius(panel)
        want = on_demand(parse_gamma_label(label), pts)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(planned[label, move] - want)) <= 10 * rtol * scale, (label, move)
    assert len(ray_calls) == 8 + 9  # on demand: one solve per (base point, panel)


_TOKENS = st.lists(st.sampled_from(["S", "T", "T^-1"]), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_TOKENS, _TOKENS)
def test_cocycle_relation_on_random_words(delta, gtoks, dtoks):
    """Psi_{gamma delta} = (Psi_gamma|delta) Psi_delta at D=2 for random words
    gamma, delta, with a degree-2 form on the support, from on-demand reads
    (verify_cocycle) and from a planned evaluator.  Base points low in the
    upper half plane cannot certify their form tails, and far-moved panels
    raise the cutoff height, so both are kept bounded.  The right side
    multiplies terms that can reach 1e8 and cancel to 1 (gamma = S,
    delta = ST^2), so each residual is taken against the size of the product
    of its factors."""
    gamma, dlt = word_product(gtoks), word_product(dtoks)
    assume(gamma.c != 0 or dlt.c != 0)  # both upper triangular: every term is 1
    for g in (gamma, dlt, gamma * dlt):
        assume(g.inv().mobius(Z0).imag >= 0.3)
    assume(np.max(np.abs(dlt.mobius(PANEL))) <= 3.0)
    assume(np.max(np.abs((gamma * dlt).mobius(PANEL))) <= 3.0)
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection(ab, {(1,): delta, (1, 1): level_one_basis(22)[0]})
    words = h.words(2)

    P = psi_evaluator(h, 2, Z0)
    P.plan([(gamma * dlt, PANEL), (gamma, dlt.mobius(PANEL)), (dlt, PANEL)])
    slashed = rows_slash(words, P(gamma, dlt.mobius(PANEL)), dlt, PANEL)
    lhs, psi_d = P(gamma * dlt, PANEL), P(dlt, PANEL)
    scale = max(1.0, float(np.max(np.abs(lhs))),
                float(np.max(np.abs(slashed))) * float(np.max(np.abs(psi_d))))
    assert np.max(np.abs(lhs - rows_mul(words, slashed, psi_d))) <= 1e-7 * scale

    rep = verify_cocycle(h, gamma, dlt, Z0, PANEL, 2)
    assert rep["max"] <= 1e-7 * scale, rep


def test_psi_degree_zero_is_one(delta):
    h = _one_letter(delta)
    rows = psi(h, S, Z0, PANEL, 2)
    assert np.max(np.abs(rows[:, 0] - 1.0)) < 1e-10
    assert np.max(np.abs(rows[:, 1])) > 1e-8  # genuinely nontrivial at degree 1


def test_verify_cocycle_pairs(delta):
    h = _one_letter(delta)
    for pair in [(S, T), (T, S), (S, S)]:
        rep = verify_cocycle(h, pair[0], pair[1], Z0, PANEL, 2)
        assert rep["max"] < 1e-7, pair
        assert rep["identity"] == "cocycle"
        assert rep["per_degree_max"][0] == 0.0


def test_verify_multiplicativity(delta):
    s22 = level_one_basis(22)[0]
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection(ab, {(1,): delta, (1, 1): s22})
    rep = verify_multiplicativity(h, Endpoint.point(1.9j), Endpoint.point(0.4 + 1.1j),
                                  Endpoint.point(-0.6 + 0.9j), PANEL, 2)
    assert rep["max"] < 1e-8


def test_verify_equivariance(delta):
    h = _one_letter(delta)
    rep = verify_equivariance(h, S, None, 0, PANEL, 2)
    assert rep["max"] < 1e-7
    rep_t = verify_equivariance(h, T, None, 0, PANEL, 2)
    assert rep_t["max"] < 1e-7
    rep_ts = verify_equivariance(h, parse_word("TS"), None, 0, PANEL, 2)
    assert rep_ts["max"] < 1e-7


_INTERIOR = st.builds(complex, st.floats(-0.6, 0.6), st.floats(0.8, 2.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 23), min_size=1, max_size=2), _TOKENS,
       st.one_of(st.just((None, 0)), st.tuples(_INTERIOR, _INTERIOR)))
def test_equivariance_over_eta_alphabets(powers, toks, ends):
    """(J(y,x)|gamma)(t) = J(gamma^-1 y, gamma^-1 x)(t) at D=2 over one- and
    two-letter eta^N alphabets, whose kernels carry half-integer powers and
    the multiplier eps^N, for random words gamma and the path oo -> 0 or one
    between two interior points."""
    ab = Alphabet(tuple(Letter.eta(N) for N in powers))
    h = CuspCollection.from_letters(ab, [eta_form(N) for N in powers])
    rep = verify_equivariance(h, word_product(toks), *ends, PANEL, 2)
    assert report_passes(rep, 1e-7), rep


def test_base_point_independence(delta):
    h = _one_letter(delta)
    rep = verify_base_point_independence(h, S, 2.0j, 0.3 + 1.4j, PANEL, 2)
    assert rep["max"] < 1e-7


def _j_between(h, y, x, t, D):
    """J(h; y, x; t) rows for interior points y, x, via the common base at oo:
    J(y, oo) J(x, oo)^-1 from two vertical solves."""
    words = h.words(D)
    return rows_mul(words, vertical_J(h, complex(y), t, D),
                    rows_inv(words, vertical_J(h, complex(x), t, D)))


def _phi_twist(h, gamma, z, t, D):
    """The interior-based cocycle Phi^z_gamma = J(gamma^-1 z, z) rows."""
    return _j_between(h, gamma.inv().mobius(complex(z)), z, t, D)


def test_j_between_consistency(delta):
    """The ray between two interior points from two vertical solves agrees
    with j_rows_direct (layered quadrature), over Delta at D=2 and over
    eta^3, whose letter has the fractional weight -1/2, at D=3."""
    eta3 = CuspCollection.from_letters(Alphabet((Letter.eta(3),)), [eta_form(3)])
    y, x = 0.2 + 1.6j, -0.5 + 1.1j
    for h, D in ((_one_letter(delta), 2), (eta3, 3)):
        a = _j_between(h, y, x, PANEL, D)
        b = j_rows_direct(h, y, x, PANEL, D)
        assert np.max(np.abs(a - b)) < 1e-8, h.alphabet


def test_untwist_round_trip(delta):
    """Phi^{z1} conjugated back equals Phi^{z0}: n = J(z1, z0)."""
    h = _one_letter(delta)
    words = h.words(2)
    z0, z1 = 1.8j, 0.4 + 1.2j
    phi0 = _phi_twist(h, S, z0, PANEL, 2)
    phi1 = _phi_twist(h, S, z1, PANEL, 2)
    n_t = _j_between(h, z1, z0, PANEL, 2)
    n_gt = _j_between(h, z1, z0, S.mobius(PANEL), 2)
    back = untwist_rows(words, phi1, n_t, n_gt, S, PANEL)
    assert np.max(np.abs(back - phi0)) < 1e-7


def test_untwist_unit_is_noop(delta):
    h = _one_letter(delta)
    words = h.words(2)
    phi = _phi_twist(h, S, 1.5j, PANEL, 2)
    unit = np.zeros_like(phi)
    unit[:, 0] = 1.0
    back = untwist_rows(words, phi, unit, unit, S, PANEL)
    assert np.max(np.abs(back - phi)) < 1e-12


def test_eta_example_small():
    h = CuspCollection.from_letters(Alphabet((Letter.eta(4),)), [eta_form(4)])
    rep = eta_example_check(h, Z0, PANEL, 2)
    assert rep["product_relation_max"] < 1e-7
    assert rep["involution_relation_max"] < 1e-7
    assert rep["max"] < 1e-7


def test_apply_to_endpoint():
    assert apply_to_endpoint(S, Endpoint.cusp(None)).cusp_value == 0
    assert apply_to_endpoint(S, Endpoint.cusp(0)).is_infinity
    assert apply_to_endpoint(T, Endpoint.cusp(None)).is_infinity
    e = apply_to_endpoint(T, Endpoint.cusp(0))
    assert e.cusp_value == 1
    p = apply_to_endpoint(S, Endpoint.point(2.0j))
    assert p.z == pytest.approx(S.mobius(2.0j))
