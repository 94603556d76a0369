"""Iterated integrals: layered quadrature oracle checks, path composition,
and agreement between the two independent routes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import chebyshev

from ncperiods import iterint
from ncperiods.cocycle import CuspCollection, j_rows_direct
from ncperiods.iterint import (
    Endpoint,
    IterIntError,
    QuadConfig,
    build_path,
    cusp_frame,
    cutoff_height,
    identity_report,
    path_split_check,
    r_direct,
    report_passes,
    vertical_J,
    zt_pow,
)
from ncperiods.mlv import double_period_polynomial
from ncperiods.modforms import eta_form, level_one_basis
from ncperiods.ncpoly import Alphabet, GradedWords, Letter, nc_mul, series_block
from ncperiods.quadrature import MAX_PANELS, QuadratureError

PANEL = np.array([-0.7j, -0.4 - 0.6j])


def _upper_gamma(m: int, x: float) -> float:
    """Gamma(m+1, x) for integer m >= 0, closed form."""
    return math.factorial(m) * math.exp(-x) * sum(x**j / math.factorial(j) for j in range(m + 1))


def test_single_integral_against_series_oracle(delta):
    """R_1(Delta; oo, i y0; t) summed term by term from the q-expansion:
    each q^n contributes binomial * i^(k+1) Gamma(k+1, 2 pi n y0) / (2 pi n)^(k+1)."""
    y0 = 0.9
    w = 10
    got = r_direct([delta], None, Endpoint.point(1j * y0), PANEL)
    want = np.zeros_like(PANEL, dtype=complex)
    for j, a in enumerate(delta.expansion.coeffs):
        n = j + 1  # kappa = 1
        x = 2 * math.pi * n * y0
        if x > 120:
            break
        for k in range(w + 1):
            term = (
                math.comb(w, k)
                * (-PANEL) ** (w - k)
                * 1j ** (k + 1)
                * _upper_gamma(k, x)
                / (2 * math.pi * n) ** (k + 1)
            )
            want += a.real * term
    assert np.max(np.abs(got - want)) < 1e-10


def test_empty_and_degenerate():
    assert np.array_equal(r_direct([], None, 0, PANEL), np.ones(2, dtype=complex))
    e = Endpoint.point(1.7j)
    got = r_direct([level_one_basis(12)[0]], e, e, PANEL)
    assert np.array_equal(got, np.zeros(2, dtype=complex))


def test_orientation_antisymmetry(delta):
    a, b = Endpoint.point(0.3 + 1.1j), Endpoint.point(-0.2 + 1.6j)
    fwd = r_direct([delta], a, b, PANEL)
    bwd = r_direct([delta], b, a, PANEL)
    assert np.max(np.abs(fwd + bwd)) < 1e-11


def test_path_independence_cusp_vs_point_chain(delta):
    """oo -> x equals (oo -> mid) + (mid -> x) with independent quadratures."""
    x = Endpoint.point(0.4 + 0.9j)
    mid = Endpoint.point(-1.0 + 2.3j)
    whole = r_direct([delta], None, x, PANEL)
    parts = r_direct([delta], None, mid, PANEL) + r_direct([delta], mid, x, PANEL)
    assert np.max(np.abs(whole - parts)) < 1e-11


def test_path_split_orders_2_and_3(delta, g16):
    rep2 = path_split_check([delta, g16], Endpoint.point(1.9j), Endpoint.point(0.5 + 1.2j),
                            Endpoint.point(-0.4 + 0.8j), PANEL)
    assert rep2["order"] == 2
    assert rep2["max"] < 1e-8
    rep3 = path_split_check([delta, delta, delta], Endpoint.point(2.1j),
                            Endpoint.point(0.3 + 1.4j), Endpoint.point(1.0j), PANEL)
    assert rep3["order"] == 3
    assert rep3["max"] < 1e-8


def test_identity_report_and_pass_rule():
    words = GradedWords(Alphabet((Letter.trivial(10), Letter.trivial(4))), 2)
    lhs = np.zeros((2, words.total), dtype=complex)
    lhs[:, 0] = 1.0
    lhs[1, words.index((1, 2))] = 3e8
    rhs = lhs.copy()
    rhs[0, words.index((2,))] = 1e-9
    rhs[1, words.index((1, 2))] = 3e8 + 2.0
    rep = identity_report("demo", lhs, rhs, PANEL, words, extra=1)
    assert rep["max"] == 2.0 and rep["scale"] == 3e8 + 2.0
    assert rep["degree"] == 2 and rep["per_degree_max"] == [0.0, 1e-9, 2.0]
    assert rep["panel"] == [[0.0, -0.7], [-0.4, -0.6]] and rep["extra"] == 1
    assert report_passes(rep, 1e-8) and not report_passes(rep, 1e-9)
    # small sides are judged on the absolute residual, NaN never passes
    assert not report_passes(identity_report("demo", [0.5], [0.5 + 1e-6], PANEL[:1]), 1e-7)
    assert not report_passes(identity_report("demo", [np.nan], [1.0], PANEL[:1]), 1.0)


@pytest.mark.parametrize("atol", [0.0, -1e-11, float("nan")])
def test_cutoff_refuses_nonpositive_atol(delta, atol):
    """atol <= 0 would put the cutoff at infinity: the ray would never run and
    Psi would read exactly 1."""
    with pytest.raises(ValueError, match="atol must be > 0"):
        cutoff_height([delta], 10, PANEL, atol)
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])
    with pytest.raises(ValueError, match="atol must be > 0"):
        vertical_J(h, 2j, PANEL, 2, QuadConfig(atol=atol))


def test_dual_route_agreement(delta, g16):
    """vertical_J (ODE down the ray) against j_rows_direct (layered quadrature
    per degree): two fully independent computations of J(h; z0, oo; t)."""
    ab = Alphabet((Letter.trivial(10), Letter.trivial(14)))
    h = CuspCollection.from_letters(ab, [delta, g16])
    z0 = 0.25 + 1.3j
    ode = vertical_J(h, z0, PANEL, 2)
    quad = j_rows_direct(h, z0, None, PANEL, 2)
    assert ode.shape == quad.shape == (2, 7)
    assert np.max(np.abs(ode - quad)) < 1e-8


def test_dual_route_agreement_multi_prefix(delta):
    """A collection supported on words of degree 1, 2 and 3: a degree-3 word
    has three supported prefixes, so the layered route sums several terms in
    one integrand.  Checked against the ray ODE."""
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection(ab, {(1,): delta, (1, 1): level_one_basis(22)[0],
                            (1, 1, 1): level_one_basis(32)[0]})
    z0 = 0.25 + 1.3j
    ode = vertical_J(h, z0, PANEL, 3)
    quad = j_rows_direct(h, z0, None, PANEL, 3)
    assert np.max(np.abs(ode - quad)) <= 1e-12 * np.max(np.abs(ode))


@pytest.mark.parametrize("N", [1, 3, 5])
def test_dual_route_agreement_fractional_weight(N):
    """A one-letter eta^N collection has the half-integer weight N/2 - 2, so
    the ray's kernel takes the general complex power, not repeated squaring.
    Checked against the layered route at D=3."""
    h = CuspCollection.from_letters(Alphabet((Letter.eta(N),)), [eta_form(N)])
    z0 = 0.25 + 1.3j
    ode = vertical_J(h, z0, PANEL, 3)
    quad = j_rows_direct(h, z0, None, PANEL, 3)
    assert np.max(np.abs(ode - quad)) <= 1e-12 * max(1.0, np.max(np.abs(ode)))


def test_panel_maps_follow_the_node_count():
    """The ray's import-time Chebyshev maps, at whatever _NODES is: values to
    coefficients inverts the Chebyshev Vandermonde matrix on the nodes, the
    integral map is exact from -1 on every polynomial the nodes resolve, and
    the sweep matrices stack those integrals over twice the tail rows."""
    n = iterint._NODES
    V = chebyshev.chebvander(iterint._CHEB_X, n - 1)  # column j: T_j at the nodes
    assert np.allclose(iterint._VALS_TO_COEFS @ V, np.eye(n), rtol=0, atol=1e-13)
    exact = chebyshev.chebval(iterint._CHEB_X, chebyshev.chebint(np.eye(n), lbnd=-1)).T
    assert np.allclose(iterint._CHEB_INT @ V, exact, rtol=0, atol=1e-13)
    assert iterint._SWEEP.shape == (n + 2, n)
    assert np.array_equal(iterint._SWEEP[:-2], iterint._CHEB_INT)
    assert np.array_equal(iterint._SWEEP[-2:], 2 * iterint._CHEB_TAIL)
    assert np.array_equal(iterint._SWEEP_TOP, iterint._SWEEP[[n - 1, n, n + 1]])


def _count_builds(monkeypatch):
    """Record each adaptive build of the layered route, its rounds and the
    size of each form evaluation."""
    counts = {"builds": [], "rounds": [], "evals": []}
    real_pw = iterint.adaptive_pw
    real_eval = iterint.eval_forms

    def counting_pw(fun, a, b, tol):
        counts["builds"].append(np.atleast_1d(b))

        def counted(s):
            counts["rounds"].append(1)
            return fun(s)
        return real_pw(counted, a, b, tol)

    def counting_eval(forms, *args, **kwargs):
        counts["evals"].append(len(forms))
        return real_eval(forms, *args, **kwargs)

    monkeypatch.setattr(iterint, "adaptive_pw", counting_pw)
    monkeypatch.setattr(iterint, "eval_forms", counting_eval)
    return counts


def test_one_build_per_degree_along_the_path(monkeypatch, delta, g16):
    """The layered route integrates all words of one degree as one vector
    integrand in one adaptive build over the whole path, segment i the
    parameter interval [i, i + 1], reading the continuous antiderivatives of
    the lower degrees: D builds, not one per word or per segment; and each
    adaptive round makes one form evaluation for every segment and the whole
    support."""
    counts = _count_builds(monkeypatch)
    ab = Alphabet((Letter.trivial(10), Letter.trivial(14)))
    h = CuspCollection.from_letters(ab, [delta, g16])
    y, x = Endpoint.point(0.5 + 1.3j), Endpoint.point(-0.3 + 0.8j)
    j_rows_direct(h, y, x, PANEL, 3)
    segments = len(build_path(x, y, cutoff=0.0))
    assert segments == 3
    assert len(counts["builds"]) == 3
    assert all(np.array_equal(b, [1.0, 2.0, 3.0]) for b in counts["builds"])
    assert len(counts["evals"]) == len(counts["rounds"])
    assert set(counts["evals"]) == {len(h.support)}


def test_catalog_path_one_build_per_level(monkeypatch, delta, g16):
    """r_direct from the cusp 0 to oo, the catalog's path, crosses a framed
    segment (the leg at 0, in the frame coordinate of cusp_frame(0)) inside
    the same build as the vertical legs: one build per level, one form
    evaluation per round, and the order-2 value is the double period
    polynomial the moments route gives."""
    path = build_path(Endpoint.cusp(Fraction(0)), Endpoint.cusp(None), cutoff=10.0)
    assert [seg.frame != iterint.I2 for seg in path] == [True, False, False]
    counts = _count_builds(monkeypatch)
    got = r_direct([delta, g16], None, Fraction(0), PANEL)
    assert len(counts["builds"]) == 2
    assert all(np.array_equal(b, [1.0, 2.0, 3.0]) for b in counts["builds"])
    assert len(counts["evals"]) == len(counts["rounds"])
    want = double_period_polynomial(delta, g16)(PANEL)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_layered_refusal_names_degree_and_segment():
    """A refusal of the layered route names the degree and the path segment
    whose build stopped, and keeps the per-segment MAX_PANELS limit (the
    case has no evaluation noise floor yet: S50.1 near the real axis carries
    rounding noise above quad_tol, so its degree-3 build on the last
    segment splits until the budget runs out)."""
    s = {k: level_one_basis(k)[0] for k in (18, 34, 50)}
    h = CuspCollection(Alphabet((Letter.trivial(16),)),
                       {(1,): s[18], (1, 1): s[34], (1, 1, 1): s[50]})
    t = np.array([-0.325 - 0.804j, -0.587 - 1.196j])
    message = (r"degree 3, path segment 2 of 3 \(frame \[\[1,0\],\[0,1\]\], "
               r"\(-0\.55\+2j\) -> \(-0\.55\+0\.31j\)\): "
               rf"exceeded {MAX_PANELS} panels on \[2\.0, 3\.0\]")
    with pytest.raises(QuadratureError, match=message) as err:
        j_rows_direct(h, -0.55 + 0.31j, None, t, 3)
    assert err.value.interval == 2


@pytest.mark.parametrize("y", [2.2j, 0.5 + 1.3j])
def test_shared_scale_keeps_every_word_accurate(delta, g16, y):
    """One adaptive pass per degree judges all words of the degree against
    one running scale, while their sizes span seven orders of magnitude at
    weights 10 and 14.  Every word must still match a run at 100x tighter
    quad_tol, relative to max(1, that word's own size); interior endpoints,
    since at the tighter tolerance a cusp leg exceeds the panel budget."""
    ab = Alphabet((Letter.trivial(10), Letter.trivial(14)))
    h = CuspCollection.from_letters(ab, [delta, g16])
    rng = np.random.default_rng(13)
    panel = rng.uniform(-1.3, 1.3, size=5) + 1j * rng.uniform(-1.5, -0.4, size=5)
    cfg = QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)
    got = j_rows_direct(h, y, -0.3 + 0.8j, panel, 3, cfg)
    ref = j_rows_direct(h, y, -0.3 + 0.8j, panel, 3, QuadConfig(1e-11, 1e-13, 1e-14))
    size = np.max(np.abs(ref), axis=0)
    assert np.max(size) / np.min(size[1:]) > 1e6
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * np.maximum(1.0, size))


def _two_group_panel():
    """64 points over the default panel's region: two row groups of vertical_J."""
    rng = np.random.default_rng(5)
    t = rng.uniform(-1.3, 1.3, 64) + 1j * rng.uniform(-1.5, -0.4, 64)
    assert len(t) == 2 * iterint._MAX_ROWS
    return t


def _two_group_cases():
    s = {k: level_one_basis(k)[0] for k in (12, 16, 22, 32)}
    return [
        pytest.param(CuspCollection.from_letters(
            Alphabet((Letter.trivial(10), Letter.trivial(14))), [s[12], s[16]]), id="two-letters"),
        # the support of test_dual_route_agreement_multi_prefix: each sweep
        # sums the terms of several support degrees
        pytest.param(CuspCollection(Alphabet((Letter.trivial(10),)),
                                    {(1,): s[12], (1, 1): s[22], (1, 1, 1): s[32]}),
                     id="multi-prefix"),
    ]


@pytest.mark.parametrize("h", _two_group_cases())
def test_two_row_groups_match_the_layered_route(h):
    """Every entry of a ray solved as two row groups, with the top degree
    integrated to the panel ends only and the sweeps as real products, is
    within a tenth of the ODE's own bound atol + rtol |J| of the layered
    route (both cases read 6e-6 of it)."""
    t = _two_group_panel()
    cfg = QuadConfig()
    ode = vertical_J(h, 2j, t, 3, cfg)
    quad = j_rows_direct(h, 2j, None, t, 3, cfg)
    assert np.all(np.abs(ode - quad) <= 0.1 * (cfg.atol + cfg.rtol * np.abs(quad)))


def test_row_groups_share_form_values_by_panel(monkeypatch, delta, g16):
    """A row group's first attempt at a height reuses the panel an earlier
    group accepted there, its form values included, and every other attempt
    evaluates its own: fewer evaluations than attempts, but more than half.
    Swapping the two groups swaps the rows bit for bit, so the accepted
    panel, kept by its height, holds every input the shared values depend
    on."""
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10), Letter.trivial(14))),
                                    [delta, g16])
    t = _two_group_panel()
    attempts = []
    evals = []
    real_block = iterint.series_block
    real_eval = iterint.eval_forms

    def counting_block(words, xs, ys, d, degrees):
        attempts.append(d == 1)
        return real_block(words, xs, ys, d, degrees)

    def counting_eval(forms, tau):
        evals.append(1)
        return real_eval(forms, tau)

    monkeypatch.setattr(iterint, "series_block", counting_block)
    monkeypatch.setattr(iterint, "eval_forms", counting_eval)
    rows = vertical_J(h, 2j, t, 3)
    assert sum(attempts) / 2 < len(evals) < sum(attempts)
    swapped = vertical_J(h, 2j, np.concatenate([t[32:], t[:32]]), 3)
    assert np.concatenate([swapped[32:], swapped[:32]]).tobytes() == rows.tobytes()


def test_row_groups_start_from_accepted_widths(monkeypatch, delta, g16):
    """A later row group first tries the widths an earlier group of the same
    call accepted at the same heights, so one call over both groups tries
    fewer panels than the two groups solved in separate calls."""
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10), Letter.trivial(14))),
                                    [delta, g16])
    t = _two_group_panel()
    panels = []
    real_block = iterint.series_block

    def counting_block(words, xs, ys, d, degrees):
        panels.append(d == 1)
        return real_block(words, xs, ys, d, degrees)

    monkeypatch.setattr(iterint, "series_block", counting_block)
    vertical_J(h, 2j, t, 3)
    together = sum(panels)
    panels.clear()
    vertical_J(h, 2j, t[:32], 3)
    vertical_J(h, 2j, t[32:], 3)
    assert together < sum(panels)


def test_vertical_J_unit_at_degree_zero(delta):
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection.from_letters(ab, [delta])
    rows = vertical_J(h, 1.1j, PANEL, 2)
    assert np.allclose(rows[:, 0], 1.0)


def test_automatic_cutoff_high_enough(delta, g16):
    """Starting the ray a thousand times further into the tail (atol * 1e-3
    raises the cutoff height) changes nothing beyond the default tolerance,
    at D = 2 on one letter and at D = 4 on two, where words of up to
    2^3 factorizations share the one-form cutoff."""
    one = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])
    two = CuspCollection.from_letters(Alphabet((Letter.trivial(10), Letter.trivial(14))),
                                      [delta, g16])
    cfg = QuadConfig()
    for h, D in [(one, 2), (two, 4)]:
        a = vertical_J(h, 1.4j, PANEL, D, cfg)
        b = vertical_J(h, 1.4j, PANEL, D, QuadConfig(atol=cfg.atol * 1e-3))
        assert np.max(np.abs(a - b)) < 1e-9, D


def _certificate_cases():
    two = Alphabet((Letter.trivial(10), Letter.trivial(14)))
    s = {k: level_one_basis(k)[0] for k in (12, 16, 26, 36)}
    return [
        pytest.param(CuspCollection.from_letters(two, [s[12], s[16]]), 4, id="psi_wide-D4"),
        pytest.param(CuspCollection(two, {(1,): s[12], (1, 2): s[26], (1, 1, 2): s[36]}), 3,
                     id="longer-support-D3"),
        # kappa = 1/6 and a bound within a factor 1e-9 of atol: the tight case
        pytest.param(CuspCollection.from_letters(Alphabet((Letter.eta(4),)), [eta_form(4)]), 3,
                     id="eta4-D3"),
    ]


@pytest.mark.parametrize("h,D", _certificate_cases())
def test_series_cutoff_certificate(panel, h, D):
    """J(h; iY, oo; t) at the cutoff Y, from the layered route started far
    higher (atol * 1e-6), is the unit series to below atol / 100: what the
    one-form cutoff at atol / 2^(D-1) certifies for every word of degree <= D."""
    cfg = QuadConfig()
    Y = iterint._series_cutoff(h.support_forms, D, panel, cfg.atol)
    J = j_rows_direct(h, Endpoint.point(1j * Y), None, panel, D,
                      QuadConfig(atol=cfg.atol * 1e-6))
    assert np.max(np.abs(J - h.words(D).unit_rows(len(panel)))) <= cfg.atol / 100


def test_series_cutoff_panel_count(monkeypatch, panel, delta, g16):
    """The psi_wide collection's ray at D = 4 starts at its one-form cutoff
    (near 16, not 53), so it tries fewer panels than the rule that gave
    every word the polynomial weight of D kernels: 16 at z0 = 2i and 22 at
    z0 = 0.5i on the default panel."""
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10), Letter.trivial(14))),
                                    [delta, g16])
    tried = []
    real_block = iterint.series_block

    def counting_block(words, xs, ys, d, degrees):
        tried.append(d == 1)
        return real_block(words, xs, ys, d, degrees)

    monkeypatch.setattr(iterint, "series_block", counting_block)
    for z0, before in [(2j, 16), (0.5j, 22)]:
        tried.clear()
        vertical_J(h, z0, panel, 4)
        assert sum(tried) < before, (z0, sum(tried))


def test_nonfinite_state_names_the_height(delta, monkeypatch):
    import ncperiods.iterint as iterint

    real = iterint.eval_forms
    calls = []

    def poisoned(forms, tau):
        # one NaN evaluation at the top of the ray poisons the ODE state
        calls.append(tau)
        return real(forms, tau) * (np.nan if len(calls) == 1 else 1.0)

    monkeypatch.setattr(iterint, "eval_forms", poisoned)
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])
    with pytest.raises(IterIntError, match="non-finite at height"):
        vertical_J(h, 1.45j, PANEL, 2)


def test_unresolvable_ray_names_the_height(delta, monkeypatch):
    """Finite noise in place of the forms never resolves on any panel: the
    solve is refused at a named height instead of halving without end."""
    import ncperiods.iterint as iterint

    rng = np.random.default_rng(0)

    def noise(forms, tau):
        return rng.standard_normal((len(forms), len(tau))) + 0j

    monkeypatch.setattr(iterint, "eval_forms", noise)
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])
    with pytest.raises(IterIntError, match=r"unresolved at height \d+\.\d{3}"):
        vertical_J(h, 1.45j, PANEL, 2)


def test_determinism_and_cache(delta):
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection.from_letters(ab, [delta])
    r1 = vertical_J(h, 1.2j, PANEL, 2)
    r2 = vertical_J(h, 1.2j, PANEL, 2)
    assert r1.tobytes() == r2.tobytes()
    d1 = r_direct([delta], None, 0, PANEL)
    d2 = r_direct([delta], None, 0, PANEL)
    assert d1.tobytes() == d2.tobytes()


@pytest.mark.parametrize("z", [complex(0.0, math.nan), complex(0.0, math.inf),
                               complex(math.nan, 1.0), complex(math.inf, 1.0)])
def test_nonfinite_point_is_refused_by_name(delta, z):
    """A NaN or infinite base point is refused naming it; a NaN height used
    to end the ray loop at once and return the unit series."""
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])
    with pytest.raises(ValueError, match="finite") as err:
        vertical_J(h, z, PANEL, 2)
    assert str(z) in str(err.value)
    with pytest.raises(ValueError, match="finite") as err:
        Endpoint.point(z)
    assert str(z) in str(err.value)


def test_endpoint_validation():
    with pytest.raises(ValueError):
        Endpoint.point(0.5 - 0.2j)
    with pytest.raises(ValueError):
        Endpoint.point(1.0)
    assert Endpoint.coerce(None).is_infinity
    with pytest.raises(ValueError):
        Endpoint.coerce("oo")  # None is the one spelling of the cusp oo
    assert Endpoint.coerce(Fraction(1, 2)).cusp_value == Fraction(1, 2)
    assert Endpoint.coerce(0).cusp_value == 0
    assert Endpoint.coerce(1.8j).kind == "point"


def test_t_panel_validation(delta):
    with pytest.raises(ValueError):
        r_direct([delta], None, 0, np.array([0.3 + 0.1j]))
    with pytest.raises(ValueError):
        r_direct([delta], None, 0, np.array([-0.5j, 0.0j]))
    # a non-finite point is refused by name, not by exhausting the quadrature
    for bad in (complex(math.nan, -1.0), complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite") as err:
            r_direct([delta], None, 0, np.array([-0.5j, bad, complex(math.inf, -1.0)]))
        # the message names the first bad point
        assert str(err.value) == f"panel point {bad} is not a finite point of the lower half plane"
    ab = Alphabet((Letter.trivial(10),))
    h = CuspCollection.from_letters(ab, [delta])
    with pytest.raises(ValueError):
        vertical_J(h, 0.5 - 1j, PANEL, 2)
    with pytest.raises(ValueError, match="finite"):
        j_rows_direct(h, None, 0, np.array([complex(math.nan, -1.0)]), 1)


def test_cusp_frame():
    for c in [Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(5)]:
        g = cusp_frame(c)
        assert g.a * g.d - g.b * g.c == 1
        assert g.c > 0 or (g.c == 0 and c.denominator == 1)
        assert Fraction(g.a, g.c) == c if g.c else True


def test_zt_pow_branch():
    z = np.array([0.3 + 1.2j])
    t = np.array([-0.5 - 0.8j])
    assert zt_pow(z, t, 2.0)[0] == pytest.approx((z[0] - t[0]) ** 2)
    # fractional power continuous in the upper half plane: compare against
    # principal log directly
    w = 3.5
    assert zt_pow(z, t, w)[0] == pytest.approx(np.exp(w * np.log(z[0] - t[0])))


def _exact_pow(b: complex, w: int) -> complex:
    """b**w by repeated exact multiplication of the float's rationals,
    rounded once."""
    re, im = Fraction(b.real), Fraction(b.imag)
    acc_re, acc_im = Fraction(1), Fraction(0)
    for _ in range(w):
        acc_re, acc_im = acc_re * re - acc_im * im, acc_re * im + acc_im * re
    return complex(float(acc_re), float(acc_im))


def test_zt_pow_integer_weights_are_products():
    """At integer w the kernel is a chain of complex products: against the
    exact product of the rounded base, every value is within the first-order
    bound of binary powering, (w - 1) sqrt(5) eps/2 of |value| (sqrt(5) eps/2
    per complex product), for w up to 46, at panel points against heights of
    the layered route's paths from the real axis to a cusp cutoff.
    The power stays within 0.85 of the bound here; exp(w log(z - t)), which
    rounds the log and then scales its error by w, misses it at every w from
    1 to 46 on these points, by up to 2.7x."""
    z = np.array([0.3 + 1.2j, -0.55 + 0.31j, 0.5 + 1.3j, 16j, 1e-3 + 0.9j, 0.2 + 16.7j])
    t = np.array([-0.5 - 0.8j, -0.325 - 0.804j, -0.587 - 1.196j, 1.3 - 0.4j, -1.3 - 1.5j])
    eps = np.finfo(float).eps
    w = np.arange(47.0)
    got = zt_pow(z[:, None, None], t[:, None], w)
    for i, zi in enumerate(z):
        for j, tj in enumerate(t):
            for k in range(47):
                want = _exact_pow(complex(zi - tj), k)
                assert abs(got[i, j, k] - want) <= max(k - 1, 0) * math.sqrt(5) * eps / 2 * abs(want)


@st.composite
def rhs_cases(draw):
    """Random alphabet, truncation, support (sorted as CuspCollection sorts
    it, with a monomial of degree >= 2 whenever D allows) and state rows."""
    ell = draw(st.integers(1, 3))
    D = draw(st.integers(1, 4))
    words = GradedWords(Alphabet(tuple(Letter.trivial(10) for _ in range(ell))), D)
    monos = [words.word(i) for i in range(1, words.total)]
    support = set(draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6)))
    if D >= 2:
        support.add(draw(st.sampled_from([m for m in monos if len(m) >= 2])))
    support = tuple(sorted(support, key=lambda m: (len(m), m)))
    n_t = draw(st.integers(1, 4))
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    om_col = draw(arrays(complex, (len(support), n_t), elements=coeff))
    J = draw(arrays(complex, (words.total, n_t), elements=coeff))
    return words, support, om_col, J


@given(rhs_cases())
def test_series_block_over_support_degrees(case):
    """Block k of Omega J summed over the support's degrees only, as the ray
    ODE sweeps it, is bitwise the block summed over every degree, keeps the
    words-leading state's dtype and agrees with block k of nc_mul on the
    rows; Omega carries om_col[b] at support monomial b."""
    words, support, om_col, J = case
    omega = np.zeros_like(J)
    for b, m in enumerate(support):
        omega[words.index(m)] = om_col[b]
    degrees = sorted({len(m) for m in support})
    want = nc_mul(words, omega.T, J.T)
    for k in range(words.D + 1):
        got = series_block(words, omega, J, k, degrees)
        assert got.dtype == J.dtype
        assert got.tobytes() == series_block(words, omega, J, k, range(k + 1)).tobytes()
        np.testing.assert_allclose(got, want[:, words.block(k)].T, rtol=0, atol=1e-13)
