"""Moments, completed L-values, period polynomials, double moments, shuffle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ncperiods import mlv
from ncperiods.iterint import QuadConfig, r_direct
from ncperiods.mlv import (
    FIT_ENDS,
    PROBE_SPLITS,
    Y_LO,
    _moment_fit,
    clear_caches,
    double_moments,
    double_period_polynomial,
    lambda_probe,
    lambda_value,
    moment,
    moments_table,
    period_polynomial,
    verify_shuffle,
)
from ncperiods.modforms import (
    CuspForm,
    QSeries,
    eta_form,
    eval_forms,
    form_linear_combination,
    level_one_basis,
)
from ncperiods.quadrature import PwPoly, adaptive_pw

PANEL = np.array([-0.7j, -0.4 - 0.6j])


def test_moment_series_oracle(delta):
    """M_k = i^(k+1) k! sum_n tau(n) / (2 pi n)^(k+1), a closed form needing
    no quadrature at all.  At k = 10 the 200-term truncation error is ~1e-22
    relative; at k = 8 the dropped tail itself is the bottleneck (~1e-9)."""
    tight = QuadConfig(quad_tol=1e-14, atol=1e-13)
    for k, rel in ((10, 1e-12), (8, 3e-8)):
        series = sum(
            a.real / (2 * math.pi * (j + 1)) ** (k + 1)
            for j, a in enumerate(delta.expansion.coeffs)
        )
        want = 1j ** (k + 1) * math.factorial(k) * series
        got = moment(delta, k, cfg=tight)
        assert abs(got - want) < rel * abs(want), k


def test_moments_are_completed_l_values(delta):
    """Lambda(f, s) = M_{s-1} / i^s is real for a real-coefficient form."""
    M = moments_table(delta)
    assert M.shape == (11,)
    for s in range(1, 12):
        lam = lambda_value(delta, s)
        assert lam == pytest.approx(complex(M[s - 1] / 1j**s))
        assert abs(lam.imag) < 1e-12 * max(abs(lam), 1.0)
        assert lam.real > 0  # no sign change among critical values of Delta


def test_functional_equation(delta, g16):
    """Lambda(s) = (-1)^(k/2) Lambda(k-s), both sides from different split
    heights so nothing cancels by construction."""
    for f, k in ((delta, 12), (g16, 16)):
        sign = (-1) ** (k // 2)
        for s in range(1, k):
            La = lambda_value(f, s, split=0.7)
            Lb = lambda_value(f, k - s, split=1.3)
            assert abs(La - sign * Lb) < 1e-9 * abs(La), (f.label, s)


def test_lambda_probe_report(delta):
    rep = lambda_probe(delta)
    assert rep["sign"] == 1
    assert rep["max_rel"] < 1e-9
    assert len(rep["rows"]) == 11


@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(rtol=1e-12, atol=1e-14, quad_tol=1e-11)],
                         ids=["default", "rtol1e-12"])
def test_lambda_probe_sign_minus_forms(cfg):
    """A sign -1 form has Lambda(k/2) = 0 exactly: the central row is measured
    against the table scale, not against the vanishing value itself."""
    for k in (18, 22, 26):
        f = level_one_basis(k)[0]
        rep = lambda_probe(f, cfg=cfg)
        assert rep["sign"] == -1
        assert rep["max_rel"] <= 1e-9


def test_period_polynomial_vs_layered_route(delta, g16):
    """p(t) against the single iterated integral, fully independent routes."""
    for f in (delta, g16):
        p = period_polynomial(f)
        direct = r_direct([f], None, 0, PANEL)
        assert np.max(np.abs(p(PANEL) - direct)) < 1e-12
        assert p.coef[-1] != 0 and p.degree() == int(f.shifted_weight)


@pytest.mark.parametrize("specs", [((12, 0), (26, 0)), ((24, 1), (24, 1)), ((60, 0), (60, 0))],
                         ids=["S12.1xS26.1", "S24.2", "S60.1"])
def test_period_polynomials_match_binomial_loops(specs):
    """The array expansions equal the explicit binomial sums bit for bit, also
    at w = 58, where C(w,k) passes 2^53 and a float product would round twice."""
    f1, f2 = (level_one_basis(k)[i] for k, i in specs)
    w1, w2 = int(f1.shifted_weight), int(f2.shifted_weight)
    for f, w in ((f1, w1), (f2, w2)):
        M = moments_table(f)
        want = np.zeros(w + 1, dtype=complex)
        for k in range(w + 1):
            want[w - k] = math.comb(w, k) * (-1) ** (w - k) * M[k]
        assert period_polynomial(f).coef.tobytes() == want.tobytes()
    M2 = double_moments(f1, f2)
    want = np.zeros(w1 + w2 + 1, dtype=complex)
    for k1 in range(w1 + 1):
        for k2 in range(w2 + 1):
            j = (w1 - k1) + (w2 - k2)
            want[j] += math.comb(w1, k1) * math.comb(w2, k2) * (-1) ** j * M2[k1, k2]
    assert double_period_polynomial(f1, f2).coef.tobytes() == want.tobytes()


def test_double_period_polynomial_vs_layered_route(delta, g16):
    """Order-2: outer form first.  The reversed order must disagree, so the
    match is not an accident of symmetry."""
    p2 = double_period_polynomial(delta, g16)
    fwd = r_direct([delta, g16], None, 0, PANEL)
    rev = r_direct([g16, delta], None, 0, PANEL)
    assert np.max(np.abs(p2(PANEL) - fwd)) < 1e-10
    assert np.max(np.abs(p2(PANEL) - rev)) > 1e-2


def _double_moments_tensor(f1, f2, cfg=QuadConfig()):
    """The tensor route as a reference: resolve the whole (n, w1+1, w2+1)
    integrand G(y) past the fold under one running scale, and integrate it
    up to f1's Y_HI, with F2 from f2's moment fit held at its top past it."""
    w1, w2 = int(f1.shifted_weight), int(f2.shifted_weight)
    F2 = _moment_fit(f2, cfg.quad_tol).antiderivative()
    top = F2.breaks[-1]
    top2, F1v = F2(np.array([top, 1.0]))
    k1s = np.arange(w1 + 1)
    k2s = np.arange(w2 + 1)
    below_one = 1j ** (w2 + 2) * (top2 - F1v)[::-1]

    def outer(y):
        fv = eval_forms([f1], 1j * y)[0]
        Fy = F2(np.minimum(y, top))
        A = 1j ** (k2s + 1) * (below_one[None, :] + (Fy - F1v[None, :]))
        Arec = 1j ** (k2s + w2 + 3) * (top2[None, :] - Fy)[:, ::-1]
        yk = y[:, None] ** k1s[None, :]
        ykr = y[:, None] ** (w1 - k1s)[None, :]
        G = yk[:, :, None] * A[:, None, :] + 1j ** (w1 + 2) * ykr[:, :, None] * Arec[:, None, :]
        return fv[:, None, None] * G

    pw = adaptive_pw(outer, 1.0, _moment_fit(f1, cfg.quad_tol).breaks[-1], tol=cfg.quad_tol)
    return 1j ** (k1s + 1)[:, None] * pw.antiderivative()(pw.breaks[-1])


@pytest.mark.parametrize("specs", [(12, 12), (12, 26), (26, 22), (22, 26), (16, 18), (20, 12)],
                         ids=lambda s: f"S{s[0]}.1xS{s[1]}.1")
@pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)],
                         ids=["default", "tight"])
def test_double_moments_match_tensor_route(specs, cfg):
    """Gauss on the factors' merged breaks equals the resolved tensor's
    integral to rounding, across a weight spread up to S26.1 x S22.1."""
    f1, f2 = (level_one_basis(k)[0] for k in specs)
    want = _double_moments_tensor(f1, f2, cfg)
    got = double_moments(f1, f2, cfg)
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_double_moments_shape(delta, g16):
    M = double_moments(delta, g16)
    assert M.shape == (11, 15)


def test_shuffle(delta, g16):
    rep = verify_shuffle(delta, delta, PANEL)
    assert rep["max"] < 1e-9 * max(rep["scale"], 1.0)
    rep = verify_shuffle(delta, g16, PANEL)
    assert rep["max"] < 1e-9 * max(rep["scale"], 1.0)


def test_zero_forms(delta):
    b = level_one_basis(12)
    zero = form_linear_combination([0.0], b)
    assert moment(zero, 3) == 0j
    assert np.all(double_moments(zero, delta) == 0)
    assert np.all(double_moments(delta, zero) == 0)


def test_complex_form_moments_are_linear(delta, g16):
    """A form with a complex q-expansion keeps a complex fit: its tables are
    the real form's times the coefficient."""
    c = 0.6 - 1.3j
    cdelta = form_linear_combination([c], [delta])
    M = moments_table(delta)
    assert np.max(np.abs(moments_table(cdelta) - c * M)) <= 1e-15 * np.max(np.abs(M))
    M2 = double_moments(g16, delta)
    for got in (double_moments(g16, cdelta), double_moments(form_linear_combination([c], [g16]), delta)):
        assert np.max(np.abs(got - c * M2)) <= 1e-15 * np.max(np.abs(M2))


def test_rejects_nontrivial_multiplier():
    with pytest.raises(ValueError):
        moment(eta_form(4), 0)
    odd = CuspForm(Fraction(9), eta_form(24).multiplier, QSeries(Fraction(1), np.zeros(4)))
    with pytest.raises(ValueError):
        moment(odd, 0)


def test_moment_index_range(delta):
    with pytest.raises(ValueError):
        moment(delta, -1)
    with pytest.raises(ValueError):
        moment(delta, 11)


def test_determinism_and_cache(delta):
    a = moments_table(delta)
    clear_caches()
    b = moments_table(delta)
    assert a.tobytes() == b.tobytes()


def test_moments_table_reads_antiderivative_once_per_height(delta, monkeypatch):
    """A table reads its one antiderivative once, at the cutoff, split and
    1/split together; the functional-equation probe reads one table per split."""
    reads = []
    call = PwPoly.__call__

    def counting(self, s):
        reads.append(s)
        return call(self, s)

    monkeypatch.setattr(PwPoly, "__call__", counting)
    moments_table(delta)
    assert len(reads) == 1 and np.shape(reads[0]) == (3,)
    reads.clear()
    lambda_probe(delta)
    assert len(reads) == 2


def test_moment_independent_of_call_order(delta):
    tight = QuadConfig(atol=1e-14)
    clear_caches()
    fresh = moment(delta, 3, cfg=tight)
    clear_caches()
    moment(delta, 3, cfg=QuadConfig(atol=1e-3))  # lower cutoff height
    assert moment(delta, 3, cfg=tight) == fresh


LEVEL_ONE = (12, 16, 18, 20, 22, 26)
TIGHT = QuadConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-13)


def test_tables_match_tight_config():
    """The default tables agree with the tight config's to 2e-15 of each
    table's max, the double moments over all 30 ordered pairs of the six
    forms: no moment is truncated by an atol cutoff, and the fits resolve
    far below quad_tol.  (With the cutoff at atol they differed by
    2.2e-14.)"""
    forms = {k: level_one_basis(k)[0] for k in LEVEL_ONE}
    for f in forms.values():
        want = moments_table(f, cfg=TIGHT)
        assert np.max(np.abs(moments_table(f) - want)) <= 2e-15 * np.max(np.abs(want)), f.label
    for k1, k2 in itertools.permutations(LEVEL_ONE, 2):
        want = double_moments(forms[k1], forms[k2], TIGHT)
        got = double_moments(forms[k1], forms[k2])
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), (k1, k2)


def test_moments_do_not_depend_on_atol(delta, g16):
    loose = QuadConfig(atol=1e-3)
    assert moments_table(delta, 1.3, loose).tobytes() == moments_table(delta, 1.3).tobytes()
    assert double_moments(g16, delta, loose).tobytes() == double_moments(g16, delta).tobytes()


@pytest.mark.parametrize("k", LEVEL_ONE)
def test_fit_ends_where_the_integrand_is_exactly_zero(k):
    """The fit covers [Y_LO, Y_HI(f)] with the fold y = 1 and the probe's
    heights as breaks, and past Y_HI(f) every column f(iy) y^m is exactly 0
    in float64."""
    f = level_one_basis(k)[0]
    fit = _moment_fit(f, QuadConfig().quad_tol)
    assert fit.breaks[0] == Y_LO and set(FIT_ENDS) <= set(fit.breaks)
    assert FIT_ENDS == (1 / 1.3, 1.0, 1.3, 1 / 0.7)
    top = fit.breaks[-1]
    y = np.array([top, top + 1.0, 2 * top])
    vals = eval_forms([f], 1j * y)[0][:, None] * y[:, None] ** np.arange(k - 1)
    assert np.all(vals == 0)


def test_split_outside_the_fit_is_refused(delta):
    """split and 1/split must both lie at or above Y_LO, the fit's lowest height."""
    assert all(s >= Y_LO and 1.0 / s >= Y_LO for s in PROBE_SPLITS)
    moments_table(delta, Y_LO)
    for bad in (0.5, 2.0, 1.0 / Y_LO * 1.01, 0.0, -1.0, float("nan")):
        for read in (lambda: moments_table(delta, bad), lambda: moment(delta, 3, bad),
                     lambda: lambda_value(delta, 4, bad)):
            with pytest.raises(ValueError, match=r"split must lie in \[0\.7, 1\.42857\]"):
                read()


def test_one_adaptive_build_per_form(monkeypatch):
    """verify_shuffle over every ordered pair of k forms plus lambda_probe of
    each builds exactly k fits; with both fits built, double_moments runs no
    adaptive build and evaluates no form."""
    forms = [level_one_basis(k)[0] for k in (12, 16, 18)]
    calls = {"adaptive_pw": 0, "eval_forms": 0}

    def counting(name):
        fn = getattr(mlv, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    clear_caches()
    monkeypatch.setattr(mlv, "adaptive_pw", counting("adaptive_pw"))
    for f1, f2 in itertools.permutations(forms, 2):
        verify_shuffle(f1, f2, PANEL)
    for f in forms:
        lambda_probe(f)
    assert calls["adaptive_pw"] == len(forms)
    monkeypatch.setattr(mlv, "eval_forms", counting("eval_forms"))
    calls.update(adaptive_pw=0, eval_forms=0)
    double_moments(forms[2], forms[0])
    assert calls == {"adaptive_pw": 0, "eval_forms": 0}


def test_period_polynomial_coefficients_are_memoized(monkeypatch):
    """verify_shuffle over every ordered pair of k forms reads k moment
    tables: each form's period polynomial is computed once per quad_tol,
    and clear_caches empties that memo with the fits."""
    forms = [level_one_basis(k)[0] for k in (12, 16, 18)]
    tables = []
    table = mlv.moments_table

    def counted(f, *args, **kwargs):
        tables.append(f.label)
        return table(f, *args, **kwargs)

    monkeypatch.setattr(mlv, "moments_table", counted)
    clear_caches()
    for f1, f2 in itertools.permutations(forms, 2):
        verify_shuffle(f1, f2, PANEL)
    assert sorted(tables) == sorted(f.label for f in forms)
    p = period_polynomial(forms[0])
    p.coef[0] = 0.0  # a caller's copy: the memo stays as it was
    assert period_polynomial(forms[0]).coef.tobytes() != p.coef.tobytes()
    period_polynomial(forms[0], QuadConfig(quad_tol=1e-12))
    assert len(tables) == len(forms) + 1
    clear_caches()
    period_polynomial(forms[0])
    assert len(tables) == len(forms) + 2
