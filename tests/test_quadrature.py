"""Piecewise-Legendre quadrature building blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import legendre as L

from ncperiods import quadrature
from ncperiods.quadrature import (
    NODES,
    NPTS,
    READ_BYTES,
    PwPoly,
    QuadratureError,
    WEIGHTS,
    adaptive_pw,
    merged_gauss,
)


def test_gauss_rule():
    assert NPTS == 16
    assert WEIGHTS.sum() == pytest.approx(2.0)
    # exact for polynomials of degree <= 31
    for deg in (0, 7, 16, 31):
        quad = np.sum(WEIGHTS * NODES**deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert quad == pytest.approx(exact, abs=1e-14)


def test_adaptive_oscillatory():
    omega = 37.0
    pw = adaptive_pw(lambda s: np.exp(1j * omega * s), 0.0, 2.0, tol=1e-13)
    exact = (np.exp(2j * omega) - 1.0) / (1j * omega)
    assert abs(pw.antiderivative()(pw.breaks[-1]) - exact) < 1e-12
    # evaluation agrees with the integrand away from panel edges
    s = np.linspace(0.05, 1.95, 11)
    assert np.max(np.abs(pw(s) - np.exp(1j * omega * s))) < 1e-11


def test_antiderivative():
    pw = adaptive_pw(lambda s: np.cos(3 * s), 0.0, 4.0, tol=1e-13)
    F = pw.antiderivative()
    s = np.linspace(0.0, 4.0, 23)
    assert np.max(np.abs(F(s) - np.sin(3 * s) / 3)) < 1e-12
    # vanishes at the left endpoint, continuous across internal breaks
    assert abs(F(0.0)) < 1e-14
    eps = 1e-9
    for br in F.breaks[1:-1]:
        assert abs(F(br - eps) - F(br + eps)) < 1e-8


def test_vector_valued():
    t = np.array([1.0, 2.0, 3.0])

    def fun(s):
        return np.exp(np.outer(-s, t))

    pw = adaptive_pw(fun, 0.0, 5.0, tol=1e-13)
    exact = (1 - np.exp(-5.0 * t)) / t
    assert np.max(np.abs(pw.antiderivative()(pw.breaks[-1]) - exact)) < 1e-12
    assert pw.coeffs.shape[2:] == (3,)


def _one_scale_build(fun, a, b, tol):
    """The single-array rule as a plain reference: one running scale over
    every value column, panels judged in order, bisection until resolved."""
    edges = np.linspace(a, b, quadrature.INIT_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    accepted, scale = [], 0.0
    while len(lo):
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = np.asarray(fun(pts))
        vals = vals.reshape((len(lo), NPTS) + vals.shape[1:])
        coeffs = np.moveaxis(np.tensordot(quadrature.TMAT, vals, axes=([1], [1])), 0, 1)
        split = np.zeros(len(lo), dtype=bool)
        for i, c in enumerate(coeffs):
            scale = max(scale, np.abs(c).max())
            if (np.abs(c[-2]) + np.abs(c[-1])).max() <= tol * max(scale, 1e-300):
                accepted.append((lo[i], hi[i], c))
            else:
                split[i] = True
        mid = (lo[split] + hi[split]) / 2
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
    accepted.sort(key=lambda p: p[0])
    return np.array([p[0] for p in accepted] + [accepted[-1][1]]), np.stack([p[2] for p in accepted])


@pytest.mark.parametrize("fun, a, b, tol", [
    (lambda s: np.exp(37j * s), 0.0, 2.0, 1e-13),
    (lambda s: np.cos(3 * s), 0.0, 4.0, 1e-13),
    (lambda s: np.exp(np.outer(-s, [1.0, 2.0, 3.0])), 0.0, 5.0, 1e-13),
    (lambda s: 1.0 / (1e-6 + (s - 0.3) ** 2), 0.0, 1.0, 1e-13),
    (lambda s: np.sin(s) ** 2, 0.0, 3.0, 1e-13),
    (lambda s: np.exp(np.multiply.outer(s, [[1.0, -2.0], [0.5j, 3.0]])), 0.0, 2.0, 1e-12),
], ids=["oscillatory", "cos", "vector", "needle", "sin2", "matrix"])
def test_single_array_fun_keeps_one_running_scale(fun, a, b, tol):
    """A fun returning one array is the one-group case: its build is bit for
    bit the single-scale rule, whatever the shape of its value axes."""
    breaks, coeffs = _one_scale_build(fun, a, b, tol)
    pw = adaptive_pw(fun, a, b, tol)
    assert pw.breaks.tobytes() == breaks.tobytes()
    assert pw.coeffs.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("fun, ends, tol", [
    (lambda s: np.exp(37j * s), [0.0, 2.0, 3.5, 4.0], 1e-13),
    (lambda s: np.exp(np.outer(-s, [1.0, 2.0, 3.0])), [0.0, 1.0, 2.0, 3.0], 1e-13),
    (lambda s: 1.0 / (1e-6 + (s - 1.3) ** 2), [0.0, 1.0, 2.0], 1e-13),
    (lambda s: (np.exp(s)[:, None] * [1.0, 2.0], 1e-8 * np.cos(60.0 * s)[:, None]),
     [0.0, 0.5, 1.0], 1e-10),
], ids=["oscillatory", "vector", "needle", "groups"])
def test_intervals_build_as_each_interval_alone(fun, ends, tol):
    """A build over interval ends is, interval by interval, the build on that
    interval alone: the same breaks bit for bit, and coefficients within a
    few ulps (the fit's product runs over another batch of panels)."""
    pw = adaptive_pw(fun, ends[0], np.array(ends[1:]), tol)
    parts = [adaptive_pw(fun, a, b, tol) for a, b in zip(ends[:-1], ends[1:])]
    want = np.concatenate([p.breaks[:-1] for p in parts] + [parts[-1].breaks[-1:]])
    assert pw.breaks.tobytes() == want.tobytes()
    coeffs = np.concatenate([p.coeffs for p in parts])
    assert np.all(np.abs(pw.coeffs - coeffs) <= 8 * np.finfo(float).eps * np.max(np.abs(coeffs)))
    if not isinstance(fun(np.zeros(1)), tuple):
        one = [_one_scale_build(fun, a, b, tol) for a, b in zip(ends[:-1], ends[1:])]
        assert np.concatenate([p[0][:-1] for p in one] + [one[-1][0][-1:]]).tobytes() == want.tobytes()


def test_each_interval_keeps_its_own_scale():
    """A 1e-8-sized oscillation on the interval after a 1e6-sized one is
    resolved to tol of its own size: the scale does not carry over."""
    tol = 1e-10

    def fun(s):
        return np.where(s < 1.0, 1e6 * np.exp(s), 1e-8 * np.cos(60.0 * s))

    pw = adaptive_pw(fun, 0.0, np.array([1.0, 2.0]), tol)
    s = np.linspace(1.0, 2.0, 201)[1:]
    assert np.max(np.abs(pw(s) - fun(s))) <= 10 * tol * 1e-8
    # each panel integrates to width * c0
    second = pw.breaks[:-1] >= 1.0
    area = np.diff(pw.breaks)[second] @ pw.coeffs[second, 0]
    assert abs(area - 1e-8 * (np.sin(120.0) - np.sin(60.0)) / 60.0) <= tol * 1e-8
    assert abs(pw.antiderivative()(1.0) - 1e6 * (np.e - 1)) <= tol * 1e6 * np.e


def test_no_panel_crosses_an_interval_end():
    """Every interval end is a break, so an integrand that jumps there (it
    is never sampled at an end) still resolves, where the same jump inside
    one interval is refused at MIN_WIDTH."""
    def fun(s):
        return np.where(s < 1.0, np.cos(3 * s), np.where(s < 1.7, np.exp(-s), s**2))

    ends = np.array([1.0, 1.7, 3.0])  # 1.7 is no break of equal panels on [0, 3]
    pw = adaptive_pw(fun, 0.0, ends, 1e-13)
    assert np.all(np.isin(ends, pw.breaks))
    assert np.all(np.diff(pw.breaks) > 0)
    s = np.linspace(0.0, 3.0, 61)
    assert np.max(np.abs(pw(s) - fun(s))) < 1e-12 * 9
    with pytest.raises(QuadratureError, match="MIN_WIDTH"):
        adaptive_pw(fun, 0.0, 3.0, 1e-13)


def test_panel_budget_is_per_interval(monkeypatch):
    """MAX_PANELS bounds each interval's build, not the path's: a budget of
    the most panels one interval accepts suffices however many the intervals
    hold together, and one fewer is refused on that interval, named."""
    ends = np.array([1.0, 2.0, 3.0])

    def build():
        return adaptive_pw(lambda s: 1.0 / (1e-4 + (s - 1.3) ** 2), 0.0, ends, tol=1e-13)

    breaks = build().breaks
    counts = np.histogram(breaks[:-1], bins=np.concatenate([[0.0], ends]))[0]
    n, k = counts.max(), int(np.argmax(counts))
    assert k == 1 and counts.sum() > n
    monkeypatch.setattr(quadrature, "MAX_PANELS", n)
    assert np.array_equal(build().breaks, breaks)
    monkeypatch.setattr(quadrature, "MAX_PANELS", n - 1)
    with pytest.raises(QuadratureError, match=rf"exceeded {n - 1} panels on \[1\.0, 2\.0\]") as err:
        build()
    assert err.value.interval == 1


def test_tuple_groups_resolve_to_their_own_scale():
    """A fun returning a tuple of sample arrays gets one running scale per
    array: a rough group 1e-8 the size of a smooth one is resolved to tol of
    its own size, where one scale over both columns accepts it coarse."""
    tol = 1e-10

    def big(s):
        return np.exp(s)[:, None] * np.array([1.0, 2.0])

    def small(s):
        return 1e-8 * np.cos(60.0 * s)[:, None]

    pw = adaptive_pw(lambda s: (big(s), small(s)), 0.0, 1.0, tol)
    assert pw.coeffs.shape[2:] == (3,)  # the groups' columns, concatenated
    s = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(pw(s)[:, :2] - big(s))) <= 10 * tol * 2 * np.e
    own = np.max(np.abs(pw(s)[:, 2] - small(s)[:, 0]))
    assert own <= 10 * tol * 1e-8
    assert abs(pw.antiderivative()(pw.breaks[-1])[2] - 1e-8 * np.sin(60.0) / 60.0) <= tol * 1e-8

    one = adaptive_pw(lambda s: np.concatenate([big(s), small(s)], axis=1), 0.0, 1.0, tol)
    assert len(one.breaks) < len(pw.breaks)
    assert np.max(np.abs(one(s)[:, 2] - small(s)[:, 0])) > 100 * own


def test_panel_budget(monkeypatch):
    # needle far too sharp for 8 panels
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError):
        adaptive_pw(lambda s: 1.0 / (1e-12 + (s - 0.3) ** 2), 0.0, 1.0, tol=1e-13)


def test_panel_budget_counts_each_panel_once(monkeypatch):
    # a budget of exactly the panels an unbudgeted build accepts suffices and
    # one fewer is refused, whatever that count is at the last bit of the fit
    def build():
        return adaptive_pw(lambda s: 1.0 / (1e-6 + (s - 0.3) ** 2), 0.0, 1.0, tol=1e-13)

    breaks = build().breaks
    n = len(breaks) - 1
    monkeypatch.setattr(quadrature, "MAX_PANELS", n)
    assert np.array_equal(build().breaks, breaks)
    monkeypatch.setattr(quadrature, "MAX_PANELS", n - 1)
    with pytest.raises(QuadratureError, match=f"exceeded {n - 1} panels"):
        build()


def test_unresolved_panel_is_refused():
    # a jump never resolves: bisection reaches MIN_WIDTH at s = 0.3
    with pytest.raises(QuadratureError, match=r"panel \[0\.29"):
        adaptive_pw(lambda s: np.where(s < 0.3, 0.0, 1.0), 0.0, 1.0, tol=1e-12)


def test_resolution_tail_small_when_converged():
    pw = adaptive_pw(lambda s: np.sin(s) ** 2, 0.0, 3.0, tol=1e-13)
    tail = np.abs(pw.coeffs[:, -2:]).sum(axis=1)
    assert np.max(tail) < 1e-13 * max(1.0, np.max(np.abs(pw.coeffs)))


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_polynomial_exactness(cs):
    """Degree <= 7 polynomials are captured exactly by a single panel fit."""
    p = np.polynomial.Polynomial(cs)
    with mock.patch.object(quadrature, "INIT_PANELS", 1):
        pw = adaptive_pw(lambda s: p(s), -1.0, 2.0, tol=1e-12)
    exact = p.integ()(2.0) - p.integ()(-1.0)
    scale = max(1.0, np.max(np.abs(pw.coeffs)))
    assert abs(pw.antiderivative()(pw.breaks[-1]) - exact) < 1e-11 * scale
    s = np.linspace(-1.0, 2.0, 9)
    assert np.max(np.abs(pw(s) - p(s))) < 1e-10 * scale


@st.composite
def pwpolys(draw):
    """Random sorted breaks (1-6 panels) and complex (K, 16[, 3]) coefficients,
    or (K, 16, n_t, ncols) as the layered route's antiderivatives hold them."""
    K = draw(st.integers(1, 6))
    start = draw(st.floats(-5, 5))
    widths = draw(st.lists(st.floats(0.01, 3), min_size=K, max_size=K))
    shape = (K, NPTS) + draw(st.sampled_from([(), (3,), (4, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= draw(st.floats(1e-3, 1e3))
    return PwPoly(start + np.concatenate([[0.0], np.cumsum(widths)]), coeffs)


def _reference(pw, s):
    """Per-panel numpy.polynomial values in the local coordinate, and the
    size sum_k |c_k P_k| of the terms each value sums."""
    vals, sizes = [], []
    for v in s:
        p = int(np.clip(np.searchsorted(pw.breaks, v, side="right") - 1, 0, len(pw.breaks) - 2))
        a, b = pw.breaks[p], pw.breaks[p + 1]
        x = (2 * v - a - b) / (b - a)
        vals.append(L.legval(x, pw.coeffs[p]))
        sizes.append(np.max(np.abs(L.legvander(x, NPTS - 1)) @ np.abs(pw.coeffs[p].reshape(NPTS, -1))))
    return np.array(vals), max(1.0, max(sizes))


@given(pwpolys())
def test_pwpoly_matches_per_panel_reference(pw):
    br = pw.breaks
    s = np.concatenate([br, (br[:-1] + br[1:]) / 2, [br[0] - 0.7, br[-1] + 0.4]])
    want, size = _reference(pw, s)
    assert np.max(np.abs(pw(s) - want)) <= 1e-13 * size
    # a one-point read runs the same recurrence as a many-point one, bit for bit
    assert all(np.array_equal(pw(s[j:j + 1]), pw(s)[j:j + 1]) for j in range(len(s)))
    scale = max(1.0, float(np.max(np.abs(pw.coeffs))))

    # antiderivative: legint per panel, offset by the integrals of earlier panels
    F = pw.antiderivative()
    offset = 0.0
    for p in range(len(br) - 1):
        width = br[p + 1] - br[p]
        want = L.legint(pw.coeffs[p], lbnd=-1, scl=width / 2)
        want[0] += offset
        size = scale * max(1.0, width + np.max(np.abs(offset)))
        assert np.max(np.abs(F.coeffs[p] - want)) <= 1e-13 * size
        offset = offset + width * pw.coeffs[p, 0]

    # scalar in, scalar out
    mid = (br[0] + br[1]) / 2
    assert np.shape(pw(mid)) == pw.coeffs.shape[2:]
    assert np.shape(F(mid)) == pw.coeffs.shape[2:]
    assert np.array_equal(pw(mid), pw(np.array([mid]))[0])


def test_merged_gauss_is_exact_on_the_product():
    """Gauss on the merged breaks integrates a degree-15 series times a
    degree-16 one (an antiderivative) on other breaks exactly: it equals a
    40-point Gauss rule, exact to degree 79, on the same panels."""
    rng = np.random.default_rng(5)
    a = PwPoly(np.array([0.5, 1.5, 2.75, 4.0]),
               rng.standard_normal((3, NPTS, 4)) + 1j * rng.standard_normal((3, NPTS, 4)))
    b = PwPoly(np.array([0.8, 1.2, 2.0, 2.75, 3.1]), rng.standard_normal((4, NPTS, 5))).antiderivative()
    lo, hi = 1.0, 3.1
    y, wts = merged_gauss(lo, hi, a, b)
    assert np.all(np.diff(y) > 0) and lo < y[0] and y[-1] < hi
    assert wts.sum() == pytest.approx(hi - lo, rel=1e-15)
    got = (wts[:, None] * a(y)).T @ b(y)
    br = np.array([1.0, 1.2, 1.5, 2.0, 2.75, 3.1])  # every break of a or b in [lo, hi], once
    x40, w40 = L.leggauss(40)
    want = np.zeros((4, 5), dtype=complex)
    for p, q in zip(br[:-1], br[1:]):
        yy = (p + q) / 2 + (q - p) / 2 * x40
        want += (q - p) / 2 * ((w40[:, None] * a(yy)).T @ b(yy))
    assert len(y) == (len(br) - 1) * NPTS
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_read_in_blocks_is_bitwise_one_gather():
    """A read of a few thousand points spans many READ_BYTES blocks and equals
    bit for bit both its reads in small blocks and one unbounded gather of
    legvander rows (points outside the breaks included)."""
    rng = np.random.default_rng(11)
    breaks = np.sort(rng.uniform(0.0, 10.0, 40))
    pw = PwPoly(breaks, rng.standard_normal((39, NPTS + 1, 27)) + 1j * rng.standard_normal((39, NPTS + 1, 27)))
    s = rng.uniform(-1.0, 11.0, 3000)
    assert s.size * pw.coeffs[0].nbytes > 20 * READ_BYTES
    full = pw(s)
    assert full.tobytes() == np.concatenate([pw(s[i:i + 7]) for i in range(0, s.size, 7)]).tobytes()
    assert full[123].tobytes() == pw(s[123]).tobytes()
    idx = np.searchsorted(breaks[1:-1], s, side="right")
    x = (2 * s - breaks[idx] - breaks[idx + 1]) / (breaks[idx + 1] - breaks[idx])
    one = (L.legvander(x, NPTS)[:, None, :] @ pw.coeffs[idx])[:, 0]
    assert full.tobytes() == one.tobytes()


def test_pwpoly_shape_validation():
    with pytest.raises(ValueError):
        PwPoly(np.array([0.0, 1.0, 2.0]), np.zeros((1, NPTS)))
    with pytest.raises(ValueError):
        adaptive_pw(np.cos, 1.0, 1.0, tol=1e-12)
