"""Evaluable cusp forms: modular transformation law, special values, tails.

The k-sweep modularity check is the load-bearing regression here: any error in
the exact q-expansion bases (wrong Eisenstein powers, shifted indices, ...)
shows up as an O(1) violation of f(-1/z) = z^k f(z) long before it corrupts a
multi-step computation downstream.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ncperiods.modforms import (
    TAIL_TOL,
    CuspForm,
    EvalError,
    QSeries,
    cusp_space_basis,
    eta_form,
    eval_form,
    eval_forms,
    form_linear_combination,
    level_one_basis,
    _tail_bound,
    transformation_factor,
)
from ncperiods.ncpoly import MultiplierSpec, TRIVIAL
from ncperiods.sl2z import S, T, parse_word

POINTS = np.array([0.13 + 0.95j, -0.41 + 1.2j, 0.5 + 1.02j, -0.07 + 2.3j])


def test_modularity_sweep_level_one():
    """f(gamma tau) = (c tau + d)^k f(tau) for every echelon basis form,
    k = 12..36, at gamma = S and a generic word."""
    gammas = [S, parse_word("TST^-1S")]
    for k in range(12, 38, 2):
        for f in level_one_basis(k):
            vals = eval_form(f, POINTS)
            for g in gammas:
                lhs = eval_form(f, g.mobius(POINTS))
                rhs = transformation_factor(f, g, POINTS) * vals
                scale = max(float(np.max(np.abs(lhs))), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 5e-13 * scale, (k, f.label)


def test_modularity_eta_spaces():
    for N, w in [(4, Fraction(0)), (4, Fraction(4)), (12, Fraction(4)), (1, Fraction(-3, 2))]:
        basis = cusp_space_basis(w, MultiplierSpec.eta_power(N))
        assert basis, (N, w)
        for f in basis:
            vals = eval_form(f, POINTS)
            for g in (S, parse_word("TS")):
                lhs = eval_form(f, g.mobius(POINTS))
                rhs = transformation_factor(f, g, POINTS) * vals
                scale = max(float(np.max(np.abs(lhs))), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 5e-13 * scale, (N, w, f.label)


def test_eta_special_value():
    """eta(i) = Gamma(1/4) / (2 pi^(3/4)), a closed form independent of this
    code base; Delta(i) is its 24th power."""
    eta_i = math.gamma(0.25) / (2 * math.pi**0.75)
    f1 = eta_form(1)
    assert eval_form(f1, 1j) == pytest.approx(eta_i, rel=1e-13)
    delta = level_one_basis(12)[0]
    assert eval_form(delta, 1j) == pytest.approx(eta_i**24, rel=1e-12)


def test_eval_vectorized_matches_scalar():
    delta = level_one_basis(12)[0]
    g16 = level_one_basis(16)[0]
    block = eval_forms([delta, g16], POINTS)
    assert block.shape == (2, 4)
    for j, tau in enumerate(POINTS):
        assert block[0, j] == pytest.approx(eval_form(delta, complex(tau)))
        assert block[1, j] == pytest.approx(eval_form(g16, complex(tau)))


def test_decay_bound():
    """|f(x+iy)| <= decay_C exp(-2 pi kappa_min y) on a grid of heights."""
    for f in [level_one_basis(12)[0], eta_form(4), level_one_basis(24)[1]]:
        for y in (1.0, 1.5, 2.5, 4.0):
            taus = np.linspace(-0.5, 0.5, 7) + 1j * y
            vals = np.abs(eval_form(f, taus))
            assert np.all(vals <= f.decay_C * np.exp(-2 * np.pi * f.kappa_min * y) * (1 + 1e-12))


def test_eval_refuses_uncertified():
    delta = level_one_basis(12)
    with pytest.raises(EvalError):
        eval_form(delta[0], 0.02j)
    with pytest.raises(ValueError):
        eval_form(delta[0], 1.0 - 0.5j)


def full_stored_sum(f, tau):
    """Every stored term of f summed at the points tau: the reference the cut
    sum must agree with."""
    q24 = np.exp(2j * np.pi * tau / 24)
    M = f.expansion.M
    pows = np.empty((len(tau), M + 1), dtype=complex)
    pows[:, 0] = 1.0
    np.cumprod(np.broadcast_to(q24[:, None] ** 24, (len(tau), M)), axis=1, out=pows[:, 1:])
    return (pows @ f.expansion.coeffs) * q24**f.expansion.r24


CUT_HEIGHTS = (0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)


def test_cut_sum_matches_full_stored_sum():
    """eval_forms sums each form only to its cut index; the value stays within
    4 ulp of the leading term |a_0 q^kappa| of the full stored sum, and a
    height the full stored tail cannot certify is still refused."""
    forms = [f for k in range(12, 62, 2) for f in level_one_basis(k)]
    forms += [eta_form(N) for N in (1, 2, 5, 12, 23)]
    refused = 0
    for f in forms:
        for y in CUT_HEIGHTS:
            tau = np.linspace(-0.5, 0.5, 7) + 1j * y
            if not _tail_bound(f, y) < TAIL_TOL:
                refused += 1
                with pytest.raises(EvalError, match=(
                        rf"^{re.escape(repr(f))}: tail bound .+ > tol {TAIL_TOL:.1e} at Im tau = "
                        rf"{y:.4f} \(largest stored coefficient .+\); expansion too short for "
                        "this height or its coefficients too large$")):
                    eval_forms([f], tau)
                continue
            lead = abs(f.expansion.coeffs[0]) * np.exp(-2 * np.pi * f.kappa_min * y)
            err = np.max(np.abs(eval_forms([f], tau)[0] - full_stored_sum(f, tau)))
            assert err <= 4 * 2.0**-53 * lead, (f.label, y, err / lead)
    assert 0 < refused < len(forms) * len(CUT_HEIGHTS)


def test_form_linear_combination():
    b = level_one_basis(24)
    combo = form_linear_combination([2.0, -3.0], b)
    lhs = eval_form(combo, POINTS)
    rhs = 2.0 * eval_form(b[0], POINTS) - 3.0 * eval_form(b[1], POINTS)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    # cancellation of the leading coefficient moves kappa up
    shifted = form_linear_combination([0.0, 1.0], b)
    assert shifted.expansion.kappa == 2
    zero = form_linear_combination([0.0, 0.0], b)
    assert zero.is_zero
    with pytest.raises(ValueError):
        form_linear_combination([1.0, 1.0], [b[0], level_one_basis(12)[0]])
    with pytest.raises(ValueError, match="not finite"):
        form_linear_combination([1e300, 0.0], b)
    # one coefficient per form: neither list is cut to the other's length
    with pytest.raises(ValueError, match="expected 1 coefficients, got 2"):
        form_linear_combination([1.0, 5.0], [b[0]])
    with pytest.raises(ValueError, match="expected 2 coefficients, got 1"):
        form_linear_combination([1.0], b)


def test_cached_constants_cannot_go_stale():
    """Expansions are private read-only copies, so the constants a form
    caches from its coefficients always match a fresh computation."""
    src = np.array(level_one_basis(16)[0].expansion.coeffs)
    f = CuspForm(Fraction(14), TRIVIAL, QSeries(Fraction(1), src), label="S16.1")
    names = ("kappa_min", "growth_power", "growth_const", "decay_C", "digest")
    cached = [getattr(f, n) for n in names] + [f.expansion.r24]
    src[3] = 1e6  # the caller's array is not the expansion
    with pytest.raises(ValueError):
        f.expansion.coeffs[3] = 1e6
    g = CuspForm(
        f.shifted_weight,
        f.multiplier,
        QSeries(f.expansion.kappa, np.array(f.expansion.coeffs)),
        label=f.label,
    )
    assert cached == [getattr(g, n) for n in names] + [g.expansion.r24]


def test_digest_distinguishes():
    assert level_one_basis(12)[0].digest != level_one_basis(16)[0].digest
    assert eta_form(4).digest != eta_form(8).digest


def test_eta_power_24_space_is_level_one():
    """eta^24 is the trivial multiplier: its space is the level-one one."""
    got = cusp_space_basis(Fraction(10), MultiplierSpec.eta_power(24))
    assert [f.digest for f in got] == [f.digest for f in level_one_basis(12)]


def test_transformation_factor_T():
    """At T the factor reduces to the multiplier alone."""
    delta = level_one_basis(12)[0]
    assert np.allclose(transformation_factor(delta, T, POINTS), 1.0)
    f = eta_form(4)
    fac = transformation_factor(f, T, POINTS)
    assert np.allclose(fac, np.exp(4j * np.pi / 12))
