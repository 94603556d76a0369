"""Period polynomials and (multiple) L-values of even-weight forms.

Single moments M_k = int_0^{ioo} f(tau) tau^k dtau are computed from the
split integral i^(k+1) [int_{y0}^oo f(iy) y^k dy + i^(w+2) int_{1/y0}^oo
f(iu) u^(w-k) du]; the S-transformation folds the cusp at 0 into a second
exponentially convergent tail.  The default split y0 = 1 makes the
functional equation an algebraic identity of the formula, so the
consistency probe deliberately uses two different split points, where
equality is earned by the quadrature, not by symmetry.

Double moments reuse the inner form's antiderivatives: F_m(Y) = int_1^Y
f2(iu) u^m du is built once as a piecewise polynomial, and the inner
integral from 0 is assembled from F at the outer nodes on both sides of the
fold.  The outer pass resolves only the factor columns, the outer form's
f1 y^k1 and the inner integrals, as two groups on shared breaks; the table
is their Parseval sum, panel by panel, never the (w1+1, w2+1) tensor.  Cost
is two one-dimensional passes.

Values here are "completed moments"; the conventional completed L-function
at integer arguments is Lambda(f, s) = M_{s-1} / i^s.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from .iterint import QuadConfig, cutoff_height, identity_report
from .modforms import CuspForm, eval_forms
from .quadrature import PwPoly, adaptive_pw

__all__ = [
    "moment",
    "moments_table",
    "lambda_value",
    "period_polynomial",
    "double_moments",
    "double_period_polynomial",
    "verify_shuffle",
    "lambda_probe",
    "clear_caches",
]

PROBE_SPLITS = (0.7, 1.3)  # the functional-equation probe's two split heights


def _check_trivial(f: CuspForm) -> int:
    if f.multiplier.kind != "trivial":
        raise ValueError("moments need a trivial-multiplier form")
    w = f.shifted_weight
    if w.denominator != 1 or int(w) % 2:
        raise ValueError("moments need even integer shifted weight")
    return int(w)


@lru_cache(maxsize=64)
def _moment_antideriv(f: CuspForm, lo: float, ycut: float, quad_tol: float):
    """PwPoly antiderivatives F_m(Y) = int_lo^Y f(iu) u^m du, m = 0..w, of a
    nonzero form, resolved to quad_tol on [lo, ycut]."""
    ms = np.arange(int(f.shifted_weight) + 1)

    def fun(y):
        fv = eval_forms([f], 1j * y)[0]
        return fv[:, None] * y[:, None] ** ms[None, :]

    return adaptive_pw(fun, lo, ycut, tol=quad_tol).antiderivative()


clear_caches = _moment_antideriv.cache_clear


def moments_table(f: CuspForm, split: float = 1.0,
                  cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """M_k(f) = int_0^{ioo} f(tau) tau^k dtau for k = 0..w, split at
    y = split: one antiderivative read at the cutoff, split and 1/split."""
    w = _check_trivial(f)
    if f.is_zero:
        return np.zeros(w + 1, dtype=complex)
    ycut = cutoff_height([f], w, None, cfg.atol)
    F = _moment_antideriv(f, min(split, 1.0 / split) * 0.999, ycut, cfg.quad_tol)
    top, at_split, at_fold = F(np.array([ycut, split, 1.0 / split]))
    upper = top - at_split
    lower = 1j ** (w + 2) * (top - at_fold)[::-1]
    return 1j ** np.arange(1, w + 2) * (upper + lower)


def moment(f: CuspForm, k: int, split: float = 1.0,
           cfg: QuadConfig = QuadConfig()) -> complex:
    """M_k(f) = int_0^{ioo} f(tau) tau^k dtau, split at y = split."""
    w = _check_trivial(f)
    if not 0 <= k <= w:
        raise ValueError(f"moment index k must be in 0..{w}")
    return complex(moments_table(f, split, cfg)[k])


def lambda_value(f: CuspForm, s: int, split: float = 1.0,
                 cfg: QuadConfig = QuadConfig()) -> complex:
    """Completed L-value Lambda(f, s) = M_{s-1} / i^s for s = 1..w+1."""
    return moment(f, s - 1, split, cfg) / 1j**s


def _kernel_expansion(w: int) -> np.ndarray:
    """Exact ints C(w,k) (-1)^(w-k), k = 0..w: the tau^k t^(w-k) terms of (tau - t)^w."""
    return np.array([comb(w, k) * (-1) ** (w - k) for k in range(w + 1)], dtype=object)


def period_polynomial(f: CuspForm, cfg: QuadConfig = QuadConfig()) -> Polynomial:
    """p(t) = sum_k C(w,k) (-1)^(w-k) M_k t^(w-k), equal to the single
    iterated integral from 0 to oo with kernel (tau - t)^w."""
    w = _check_trivial(f)
    return Polynomial((_kernel_expansion(w).astype(float) * moments_table(f, 1.0, cfg))[::-1])


def double_moments(f1: CuspForm, f2: CuspForm,
                   cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """M_{k1,k2} = int_0^{ioo} f1(tau1) tau1^k1 int_0^{tau1} f2(tau2) tau2^k2,
    shape (w1+1, w2+1); inner integral folded at y = 1 through F_m.

    Past the fold the integrand is G = a_0 (x) b_0 + a_1 (x) b_1 in y, with
    factor columns a = [f1 y^k1, i^(w1+2) f1 y^(w1-k1)] (outer form, direct
    and folded) and b = [A, Arec] (inner integral up to iy and up to i/y).
    One adaptive pass resolves a and b as two groups on shared breaks, and the
    table is their product integral, so the (w1+1, w2+1) tensor is never
    sampled.  Each group is accepted against its own running scale (the two
    differ by many decades), so each fit is good to ~tol max|a| and ~tol
    max|b|, and the product's error |da| |b| + |a| |db| is ~tol max|a| max|b|
    per group pair.  The tensor rule this replaces bounded G's error by tol
    max|G| <= 2 tol max|a| max|b|, and for the level-one forms S12.1..S26.1
    max|G| is max|a| max|b| to 1% in every ordered pair, so the two bounds
    agree within a factor 2.  That needs b cut off at ycut2 like the single
    moments: extrapolating F2 past its last panel gave b a spurious maximum
    where a is negligible, up to 4e3 times the true one (S26.1 over S12.1).
    """
    w1 = _check_trivial(f1)
    w2 = _check_trivial(f2)
    if f1.is_zero or f2.is_zero:
        return np.zeros((w1 + 1, w2 + 1), dtype=complex)
    ycut2 = cutoff_height([f2], w2, None, cfg.atol)
    F2 = _moment_antideriv(f2, 0.999, ycut2, cfg.quad_tol)
    top2, F1v = F2(np.array([ycut2, 1.0]))
    k1s = np.arange(w1 + 1)
    k2s = np.arange(w2 + 1)
    # inner integral from 0 to i: the fold constant, indexed by k2
    below_one = 1j ** (w2 + 2) * (top2 - F1v)[::-1]
    ycut1 = cutoff_height([f1], w1 + w2 + 2, None, cfg.atol)

    def factors(y):
        fv = eval_forms([f1], 1j * y)[0]                    # (npts,)
        # (npts, w2+1); past ycut2 F2 is cut off as top2 is, not extrapolated
        Fy = F2(np.minimum(y, ycut2))
        # inner integral from 0 to iy, and from 0 to i/y, for each k2
        A = 1j ** (k2s + 1) * (below_one[None, :] + (Fy - F1v[None, :]))
        Arec = 1j ** (k2s + w2 + 3) * (top2[None, :] - Fy)[:, ::-1]
        a = fv[:, None] * y[:, None] ** k1s[None, :]        # (npts, w1+1)
        return (np.stack([a, 1j ** (w1 + 2) * a[:, ::-1]], axis=1),
                np.stack([A, Arec], axis=1))                # (npts, 2, w1+1), (npts, 2, w2+1)

    pw = adaptive_pw(factors, 1.0, ycut1, tol=cfg.quad_tol)
    a = PwPoly(pw.breaks, pw.coeffs[..., :w1 + 1])
    b = PwPoly(pw.breaks, pw.coeffs[..., w1 + 1:])
    return 1j ** (k1s + 1)[:, None] * a.product_integral(b)


def double_period_polynomial(f1: CuspForm, f2: CuspForm,
                             cfg: QuadConfig = QuadConfig()) -> Polynomial:
    """Coefficients in t of the order-2 integral from 0 to oo: both kernels
    expanded binomially; term (k1, k2) adds to t^((w1-k1)+(w2-k2)) in loop order."""
    w1 = _check_trivial(f1)
    w2 = _check_trivial(f2)
    # exact int products rounded once, as the loop's were (C(w,k) passes 2^53 at w = 57)
    binom = np.outer(_kernel_expansion(w1), _kernel_expansion(w2)).astype(float)
    terms = binom * double_moments(f1, f2, cfg)
    coeffs = np.zeros(w1 + w2 + 1, dtype=complex)
    np.add.at(coeffs, np.add.outer(range(w1, -1, -1), range(w2, -1, -1)), terms)
    return Polynomial(coeffs)


def verify_shuffle(f1: CuspForm, f2: CuspForm, panel,
                   cfg: QuadConfig = QuadConfig()) -> dict:
    """Residual of P2(t) + t^(w1+w2) P2(-1/t) = P1(t) Q1(t) on the panel.

    This is the coefficient identity from comparing the order-2 composition
    with the S-equivariance of the order-1 integrals.
    """
    t = np.atleast_1d(np.asarray(panel, dtype=complex))
    P2 = double_period_polynomial(f1, f2, cfg)  # degree w1 + w2
    P1 = period_polynomial(f1, cfg)
    Q1 = period_polynomial(f2, cfg)
    lhs = P2(t) + t ** P2.degree() * P2(-1.0 / t)
    return identity_report("shuffle", lhs, P1(t) * Q1(t), t, forms=[f1.label, f2.label])


def lambda_probe(f: CuspForm, cfg: QuadConfig = QuadConfig()) -> dict:
    """Functional-equation consistency Lambda(s) = (-1)^((w+2)/2)
    Lambda(w+2-s), the two sides split at different heights so the identity
    is not a symmetry of the formula (PROBE_SPLITS).

    Each row's rel_err is relative to |Lambda(s)|, except the central row of
    a sign -1 form: there the equation forces Lambda(k/2) = 0, so that row is
    relative to the table scale max_s |Lambda(s)|."""
    w = _check_trivial(f)
    k = w + 2
    sign = (-1) ** (k // 2)
    Ma = moments_table(f, PROBE_SPLITS[0], cfg)
    Mb = moments_table(f, PROBE_SPLITS[1], cfg)
    lam = [complex(Ma[s - 1]) / 1j**s for s in range(1, w + 2)]
    table_scale = max(abs(La) for La in lam)
    rows = []
    worst = 0.0
    for s, La in enumerate(lam, 1):
        Lb = complex(Mb[k - s - 1]) / 1j**(k - s)
        size = table_scale if sign < 0 and 2 * s == k else abs(La)
        rel = abs(La - sign * Lb) / size
        worst = max(worst, rel)
        rows.append({"s": s, "lambda": [La.real, La.imag], "rel_err": rel})
    return {"identity": "functional_equation", "form": f.label,
            "sign": sign, "rows": rows, "max_rel": worst}
