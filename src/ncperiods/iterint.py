"""Iterated integrals of cusp forms along hyperbolic paths.

Two independent routes to the same quantities, kept separate on purpose so
they can cross-check each other:

* r_direct: the iterated integral R_l(f_1,...,f_l; y, x; t) by layered
  quadrature.  Level m integrates f_{l-m+1}(z) (z-t)^w I_{m-1}(z) along a
  fixed path from x to y; the running antiderivative of one level is the
  inner factor of the next, so an l-fold integral costs l one-dimensional
  adaptive passes, not a nested mesh.

* vertical_J: the full generating series J(h; z0, oo; t) of all words up to
  degree D at once, as the solution of dJ/dz = Omega(z) J integrated down a
  vertical ray from a certified cutoff height, J(cutoff) = 1.

Paths run point -> vertical -> horizontal connector -> vertical -> point.
A cusp endpoint is traversed in a frame gamma with gamma(oo) = cusp: the
leg near the cusp is a vertical ray in the frame coordinate, where the form
is evaluated at large imaginary part and transported by its automorphy
factor.  The kernel (z - t)^w always uses the true coordinate z; with
Im t < 0 and Im z > 0 the base never meets the principal branch cut, so the
power is unambiguous for fractional w.

All t arguments are panels (1-d arrays) in the lower half plane; every
routine is vectorized over the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .modforms import eval_forms, transformation_factor
from .ncpoly import GradedWords, mono_weight
from .quadrature import adaptive_pw
from .sl2z import I2, GroupElement

__all__ = [
    "QuadConfig",
    "IterIntError",
    "Endpoint",
    "IterIntSpec",
    "cusp_frame",
    "cutoff_height",
    "zt_pow",
    "r_direct",
    "path_split_check",
    "vertical_J",
]


class IterIntError(Exception):
    pass


@dataclass(frozen=True)
class QuadConfig:
    """Numerical knobs shared by both integration routes.

    rtol/atol control the ODE stepper; quad_tol is the panel resolution
    criterion of the layered route; atol also sets where both routes cut the
    path off at the cusp (see cutoff_height); extended switches the ODE state
    to 80-bit floats.
    """

    rtol: float = 1e-9
    atol: float = 1e-11
    quad_tol: float = 1e-11
    max_steps: int = 100_000
    extended: bool = False


@dataclass(frozen=True)
class Endpoint:
    """Integration endpoint: a point of the upper half plane or a cusp.

    Cusps are rationals (Fraction) or oo (stored as None), i.e. the
    SL2(Z)-orbit representatives gamma(oo).
    """

    kind: str  # "point" | "cusp"
    z: complex = 0j
    cusp_value: Fraction | None = None

    @staticmethod
    def point(z) -> "Endpoint":
        z = complex(z)
        if z.imag <= 0:
            raise ValueError("interior endpoint needs Im z > 0")
        return Endpoint("point", z=z)

    @staticmethod
    def cusp(c) -> "Endpoint":
        if c is None or c in ("oo", "inf"):
            return Endpoint("cusp", cusp_value=None)
        return Endpoint("cusp", cusp_value=Fraction(c))

    @staticmethod
    def coerce(v) -> "Endpoint":
        if isinstance(v, Endpoint):
            return v
        if v is None or (isinstance(v, str) and v in ("oo", "inf")):
            return Endpoint.cusp(None)
        if isinstance(v, (Fraction, int)):
            return Endpoint.cusp(v)
        return Endpoint.point(v)

    @property
    def is_infinity(self) -> bool:
        return self.kind == "cusp" and self.cusp_value is None

    def __repr__(self):
        if self.kind == "point":
            return f"Endpoint({self.z})"
        return f"Endpoint(cusp {'oo' if self.cusp_value is None else self.cusp_value})"


def cusp_frame(c: Fraction) -> GroupElement:
    """gamma with gamma(oo) = c = p/q, q > 0, deterministic choice of column."""
    c = Fraction(c)
    p, q = c.numerator, c.denominator
    # d = p^{-1} mod q in [0, q), b = (p d - 1) / q
    d = pow(p % q, -1, q) if q > 1 else 0
    b = (p * d - 1) // q
    return GroupElement(p, b, q, d)


def zt_pow(z, t, w: float):
    """(z - t)^w, principal branch; safe since Im z > 0 > Im t keeps the base
    off the cut."""
    base = np.asarray(z) - np.asarray(t)
    if w == 0:
        return np.ones_like(base)
    return np.exp(w * np.log(base))


@dataclass(frozen=True)
class _Segment:
    """Straight segment in frame coordinates; true points are frame(tau')."""

    frame: GroupElement
    p0: complex
    p1: complex

    def tau(self, s):
        return self.p0 + np.asarray(s) * (self.p1 - self.p0)

    def z(self, s):
        tau = self.tau(s)
        return tau if self.frame == I2 else self.frame.mobius(tau)

    def dz(self, s):
        d = self.p1 - self.p0
        if self.frame == I2:
            return np.full(np.shape(s), d, dtype=complex)
        return d * self.frame.jfactor(self.tau(s)) ** -2

    def form_values(self, forms, s, tol=1e-13):
        """(n_forms, npts) values of the forms at the true points z(s)."""
        tau = self.tau(np.atleast_1d(s))
        vals = eval_forms(forms, tau, tol=tol)
        if self.frame == I2:
            return vals
        fac = np.stack([transformation_factor(f, self.frame, tau) for f in forms])
        return fac * vals

    def reversed(self) -> "_Segment":
        return _Segment(self.frame, self.p1, self.p0)


def cutoff_height(forms, polw: float, t, atol: float) -> float:
    """Height Y beyond which the dropped tail C e^(-2 pi kappa Y) (Y tfac)^polw
    stays below atol / 100, padded by 1.

    kappa is the slowest decay rate and C the largest decay constant among the
    forms; polw is the polynomial weight the caller's integrand carries on top
    of the forms, and tfac = 1 + max |t| over the panel t (1 when t is None).
    """
    kappa = min(f.kappa_min for f in forms)
    C = max(f.decay_C for f in forms)
    tfac = 1.0 if t is None else 1.0 + float(np.max(np.abs(t)))
    tol = atol * 1e-2
    two_pi_k = 2 * math.pi * kappa
    Y = max(3.0, math.log(max(C, 1.0) / tol) / two_pi_k)
    for _ in range(3):
        Y = max(3.0, (math.log(max(C, 1.0) / tol) + polw * math.log(max(Y * tfac, 2.0))) / two_pi_k)
    return Y + 1.0


def _approach(e: Endpoint, H: float, cutoff: float):
    """Segments running from the endpoint up to abscissa + iH, plus abscissa."""
    if e.kind == "point":
        a = e.z.real
        if abs(e.z.imag - H) < 1e-15:
            return a, []
        return a, [_Segment(I2, e.z, complex(a, H))]
    if e.is_infinity:
        ycut = max(cutoff, H + 1.0)
        return 0.0, [_Segment(I2, complex(0.0, ycut), complex(0.0, H))]
    c = e.cusp_value
    q = c.denominator
    g = cusp_frame(c)
    uj = 1.0 / q
    umax = max(cutoff, uj + 1.0)
    x_frame = -g.d / q
    zj = complex(float(c), 1.0 / q)
    return float(c), [
        _Segment(g, complex(x_frame, umax), complex(x_frame, uj)),
        _Segment(I2, zj, complex(float(c), H)),
    ]


def build_path(x: Endpoint, y: Endpoint, cutoff: float) -> list:
    """Segments from x to y: ascend from x, horizontal connector, descend to y."""
    H = 2.0
    for e in (x, y):
        if e.kind == "point":
            H = max(H, e.z.imag)
    ax, legs_x = _approach(x, H, cutoff)
    ay, legs_y = _approach(y, H, cutoff)
    path = list(legs_x)
    if ax != ay:
        path.append(_Segment(I2, complex(ax, H), complex(ay, H)))
    path.extend(seg.reversed() for seg in reversed(legs_y))
    return path


class _PathAntideriv:
    """Cumulative antiderivative along a segment chain, vanishing at the start."""

    def __init__(self, pws, jumps):
        self.pws = pws      # per-segment antiderivative PwPolys on [0, 1]
        self.jumps = jumps  # value accumulated before each segment

    def seg_eval(self, i, s):
        return self.jumps[i] + self.pws[i](s)

    @property
    def end_value(self):
        return self.jumps[-1] + self.pws[-1](1.0)


def _validate_t(t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    if np.any(t.imag >= 0):
        raise ValueError("t panel must lie strictly in the lower half plane")
    return t


def r_direct(forms, y, x, t, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """R_l(f_1,...,f_l; y, x; t) for the t panel; forms[0] is the outermost.

    Layered route: one adaptive pass per level along the path from x to y,
    each level's running antiderivative feeding the next.  Returns shape
    (len(t),).
    """
    t = _validate_t(t)
    forms = list(forms)
    y = Endpoint.coerce(y)
    x = Endpoint.coerce(x)
    if not forms:
        return np.ones(len(t), dtype=complex)
    if y == x:
        return np.zeros(len(t), dtype=complex)
    polw = sum(max(float(f.shifted_weight), 0.0) for f in forms) + len(forms) + 2
    path = build_path(x, y, cutoff_height(forms, polw, t, cfg.atol))

    inner = None  # level-0 inner factor is the constant 1
    for m in range(1, len(forms) + 1):
        f = forms[len(forms) - m]
        w = float(f.shifted_weight)
        pws = []
        jumps = []
        acc = np.zeros(len(t), dtype=complex)
        for i, seg in enumerate(path):
            def integrand(s, seg=seg, i=i):
                fv = seg.form_values([f], s)[0]
                zs = seg.z(s)
                base = (fv * seg.dz(s))[:, None] * zt_pow(zs[:, None], t[None, :], w)
                if inner is not None:
                    base = base * inner.seg_eval(i, s)
                return base
            pw = adaptive_pw(integrand, 0.0, 1.0, tol=cfg.quad_tol)
            A = pw.antiderivative()
            pws.append(A)
            jumps.append(acc.copy())
            acc = acc + A(1.0)
        inner = _PathAntideriv(pws, jumps)
    return inner.end_value


@dataclass(frozen=True)
class IterIntSpec:
    """A specific iterated integral: ordered forms and endpoints."""

    forms: tuple
    y: Endpoint
    x: Endpoint

    def r(self, t, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
        return r_direct(list(self.forms), self.y, self.x, t, cfg)


def path_split_check(forms, z, y, x, t, cfg: QuadConfig = QuadConfig()) -> dict:
    """Residual of splitting the order-l simplex at an intermediate point:

        R_l(forms; z, x) = sum_{j=0..l} R_j(forms[:j]; z, y) R_{l-j}(forms[j:]; y, x)

    Every term is an independent layered quadrature, so the identity is a
    genuine cross-check, not a rearrangement of one computation."""
    t = _validate_t(t)
    forms = list(forms)
    l = len(forms)
    total = r_direct(forms, z, x, t, cfg)
    acc = np.zeros_like(total)
    for j in range(l + 1):
        acc += r_direct(forms[:j], z, y, t, cfg) * r_direct(forms[j:], y, x, t, cfg)
    resid = np.abs(total - acc)
    return {
        "identity": f"path_split_{l}",
        "order": l,
        "panel": [[float(v.real), float(v.imag)] for v in t],
        "max": float(np.max(resid)),
        "scale": float(np.max(np.abs(total))),
    }


# ---------------------------------------------------------------------------
# generating series along a vertical ray


@lru_cache(maxsize=64)
def _ode_tables(words: GradedWords, support: tuple):
    """Gather/scatter plan of Omega J, one entry per (supported prefix B,
    word m = B C): the slot len(B) - 1, the index of m, the support index of
    B and the index of the suffix C, as aligned index arrays, plus the slot
    count."""
    slot, tgt, bidx, src = [], [], [], []
    for b, B in enumerate(support):
        k = len(B)
        for i in range(1, words.total):
            m = words.word(i)
            if len(m) >= k and m[:k] == B:
                slot.append(k - 1)
                tgt.append(i)
                bidx.append(b)
                src.append(words.index(m[k:]))
    arrays = tuple(np.asarray(v, dtype=np.intp) for v in (slot, tgt, bidx, src))
    return arrays + (max(len(B) for B in support),)


def _ode_rhs(tables, om_row, J):
    """-i Omega J for the rows J, shape (n_t, n_words), where om_row holds
    the kernel-weighted form of each support monomial, shape (n_t, n_support).

    A word has at most one prefix of each length, so the slots of the pad
    hold distinct targets; summing them in ascending prefix length adds each
    word's terms in the order of the (length-sorted) support."""
    slot, tgt, bidx, src, nslots = tables
    pad = np.zeros((J.shape[0], nslots, J.shape[1]), dtype=J.dtype)
    pad[:, slot, tgt] = om_row[:, bidx] * J[:, src]
    out = np.zeros_like(J)
    for k in range(nslots):
        out += pad[:, k]
    out *= -1j  # dz/ds = -i going down the ray
    return out


# Dormand-Prince 5(4) tableau
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = _DP_B - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp_combo(h, coefs, ks):
    """h * sum(c * k) over the nonzero coefficients, accumulated in place in
    term order."""
    acc = None
    for c, k in zip(coefs, ks):
        if not c:
            continue
        if acc is None:
            acc = c * k
        else:
            acc += c * k
    acc *= h
    return acc


def _collection_data(h):
    """Support monomials, their forms, and kernel powers w(B), aligned."""
    monos = tuple(h.support_monos)
    forms = list(h.support_forms)
    wvec = np.array([float(mono_weight(h.alphabet, m)) for m in monos])
    return monos, forms, wvec


def vertical_J(h, z0, t, D: int, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """J(h; z0, oo; t) for the t panel: coefficient rows, shape (n_t, n_words).

    Words are indexed by GradedWords(h.alphabet, D); row r is the truncated
    series at t[r].  Solves dJ/dz = Omega(z) J down the vertical ray from the
    cutoff height (where J = 1 holds to below atol) with an adaptive
    Dormand-Prince 5(4) stepper; the linear right side lets each step batch
    its five fresh form evaluations into one call.
    """
    t = _validate_t(t)
    z0 = complex(z0)
    if z0.imag <= 0:
        raise ValueError("base point must have Im z0 > 0")
    words = GradedWords(h.alphabet, D)
    monos, forms, wvec = _collection_data(h)
    if not monos:
        out = np.zeros((len(t), words.total), dtype=complex)
        out[:, 0] = 1.0
        return out

    tables = _ode_tables(words, monos)

    polw = D * max(float(np.max(wvec)), 0.0) + D + 2
    ymax = max(cutoff_height(forms, polw, t, cfg.atol), z0.imag + 1.0)
    x0 = z0.real
    L = ymax - z0.imag

    def omega_at(s_arr):
        """(npts, n_t, n_support) kernel-weighted form values at heights ymax - s."""
        z = x0 + 1j * (ymax - s_arr)
        fv = eval_forms(forms, z)  # (n_support, npts)
        logzt = np.log(z[:, None] - t[None, :])
        return fv.T[:, None, :] * np.exp(wvec[None, None, :] * logzt[:, :, None])

    dtype = np.clongdouble if cfg.extended else np.complex128
    J = np.zeros((len(t), words.total), dtype=dtype)
    J[:, 0] = 1.0
    s = 0.0
    h_step = min(1.0, L / 10)
    h_min = L / cfg.max_steps
    k1 = _ode_rhs(tables, omega_at(np.array([s]))[0], J)
    nsteps = 0
    while s < L - 1e-13 * L:
        if h_step < h_min and L - s > h_min:
            raise IterIntError(
                f"step underflow at height {ymax - s:.3f} (h = {h_step:.2e}); "
                "raise max_steps or loosen tolerances")
        h_step = min(h_step, L - s)
        om = omega_at(s + h_step * _DP_C)
        ks = [k1]
        for j, arow in enumerate(_DP_A):
            ks.append(_ode_rhs(tables, om[j], J + _dp_combo(h_step, arow, ks)))
        ynew = J + _dp_combo(h_step, _DP_B, ks)
        ks.append(_ode_rhs(tables, om[4], ynew))  # FSAL stage, same height as stage 6
        errv = _dp_combo(h_step, _DP_E, ks)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(J), np.abs(ynew))
        err = float(np.max(np.abs(errv) / scale))
        if not math.isfinite(err):
            raise IterIntError(f"ODE state went non-finite at height {ymax - s:.3f}")
        if err <= 1.0:
            s += h_step
            J = ynew
            k1 = ks[-1]
            nsteps += 1
            if nsteps > cfg.max_steps:
                raise IterIntError("step budget exhausted")
        h_step *= float(np.clip(0.9 * max(err, 1e-10) ** -0.2, 0.2, 5.0))

    return J.astype(np.complex128) if not cfg.extended else J
