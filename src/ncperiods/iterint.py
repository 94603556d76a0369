"""Iterated integrals of cusp forms along hyperbolic paths.

Two independent routes to the same quantities, kept separate on purpose so
they can cross-check each other:

* j_rows_direct: the generating series J(h; y, x; t) by layered
  quadrature, from the integral form of dJ = Omega J along a fixed path from
  x to y.  The running antiderivative of a word m is

      J_m(z) = int_x^z sum_{m = B C} h(B)(u) (u-t)^w(B) J_C(u) du,

  summed over the supported prefixes B of m, with J_() = 1: one
  one-dimensional adaptive pass per degree and path segment, integrating all
  words of that degree at once against the antiderivatives of the lower
  degrees, not a nested mesh.  r_direct, the iterated integral
  R_l(f_1,...,f_l; y, x; t), is the chain case: one column per level, level
  m integrating f_{l-m+1}(z) (z-t)^w against level m-1.

* vertical_J: the full generating series J(h; z0, oo; t) of all words up to
  degree D at once, as the solution of dJ/dz = Omega(z) J integrated down a
  vertical ray from a certified cutoff height, J(cutoff) = 1.  Omega raises
  word degree, so on each Chebyshev panel D Picard sweeps, one per degree,
  are exact up to the panel's interpolation error; rtol/atol set how finely
  the panels resolve the integrand, in one test per panel after the sweeps.
  The panels have 24 nodes: the integrand is entire in z, so a higher order
  means fewer, wider panels, which is nearly all gain where a ray pays
  Python overhead per panel, while the sweep product on wide row groups
  grows as the order squared and outweighs the saving past 24.
  The kernel is the power (z - t)**w (repeated squaring at the integer
  weights of trivial multipliers), the panel's scaling dz/dx rides on the
  form values it caches, and the row groups of one call, solved in an order
  fixed by their points, try first the widths earlier groups accepted.

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

import numpy as np
from numpy.polynomial import chebyshev

from .modforms import eval_forms, transformation_factor
from .ncpoly import GradedWords, mono_weight, series_block
from .quadrature import adaptive_pw
from .sl2z import I2, GroupElement

__all__ = [
    "QuadConfig",
    "IterIntError",
    "Endpoint",
    "cusp_frame",
    "cutoff_height",
    "series_weight",
    "validate_panel",
    "zt_pow",
    "r_direct",
    "j_rows_direct",
    "identity_report",
    "report_passes",
    "path_split_check",
    "vertical_J",
]


class IterIntError(Exception):
    pass


@dataclass(frozen=True)
class QuadConfig:
    """Numerical knobs shared by both integration routes.

    rtol/atol are the panel resolution criterion of the ray ODE: a Chebyshev
    panel is accepted when the trailing coefficients of its integrand stay
    below atol + rtol |J|; quad_tol is the panel resolution criterion of the
    layered route; atol also sets where both routes cut the path off at the
    cusp (see cutoff_height).
    """

    rtol: float = 1e-9
    atol: float = 1e-11
    quad_tol: float = 1e-11


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
        if not (np.isfinite(z) and z.imag > 0):
            raise ValueError(f"{z} is not a finite point of the upper half plane")
        return Endpoint("point", z=z)

    @staticmethod
    def cusp(c) -> "Endpoint":
        return Endpoint("cusp", cusp_value=None if c is None else Fraction(c))

    @staticmethod
    def coerce(v) -> "Endpoint":
        if isinstance(v, Endpoint):
            return v
        if v is None or isinstance(v, (Fraction, int)):
            return Endpoint.cusp(v)
        return Endpoint.point(v)

    @property
    def is_infinity(self) -> bool:
        return self.kind == "cusp" and self.cusp_value is None


def cusp_frame(c: Fraction) -> GroupElement:
    """gamma with gamma(oo) = c = p/q, q > 0, deterministic choice of column."""
    c = Fraction(c)
    p, q = c.numerator, c.denominator
    # d = p^{-1} mod q in [0, q), b = (p d - 1) / q
    d = pow(p % q, -1, q) if q > 1 else 0
    b = (p * d - 1) // q
    return GroupElement(p, b, q, d)


def zt_pow(z, t, w):
    """(z - t)^w, principal branch, broadcast over z, t and w (exactly 1 at
    w = 0); safe since Im z > 0 > Im t keeps the base off the cut."""
    return np.exp(np.asarray(w) * np.log(np.asarray(z) - np.asarray(t)))


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

    def form_values(self, forms, s):
        """(n_forms, npts) values of the forms at the true points z(s)."""
        tau = self.tau(np.atleast_1d(s))
        vals = eval_forms(forms, tau)
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
    if not atol > 0:
        raise ValueError(f"atol must be > 0, got {atol!r}: the cutoff height would be infinite")
    kappa = min(f.kappa_min for f in forms)
    C = max(f.decay_C for f in forms)
    tfac = 1.0 if t is None else 1.0 + float(np.max(np.abs(t)))
    tol = atol * 1e-2
    two_pi_k = 2 * math.pi * kappa
    Y = max(3.0, math.log(max(C, 1.0) / tol) / two_pi_k)
    for _ in range(3):
        Y = max(3.0, (math.log(max(C, 1.0) / tol) + polw * math.log(max(Y * tfac, 2.0))) / two_pi_k)
    return Y + 1.0


def series_weight(weights, D: int) -> float:
    """Polynomial weight of a degree-D series over forms of the given shifted
    weights: D kernels of weight at most max w, plus D + 2."""
    return D * max(max(float(w) for w in weights), 0.0) + D + 2


def _series_cutoff(h, D: int, t, atol: float) -> float:
    """cutoff_height of collection h's whole support for its degree-D series."""
    polw = series_weight((f.shifted_weight for f in h.support_forms), D)
    return cutoff_height(h.support_forms, polw, t, atol)


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


def validate_panel(t) -> np.ndarray:
    """t as a nonempty 1-d complex panel whose points are finite with Im t < 0."""
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    if not len(t):
        raise ValueError("empty panel")
    bad = ~(np.isfinite(t) & (t.imag < 0))
    if np.any(bad):
        raise ValueError(f"panel point {t[bad][0]} is not a finite point of the lower half plane")
    return t


def _layers(path, t, level_forms, block, cfg: QuadConfig) -> list:
    """End values of the running antiderivatives of degrees 1..D along the
    path, each (n_t, n_cols), where level_forms[d-1] lists the forms degree d
    reads: one adaptive pass per degree and segment.

    At a node set of a segment those forms are evaluated once, giving kern,
    the (npts, n_t, n_forms) values f(z) (z-t)^w(f) dz/ds, and every lower
    degree's antiderivative is read once into lower, the (npts, n_t, ...)
    concatenation of degrees 0..d-1 (degree 0 the constant 1); block(d, kern,
    lower) is degree d's integrand."""
    antis = []  # per degree: antiderivative PwPolys on [0, 1] and the value before each segment
    ends = []
    for d, forms in enumerate(level_forms, start=1):
        w = np.array([float(f.shifted_weight) for f in forms])
        pws = []
        jumps = []
        acc = 0.0
        for i, seg in enumerate(path):
            def integrand(s, seg=seg, i=i):
                kern = ((seg.form_values(forms, s) * seg.dz(s)).T[:, None, :]
                        * zt_pow(seg.z(s)[:, None, None], t[:, None], w))
                lower = [np.ones(kern.shape[:2] + (1,))]
                lower += [jump[i] + pw[i](s) for pw, jump in antis]
                return block(d, kern, np.concatenate(lower, axis=-1))
            A = adaptive_pw(integrand, 0.0, 1.0, tol=cfg.quad_tol).antiderivative()
            pws.append(A)
            jumps.append(acc)
            acc = acc + A(1.0)
        antis.append((pws, jumps))
        ends.append(acc)
    return ends


def r_direct(forms, y, x, t, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """R_l(f_1,...,f_l; y, x; t) for the t panel; forms[0] is the outermost.

    Layered route, the chain case of j_rows_direct: one column per level and
    one adaptive pass per level and path segment, level d integrating
    f_{l-d+1}(z) (z-t)^w against level d-1.  Returns shape (len(t),).
    """
    t = validate_panel(t)
    forms = list(forms)
    y = Endpoint.coerce(y)
    x = Endpoint.coerce(x)
    if not forms:
        return np.ones(len(t), dtype=complex)
    if y == x:
        return np.zeros(len(t), dtype=complex)
    polw = sum(max(float(f.shifted_weight), 0.0) for f in forms) + len(forms) + 2
    path = build_path(x, y, cutoff_height(forms, polw, t, cfg.atol))
    ends = _layers(path, t, [[f] for f in reversed(forms)],
                   lambda d, kern, lower: kern * lower[..., [d - 1]], cfg)
    return ends[-1][:, 0]


def j_rows_direct(h, y, x, t, D: int, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """J(h; y, x; t) rows, shape (n_t, n_words), by layered quadrature; the
    oracle for vertical_J.

    The running antiderivative of word m is the integral of the sum over its
    supported prefixes B, m = B C, of h(B)(z) (z-t)^w(B) times the running
    antiderivative of C (1 for empty C).  All words of degree d form one
    vector integrand, the series_block product of the support's kernels with
    the lower degrees' antiderivatives: one adaptive pass per degree and path
    segment, with one form evaluation serving the whole support.
    """
    t = validate_panel(t)
    y = Endpoint.coerce(y)
    x = Endpoint.coerce(x)
    words = GradedWords(h.alphabet, D)
    out = words.unit_rows(len(t))
    support = [(m, f) for m, f in h.support if len(m) <= D]
    if y == x or not support:
        return out
    cols = [words.index(m) for m, _ in support]
    degrees = sorted({len(m) for m, _ in support})
    n_om = words.block(degrees[-1]).stop

    def block(d, kern, lower):
        om = np.zeros(kern.shape[:2] + (n_om,), dtype=complex)
        om[..., cols] = kern
        return series_block(words, om, lower, d, degrees)

    path = build_path(x, y, _series_cutoff(h, D, t, cfg.atol))
    ends = _layers(path, t, [[f for _, f in support]] * D, block, cfg)
    out[:, words.block(1).start:] = np.concatenate(ends, axis=-1)
    return out


def identity_report(identity: str, lhs, rhs, t, words: GradedWords | None = None,
                    **extra) -> dict:
    """The report of one identity check lhs = rhs on the panel t.

    max is max |lhs - rhs| and scale the largest |entry| on either side; for
    word-indexed rows (words given) the report adds the truncation degree
    and the per-degree maxima.  report_passes judges it."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    resid = np.abs(lhs - rhs)
    rep = {
        "identity": identity,
        "panel": [[float(x.real), float(x.imag)] for x in np.atleast_1d(t)],
        "max": float(np.max(resid)),
        "scale": float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))),
    }
    if words is not None:
        rep["degree"] = words.D
        rep["per_degree_max"] = [float(np.max(resid[:, words.block(d)]))
                                 for d in range(words.D + 1)]
    rep.update(extra)
    return rep


def report_passes(rep: dict, threshold: float) -> bool:
    """The pass rule of every identity report: max / max(1, scale) <= threshold
    (a NaN residual fails)."""
    return rep["max"] / max(1.0, rep["scale"]) <= threshold


def path_split_check(forms, z, y, x, t, cfg: QuadConfig = QuadConfig()) -> dict:
    """Residual of splitting the order-l simplex at an intermediate point:

        R_l(forms; z, x) = sum_{j=0..l} R_j(forms[:j]; z, y) R_{l-j}(forms[j:]; y, x)

    Every term is an independent layered quadrature, so the identity is a
    genuine cross-check, not a rearrangement of one computation."""
    t = validate_panel(t)
    forms = list(forms)
    l = len(forms)
    total = r_direct(forms, z, x, t, cfg)
    acc = np.zeros_like(total)
    for j in range(l + 1):
        acc += r_direct(forms[:j], z, y, t, cfg) * r_direct(forms[j:], y, x, t, cfg)
    return identity_report(f"path_split_{l}", total, acc, t, order=l)


# ---------------------------------------------------------------------------
# generating series along a vertical ray


# Chebyshev-Picard panels on _NODES second-kind points x_k of [-1, 1], both
# ends included.  The T_j are discretely orthogonal on these points, which
# gives the map from values to interpolant coefficients in closed form (end
# points and first and last coefficients halved; no linear solve, so
# importing the module loads no LAPACK).  _CHEB_INT takes integrand values to
# the integral of their interpolant from -1 to each point (row 0, from -1 to
# -1, exactly 0); _CHEB_TAIL to the two trailing coefficients.
#
# The order.  The integrand is entire in z, so a higher order buys wider
# panels.  Panels tried (rejected) in one seed-13 operation of the perfbench
# workloads, and the median over three 10 s runs of the median wall time of
# one operation, on a 2-core machine:
#   nodes   roundtrip              psi_wide
#   16      531 (118)  0.25 s      2,025 (49)  0.96 s
#   20      382 (105)  0.20 s      1,393 (43)  0.77 s
#   24      299  (86)  0.17 s      1,089 (40)  0.75 s
#   28      264  (79)  0.16 s        944 (33)  0.79 s
#   32      235  (70)  0.18 s        887 (23)  0.97 s
# roundtrip solves one row group per ray and pays Python overhead on every
# panel, so fewer panels are nearly all gain there.  psi_wide pays the
# (N+2) x N sweep product on 32 x 31-word row groups, which grows as N^2:
# past 24 it costs more than the fewer panels save.  24 is the fastest on
# psi_wide and within the runs' spread of the fastest on roundtrip.
_NODES = 24
_CHEB_X = chebyshev.chebpts2(_NODES)
_VALS_TO_COEFS = chebyshev.chebvander(_CHEB_X, _NODES - 1).T * (2.0 / (_NODES - 1))
_VALS_TO_COEFS[:, [0, -1]] /= 2
_VALS_TO_COEFS[[0, -1]] /= 2
_CHEB_INT = chebyshev.chebval(_CHEB_X, chebyshev.chebint(_VALS_TO_COEFS, lbnd=-1)).T
_CHEB_INT[0] = 0.0
_CHEB_TAIL = _VALS_TO_COEFS[-2:]
# A Picard sweep is one real product with _SWEEP, or _SWEEP_TOP for the top
# degree, which needs only the panel end, on integrand values that already
# carry the panel's dz/dx = -i width/2.  It gives the integrals from the
# panel start, then the two trailing coefficients times 2, so that the sum
# of their absolute values is width (|c_{N-2}| + |c_{N-1}|) of the integrand
# in x, N = _NODES.
_SWEEP = np.concatenate([_CHEB_INT, 2 * _CHEB_TAIL])
_SWEEP_TOP = np.concatenate([_CHEB_INT[-1:], 2 * _CHEB_TAIL])
# a smooth integrand at height y is analytic in the disk of radius y about
# it, so it is resolved on panels far wider than this share of y
_MIN_WIDTH = 2.0**-20
# panel points solved at once, bounding the (nodes, points, words) arrays:
# at 64 a 256-point psi grid peaked 1.4 MB higher in memory, and the row
# groups already share form values and accepted widths, so more rows per
# group saves little
_MAX_ROWS = 32


def _real_rows(M, g) -> np.ndarray:
    """M @ g over the node axis for a real matrix M and complex g: one real
    product on g's float view, half the flops of the complex one."""
    out = M @ g.view(np.float64).reshape(len(g), -1)
    return out.view(complex).reshape((len(M),) + g.shape[1:])


def vertical_J(h, z0, t, D: int, cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """J(h; z0, oo; t) for the t panel: coefficient rows, shape (n_t, n_words).

    Words are indexed by GradedWords(h.alphabet, D); row r is the truncated
    series at t[r].  Solves dJ/dz = Omega(z) J down the vertical ray from the
    cutoff height (where J = 1 holds to below atol) on adaptive Chebyshev
    panels.  Omega raises word degree, so on each panel block k of J is the
    exact integral of Omega J read from the blocks below k: one form
    evaluation at the panel's points, then one Picard sweep per degree, each
    the series_block product over the support's degrees.  A panel has
    _NODES = 24 nodes: fewer, wider panels cost less Python overhead, and
    past 24 the sweep product on wide row groups, which grows as the order
    squared, costs more than they save.  The kernel is (z - t)**w, which
    numpy takes by repeated squaring for the integer weights of trivial
    multipliers and by the general complex power for fractional ones; the
    panel's dz/dx = -i width/2 is folded into the form values once, so a
    sweep is one real product with _SWEEP.  The top degree feeds no later
    sweep, so its sweep integrates to the panel end only and the panel's
    nodes hold only the blocks below it.  After the D sweeps one
    test accepts the panel when the trailing Chebyshev coefficients of every
    integrand block stay below atol + rtol |J| (J at either end); a rejected
    panel is halved.  The panel points are solved _MAX_ROWS at a time, each
    group on its own panels, which bounds the (nodes, points, words) arrays.
    Within the call, groups that step onto the same panel (y, width) share
    its form values, and a group that was not just rejected at a height
    first tries the width an earlier group accepted there.  The groups run in
    the order of their points' bytes, so the rows do not depend on where in
    t a group stands.
    """
    t = validate_panel(t)
    z0 = Endpoint.point(z0).z
    words = GradedWords(h.alphabet, D)
    monos = tuple(h.support_monos)
    if not monos:
        return words.unit_rows(len(t))

    forms = list(h.support_forms)
    ymax = max(_series_cutoff(h, D, t, cfg.atol), z0.imag + 1.0)
    L = ymax - z0.imag
    # Omega: the support truncated at D (the cutoff above keeps the whole
    # support), held up to its top degree (a buffer of all words only crowds
    # the cache)
    keep = [b for b, m in enumerate(monos) if len(m) <= D]
    wvec = np.array([float(mono_weight(h.alphabet, monos[b])) for b in keep])  # kernel powers w(B)
    cols = [words.index(monos[b]) for b in keep]
    degrees = sorted({len(monos[b]) for b in keep})
    n_om = words.block(max(degrees, default=0)).stop
    below = words.block(D).start
    form_vals = {}  # (y, width) -> (_NODES, len(keep)) support values at the panel's nodes, times dz/dx
    accepted = {}  # y -> the width the first group to pass height y accepted there

    def solve(tc):
        """The ray for the panel points tc, from J = 1 at the cutoff height."""
        J = words.unit_rows(len(tc))
        om = np.zeros((_NODES, len(tc), n_om), dtype=complex)  # Omega at the panel's nodes
        tails = np.zeros((2,) + J.shape, dtype=complex)  # the sweeps' trailing coefficients
        s = 0.0
        width = min(1.0, L / 10)
        rejected = False
        while L - s > 1e-13 * L:
            y = ymax - s
            if not rejected:
                width = accepted.get(y, width)
            if width < _MIN_WIDTH * y:
                raise IterIntError(f"ray unresolved at height {y:.3f}: panel width {width:.2e} "
                                   "and the integrand's Chebyshev tail still above tolerance")
            width = min(width, L - s)  # a short last panel is not a failure to resolve
            z = z0.real + 1j * (y - (_CHEB_X + 1) * (width / 2))
            if (y, width) not in form_vals:
                form_vals[y, width] = eval_forms(forms, z)[keep].T * (-0.5j * width)
            om[:, :, cols] = form_vals[y, width][:, None, :] * (z[:, None] - tc)[:, :, None] ** wvec
            # the top degree feeds no later sweep: the nodes hold only the
            # blocks below it, and its sweep only the panel end
            nodes = np.repeat(J[None, :, :below], _NODES, axis=0)
            end_top = J[:, below:].copy()
            for k in range(1, D + 1):
                # block k of Omega J reads only the blocks of J below k
                g = series_block(words, om, nodes, k, degrees)
                sweep = _real_rows(_SWEEP_TOP if k == D else _SWEEP, g)
                blk = end_top[None] if k == D else nodes[:, :, words.block(k)]
                blk += sweep[:-2]
                tails[:, :, words.block(k)] = sweep[-2:]
            end = np.concatenate([nodes[-1], end_top], axis=1)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(J), np.abs(end))
            err = float(np.max((np.abs(tails[0]) + np.abs(tails[1])) / scale))
            if not math.isfinite(err):
                raise IterIntError(f"ODE state went non-finite at height {y:.3f}")
            rejected = err > 1.0
            if rejected:
                width /= 2
                continue
            accepted.setdefault(y, width)
            s += width
            J = end
            # the tail shrinks like width^_NODES: grow towards a 1e-3 tail, at most twofold
            width *= min(2.0, max(1.0, (1e-3 / max(err, 1e-300)) ** (1 / _NODES)))
        return J

    groups = [t[i:i + _MAX_ROWS] for i in range(0, len(t), _MAX_ROWS)]
    rows = [None] * len(groups)
    for i in sorted(range(len(groups)), key=lambda i: groups[i].tobytes()):
        rows[i] = solve(groups[i])
    return np.concatenate(rows)
