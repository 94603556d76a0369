"""Adaptive piecewise-Legendre quadrature on real intervals.

Each panel stores a degree-15 Legendre series fitted through 16-point
Gauss-Legendre samples; the transform node-values -> coefficients is exact
for polynomials of degree <= 15, so the top two coefficients measure how
unresolved the panel is.  Antiderivatives stay in the same representation,
which is what makes layered iterated integrals cheap: integrate once, then
reevaluate the antiderivative anywhere.

Every panel has the same order, so the fit (TMAT) and the antiderivative
(LEGINT) are fixed matrices, each applied to all panels in one product.
Both reads, the pointwise one (PwPoly.__call__) and the panel read
(gauss_values, the values at the Gauss nodes of sub-panels, each inside one
panel), run one kernel: rows of points, each row in one panel, whose panel
coordinates go through the Legendre three-term recurrence and whose rows
contract with their panel's coefficients in one batched matmul, in blocks
of rows whose gathered coefficients stay under READ_BYTES.  A panel read
gathers one coefficient block per sub-panel, not per node, which is how two
piecewise series are read on their merged breaks, where Gauss integrates
their product exactly.

One build may cover several abutting intervals (adaptive_pw with an array of
ends): each interval keeps its own running scale and limits, as if built
alone, while every round fits all intervals' pending panels with one call of
the integrand, which is how a path of several segments costs one pass per
round instead of one per segment.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as L

__all__ = ["NPTS", "NODES", "WEIGHTS", "MAX_PANELS", "MIN_WIDTH", "INIT_PANELS",
           "READ_BYTES", "PwPoly", "QuadratureError", "adaptive_pw"]

NPTS = 16
NODES, WEIGHTS = L.leggauss(NPTS)
MAX_PANELS = 4096
MIN_WIDTH = 1e-12
INIT_PANELS = 4
READ_BYTES = 1 << 18  # a read gathers at most this many bytes of panel coefficients at once

# row k: (2k+1)/2 * w_i * P_k(x_i); TMAT @ values == Legendre coefficients
TMAT = L.legvander(NODES, NPTS - 1).T * WEIGHTS * (np.arange(NPTS) + 0.5)[:, None]
# column j: antiderivative of P_j on [-1, 1] vanishing at -1 (NPTS + 1 rows)
LEGINT = L.legint(np.eye(NPTS), lbnd=-1)


class QuadratureError(Exception):
    """The integrand did not resolve within MAX_PANELS panels on an interval,
    or a panel still unresolved would have to split below MIN_WIDTH; interval
    is the index of the interval of adaptive_pw's build where it stopped."""

    def __init__(self, message: str, interval: int):
        super().__init__(message)
        self.interval = int(interval)


class PwPoly:
    """Piecewise Legendre series over [breaks[0], breaks[-1]].

    coeffs has shape (K, ncoef, *extra): panel, Legendre degree, then any
    value dimensions (e.g. one axis for a batch of t arguments).
    """

    def __init__(self, breaks: np.ndarray, coeffs: np.ndarray):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = np.asarray(coeffs)
        if self.coeffs.shape[0] != len(self.breaks) - 1:
            raise ValueError("panel count mismatch")

    def _read(self, idx, s) -> np.ndarray:
        """Values at the points s, shape (n, m), as (n, m, *extra): row j is
        read from panel idx[j]'s series, extrapolated past its ends.

        The rows' panel coefficients are gathered in blocks of rows that take
        at most READ_BYTES (one row at least); a row's values do not depend
        on its block or on the other rows."""
        K, ncoef = self.coeffs.shape[:2]
        a, b = self.breaks[idx][:, None], self.breaks[idx + 1][:, None]
        x = (2 * s - a - b) / (b - a)
        # legvander's own three-term recurrence, so V is the same bit for bit;
        # one point runs it on a numpy scalar, ten times faster than on an array
        x = x[0, 0] if x.size == 1 else x
        P = [x * 0 + 1, x]
        for i in range(2, ncoef):
            P.append((P[i - 1] * x * (2 * i - 1) - P[i - 2] * (i - 1)) / i)
        V = np.ascontiguousarray(np.array(P).reshape(ncoef, -1).T).reshape(s.shape + (ncoef,))
        c = self.coeffs.reshape(K, ncoef, -1)
        out = np.empty(s.shape + c.shape[2:], dtype=np.result_type(V, c))
        block = max(1, READ_BYTES // c[0].nbytes)
        for i in range(0, len(s), block):
            np.matmul(V[i:i + block], c[idx[i:i + block]], out=out[i:i + block])
        return out.reshape(s.shape + self.coeffs.shape[2:])

    def __call__(self, s):
        """Values at s; points outside the breaks extrapolate the edge panel."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        # the panel of each point, the edge panels extended beyond the ends
        idx = np.searchsorted(self.breaks[1:-1], s, side="right")
        out = self._read(idx, s[:, None])[:, 0]
        return out[0] if scalar else out

    def gauss_values(self, lo, hi) -> np.ndarray:
        """Values at the NPTS Gauss nodes of each sub-panel [lo[j], hi[j]],
        shape (len(lo), NPTS, *extra); nodes as adaptive_pw places them.

        Each sub-panel must lie inside one panel (ValueError otherwise) and
        is one row of the read: one (NPTS, ncoef) Legendre table in its
        panel's coordinate and one gathered coefficient block, so a
        sub-panel's values do not depend on the others read with it."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        idx = np.searchsorted(self.breaks, lo, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.coeffs))
        idx = np.where(inside, idx, 0)
        bad = np.flatnonzero(~(inside & (lo < hi) & (hi <= self.breaks[idx + 1])))
        if len(bad):
            j = bad[0]
            raise ValueError(f"sub-panel [{lo[j]}, {hi[j]}] does not lie inside one panel "
                             f"of the breaks [{self.breaks[0]}, ..., {self.breaks[-1]}]")
        return self._read(idx, NODES * ((hi - lo) / 2)[:, None] + ((hi + lo) / 2)[:, None])

    def antiderivative(self) -> "PwPoly":
        """Antiderivative vanishing at breaks[0], continuous across panels."""
        K, ncoef = self.coeffs.shape[:2]
        half = (np.diff(self.breaks) / 2).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        scaled = (self.coeffs * half).reshape(K, ncoef, -1)
        out = (LEGINT @ scaled).reshape((K, ncoef + 1) + self.coeffs.shape[2:])
        # integral of panel p is width * c0 (only P_0 survives over [-1,1])
        out[1:, 0] += np.cumsum(2 * half[:, 0] * self.coeffs[:, 0], axis=0)[:-1]
        return PwPoly(self.breaks, out)


def adaptive_pw(fun, a: float, b, tol: float) -> PwPoly:
    """Build a PwPoly for fun on [a, b] by bisection until resolved.

    b is one end, or an ascending array of interval ends, in which case the
    build covers [a, b[0]], [b[0], b[1]], ... and the PwPoly's breaks hold
    every end.  Each interval is its own build: it starts from INIT_PANELS
    equal panels, no panel crosses its ends, and it keeps its own running
    scale, its own count against MAX_PANELS and its own MIN_WIDTH refusal,
    so its panels are accepted or split exactly as a build on that interval
    alone decides; the intervals share only the rounds.

    fun maps a flat array of parameter values to (npts, *extra) samples;
    each round evaluates every pending panel's 16 nodes, over all intervals,
    in a single call and fits them in one product.  A panel is accepted when
    |c[14]| + |c[15]| <= tol * scale in every value column, with scale the
    running max coefficient magnitude over its interval's build in panel
    order (so the criterion is relative to the integrand's size on the
    interval, not per-panel).  More than MAX_PANELS panels on an interval,
    or a panel that would have to split below MIN_WIDTH, raises
    QuadratureError naming the interval.
    """
    ends = np.concatenate([[a], np.atleast_1d(np.asarray(b, dtype=float))])
    if not np.all(ends[1:] > ends[:-1]):
        raise ValueError("need ascending interval ends, b > a")
    n_iv = len(ends) - 1
    edges = np.linspace(ends[:-1], ends[1:], INIT_PANELS + 1)  # column k: interval k's panels
    lo, hi = edges[:-1].T.ravel(), edges[1:].T.ravel()
    iv = np.repeat(np.arange(n_iv), INIT_PANELS)  # each pending panel's interval, ascending
    acc_lo, acc_c = [], []  # each round's accepted panels
    n_done = 0
    scale = [0.0] * n_iv  # per interval: the running max coefficient magnitude
    while len(lo):
        bounds = np.searchsorted(iv, np.arange(n_iv + 1))  # interval k pends bounds[k]:bounds[k + 1]
        if n_done + len(lo) > MAX_PANELS:  # only then can an interval exceed it
            done = np.concatenate(acc_lo) if acc_lo else lo[:0]
            per_iv = np.bincount(np.searchsorted(ends, done, "right") - 1, minlength=n_iv)
            over = np.flatnonzero(per_iv + np.diff(bounds) > MAX_PANELS)
            if len(over):
                k = over[0]
                raise QuadratureError(
                    f"exceeded {MAX_PANELS} panels on [{ends[k]}, {ends[k + 1]}]; "
                    f"integrand too rough for tol={tol:.1e}", k)
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = np.asarray(fun(pts))
        vals = vals.reshape((len(lo), NPTS) + vals.shape[1:])
        coeffs = np.moveaxis(np.tensordot(TMAT, vals, axes=([1], [1])), 0, 1)
        absc = np.abs(coeffs).reshape(len(lo), NPTS, -1)
        tails = (absc[:, -2] + absc[:, -1]).max(axis=1)
        # per panel: the largest coefficient, turned in place into the running
        # scale in panel order within its interval
        running = absc.max(axis=(1, 2))
        for k in range(n_iv):
            r = running[bounds[k]:bounds[k + 1]]
            if len(r):
                np.maximum(np.maximum.accumulate(r, out=r), scale[k], out=r)
                scale[k] = r[-1]
        split = ~(tails <= tol * np.maximum(running, 1e-300))
        stuck = np.flatnonzero(split & (hi - lo <= MIN_WIDTH))
        if len(stuck):
            i = stuck[0]
            k = iv[i]
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] of [{ends[k]}, {ends[k + 1]}] still unresolved at width "
                f"{hi[i] - lo[i]:.1e} <= MIN_WIDTH; integrand too rough for tol={tol:.1e}", k)
        keep = ~split
        acc_lo.append(lo[keep])
        acc_c.append(coeffs[keep])
        n_done += len(acc_lo[-1])
        mid = (lo[split] + hi[split]) / 2
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        iv = np.repeat(iv[split], 2)
    lo = np.concatenate(acc_lo)
    order = np.argsort(lo, kind="stable")
    breaks = np.append(lo[order], ends[-1])
    return PwPoly(breaks, np.concatenate(acc_c)[order])
