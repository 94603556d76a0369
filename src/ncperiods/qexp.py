"""Exact integer/rational q-expansion arithmetic.

Everything here is big-integer or Fraction work: eta products, Eisenstein
series with exact Bernoulli numbers, and echelonized cusp/modular bases built
from Delta * E4^b * E6^c monomials.  Floats enter only when these series are
wrapped into evaluable forms one layer up.

Series are plain lists c[0..M] of coefficients of q^0..q^M relative to a
leading exponent tracked by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "mul_trunc",
    "pow_trunc",
    "eta_power_coeffs",
    "bernoulli",
    "eisenstein_coeffs",
    "delta_coeffs",
    "dim_modular",
    "dim_cusp",
    "modular_basis_coeffs",
    "cusp_basis_coeffs",
]


def mul_trunc(a: list, b: list, M: int) -> list:
    out = [0] * (M + 1)
    for i, ai in enumerate(a[: M + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: M + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def pow_trunc(a: list, e: int, M: int) -> list:
    out = [1] + [0] * M
    base = list(a[: M + 1]) + [0] * (M + 1 - len(a))
    while e:
        if e & 1:
            out = mul_trunc(out, base, M)
        e >>= 1
        if e:
            base = mul_trunc(base, base, M)
    return out


@lru_cache(maxsize=None)
def _eta_product(M: int) -> tuple:
    """prod_{n>=1} (1 - q^n) truncated at q^M, by sparse in-place updates."""
    c = [0] * (M + 1)
    c[0] = 1
    for n in range(1, M + 1):
        for k in range(M, n - 1, -1):
            c[k] -= c[k - n]
    return tuple(c)


@lru_cache(maxsize=None)
def eta_power_coeffs(N: int, M: int) -> tuple:
    """Coefficients of prod (1-q^n)^N to q^M; eta^N = q^(N/24) times this."""
    if not 1 <= N <= 24:
        raise ValueError("N must be in 1..24")
    return tuple(pow_trunc(list(_eta_product(M)), N, M))


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number, B1 = -1/2 convention."""
    if m == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    s = Fraction(0)
    for j in range(m):
        s += comb(m + 1, j) * bernoulli(j)
    return -s / (m + 1)


def _sigma(n: int, k: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


@lru_cache(maxsize=None)
def eisenstein_coeffs(k: int, M: int) -> tuple:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact."""
    if k < 2 or k % 2:
        raise ValueError("even k >= 2 required")
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)] + [factor * _sigma(n, k - 1) for n in range(1, M + 1)]
    if all(c.denominator == 1 for c in coeffs):
        return tuple(int(c) for c in coeffs)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def delta_coeffs(M: int) -> tuple:
    """tau(n+1) for n = 0..M: Delta = q * prod (1-q^n)^24."""
    return eta_power_coeffs(24, M)


def dim_modular(k: int) -> int:
    """dim M_k(SL2(Z)), 0 for odd or negative k."""
    if k < 0 or k % 2:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


def dim_cusp(k: int) -> int:
    """dim S_k(SL2(Z))."""
    if k < 4 or k % 2:
        return 0
    return dim_modular(k) - 1


def _echelonize(rows: list, dim: int, M: int) -> list:
    """Reduced echelon over Q: returns dim rows with row r = q^(pivot_r) + ...

    rows are coefficient lists on a common q-power grid; pivots are taken
    left to right.  Raises if fewer than dim independent rows are found.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    out = []
    col = 0
    while len(out) < dim and col <= M:
        piv = None
        for r in work:
            if r[col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        work.remove(piv)
        inv = Fraction(1) / piv[col]
        piv = [x * inv for x in piv]
        for r in work:
            f = r[col]
            if f:
                for i in range(col, M + 1):
                    r[i] -= f * piv[i]
        for r in out:
            f = r[col]
            if f:
                for i in range(col, M + 1):
                    r[i] -= f * piv[i]
        out.append(piv)
        col += 1
    if len(out) < dim:
        raise ValueError("echelonization found too few independent rows")
    return out


def _monomial_series(a: int, b: int, c: int, M: int) -> list:
    s = pow_trunc(list(delta_coeffs(M)), a, M) if a else [1] + [0] * M
    # Delta^a starts at q^a: shift
    if a:
        s = [0] * a + s[: M + 1 - a]
    if b:
        s = mul_trunc(s, pow_trunc(list(eisenstein_coeffs(4, M)), b, M), M)
    if c:
        s = mul_trunc(s, pow_trunc(list(eisenstein_coeffs(6, M)), c, M), M)
    return s


def _echelon_basis(k: int, M: int, a_min: int, dim: int) -> tuple:
    """Echelon basis of the span of the weight-k monomials Delta^a E4^b E6^c
    with a >= a_min, as q^0..q^M coefficient rows."""
    if dim == 0:
        return ()
    rows = []
    for a in range(a_min, k // 12 + 1):
        r = k - 12 * a
        for c in range(r // 6 + 1):
            if (r - 6 * c) % 4 == 0:
                rows.append(_monomial_series(a, (r - 6 * c) // 4, c, M))
    return tuple(tuple(row) for row in _echelonize(rows, dim, M))


@lru_cache(maxsize=None)
def modular_basis_coeffs(k: int, M: int) -> tuple:
    """Echelon basis of M_k(SL2(Z)) as q^0..q^M coefficient rows."""
    return _echelon_basis(k, M, 0, dim_modular(k))


@lru_cache(maxsize=None)
def cusp_basis_coeffs(k: int, M: int) -> tuple:
    """Echelon basis of S_k(SL2(Z)): row i (0-based) = q^(i+1) + O(q^(d+1))."""
    return _echelon_basis(k, M, 1, dim_cusp(k))
