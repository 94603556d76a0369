"""Exact integer/rational q-expansion arithmetic.

Eta products, Eisenstein series with exact Bernoulli numbers, and
echelonized cusp/modular bases built from Delta * E4^b * E6^c monomials.
The integers are exact: products are single big-integer multiplications
(Kronecker substitution), the powers of Delta, E4 and E6 are memoized, and
echelonization eliminates fraction-free, so Fractions appear only at the
final division of each pivot row (and in the Bernoulli numbers).  Floats
enter only when these series are wrapped into evaluable forms one layer up.

Series are plain lists c[0..M] of coefficients of q^0..q^M relative to a
leading exponent tracked by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

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
    """a * b truncated at q^M, by Kronecker substitution: each series is
    packed into one integer with a slot of whole bytes per coefficient, the
    two integers are multiplied once, and the product's slots are the
    coefficients.  Entries may be ints or Fractions; a Fraction series is
    scaled to integers by the lcm of its denominators, and the result is
    int when both denominators are 1, Fraction otherwise."""
    (ia, da), (ib, db) = _integer_series(a[: M + 1]), _integer_series(b[: M + 1])
    bound = max(map(abs, ia), default=0) * max(map(abs, ib), default=0) * (M + 1)
    if not bound:
        return [0] * (M + 1)
    # |coefficient| <= bound < 2^(8 nb - 1): a biased slot holds it without borrow
    nb = (bound.bit_length() + 2 + 7) // 8
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * (M + 1), "little")
    prod = (_pack(ia, nb) * _pack(ib, nb) + bias) & ((1 << (8 * nb * (M + 1))) - 1)
    raw = prod.to_bytes(nb * (M + 1), "little")
    half = 1 << (8 * nb - 1)
    out = [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, len(raw), nb)]
    den = da * db
    return out if den == 1 else [Fraction(c, den) for c in out]


def _integer_series(c: list) -> tuple:
    """(integers, d) with c = integers / d, d the lcm of the denominators."""
    d = lcm(*(x.denominator for x in c))
    return [x.numerator * (d // x.denominator) for x in c], d


def _pack(c: list, nb: int) -> int:
    """sum c[i] 256^(nb i) for signed c[i] with |c[i]| < 256^nb."""
    pos = b"".join((x if x > 0 else 0).to_bytes(nb, "little") for x in c)
    neg = b"".join((-x if x < 0 else 0).to_bytes(nb, "little") for x in c)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


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

    rows are integer coefficient lists on a common q-power grid; pivots are
    taken left to right.  Elimination stays in the integers (each combined
    row divided by its content), and each pivot row is divided by its pivot
    once at the end.  Raises if fewer than dim independent rows are found.
    """
    work = list(rows)
    out = []  # (pivot column, row)
    col = 0
    while len(out) < dim and col <= M:
        piv = next((r for r in work if r[col]), None)
        if piv is None:
            col += 1
            continue
        work.remove(piv)
        work = [_combine(r, piv, col) if r[col] else r for r in work]
        out = [(c, _combine(r, piv, col) if r[col] else r) for c, r in out]
        out.append((col, piv))
        col += 1
    if len(out) < dim:
        raise ValueError("echelonization found too few independent rows")
    return [[Fraction(x, r[c]) for x in r] for c, r in out]


def _combine(r: list, piv: list, col: int) -> list:
    """piv[col] r - r[col] piv, which is 0 at col, divided by its content."""
    p, f = piv[col], r[col]
    new = [p * x - f * y for x, y in zip(r, piv)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


@lru_cache(maxsize=None)
def _generator_power(k: int, e: int, M: int) -> tuple:
    """G^e truncated at q^M for the weight-k generator G of the ring of
    level-one forms: E4 (k = 4), E6 (k = 6) or Delta / q (k = 12), each
    power the one below it times G."""
    if e == 0:
        return (1,) + (0,) * M
    g = delta_coeffs(M) if k == 12 else eisenstein_coeffs(k, M)
    return tuple(mul_trunc(_generator_power(k, e - 1, M), g, M))


def _monomial_series(a: int, b: int, c: int, M: int) -> list:
    # Delta^a = q^a (Delta / q)^a: shift
    s = (0,) * a + _generator_power(12, a, M)[: M + 1 - a]
    if b:
        s = mul_trunc(s, _generator_power(4, b, M), M)
    if c:
        s = mul_trunc(s, _generator_power(6, c, M), M)
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
