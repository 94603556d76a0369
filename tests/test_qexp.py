"""Exact q-expansion arithmetic: truncated series, Eisenstein/Delta/eta
coefficients, cusp space dimensions and echelon bases."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncperiods.modforms import DEFAULT_M
from ncperiods.qexp import (
    bernoulli,
    cusp_basis_coeffs,
    delta_coeffs,
    dim_cusp,
    dim_modular,
    eisenstein_coeffs,
    eta_power_coeffs,
    modular_basis_coeffs,
    mul_trunc,
    pow_trunc,
)

TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612]


def test_bernoulli():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_eisenstein_small():
    assert list(eisenstein_coeffs(4, 5)) == [1, 240, 2160, 6720, 17520, 30240]
    assert list(eisenstein_coeffs(6, 4)) == [1, -504, -16632, -122976, -532728]


def test_delta_tau():
    assert list(delta_coeffs(10)) == TAU
    assert tuple(delta_coeffs(10)) == tuple(eta_power_coeffs(24, 10))


def test_eta_powers():
    # eta itself: pentagonal number theorem, exponents shifted by the q^{1/24}
    e1 = list(eta_power_coeffs(1, 7))
    assert e1 == [1, -1, -1, 0, 0, 1, 0, 1]
    # eta^4 starts 1 - 4q + 2q^2 ...
    e4 = list(eta_power_coeffs(4, 3))
    assert e4[:3] == [1, -4, 2]


def test_dims():
    # (weight, dim M_k, dim S_k)
    table = [
        (4, 1, 0), (6, 1, 0), (8, 1, 0), (10, 1, 0),
        (12, 2, 1), (14, 1, 0), (16, 2, 1), (18, 2, 1),
        (20, 2, 1), (22, 2, 1), (24, 3, 2), (26, 2, 1),
        (28, 3, 2), (30, 3, 2), (32, 3, 2), (34, 3, 2), (36, 4, 3),
    ]
    for k, dm, ds in table:
        assert dim_modular(k) == dm, k
        assert dim_cusp(k) == ds, k


def test_cusp_basis_echelon():
    for k in (12, 16, 24, 28, 36):
        d = dim_cusp(k)
        rows = cusp_basis_coeffs(k, d + 4)
        assert len(rows) == d
        for i, row in enumerate(rows):
            # leading zero block, unit pivot at q^(i+1), zeros through q^d
            assert row[0] == 0
            assert row[i + 1] == 1
            for j in range(1, d + 1):
                assert row[j] == (1 if j == i + 1 else 0)


def test_modular_basis_contains_eisenstein():
    rows = modular_basis_coeffs(12, 6)
    assert len(rows) == 2
    assert rows[0][0] == 1  # constant term pivot
    assert rows[0][1] == 0
    assert rows[1][0] == 0 and rows[1][1] == 1


def test_hecke_relations_exact():
    """a(p^2) = a(p)^2 - p^(k-1) for a normalized eigenform spanning a
    one-dimensional cusp space.  Catches any non-modular basis immediately."""
    for k in (12, 16, 18, 20, 22, 26):
        a = cusp_basis_coeffs(k, 9)[0]
        assert a[4] == a[2] ** 2 - 2 ** (k - 1), k
        assert a[9] == a[3] ** 2 - 3 ** (k - 1), k


def test_tau_multiplicativity():
    a = delta_coeffs(35)  # a[n] = tau(n + 1)
    tau = lambda n: a[n - 1]
    assert tau(6) == tau(2) * tau(3)
    assert tau(10) == tau(2) * tau(5)
    assert tau(35) == tau(5) * tau(7)


coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_trunc_ring_axioms(a, b, c):
    M = 6
    ab = mul_trunc(a, b, M)
    ba = mul_trunc(b, a, M)
    assert ab == ba
    lhs = mul_trunc(ab, c, M)
    rhs = mul_trunc(a, mul_trunc(b, c, M), M)
    assert lhs == rhs


@given(coeff_lists, st.integers(0, 5))
def test_pow_trunc_matches_repeated_mul(a, e):
    M = 6
    out = pow_trunc(a, e, M)
    ref = [1] + [0] * M
    for _ in range(e):
        ref = mul_trunc(ref, a, M)
    assert out == ref


def schoolbook_mul_trunc(a, b, M):
    """The O(M^2) convolution mul_trunc must agree with, entry for entry."""
    out = [0] * (M + 1)
    for i, ai in enumerate(a[: M + 1]):
        for j, bj in enumerate(b[: M + 1 - i]):
            out[i + j] += ai * bj
    return out


big_ints = st.integers(-10**40, 10**40)
fractions = st.fractions(max_denominator=10**6).filter(lambda x: abs(x.numerator) < 10**40)
series = st.one_of(
    st.lists(big_ints, max_size=14),
    st.lists(st.integers(-3, 3), max_size=14),
    st.lists(st.just(0), max_size=14),
    st.lists(fractions | big_ints, max_size=14),
)


@given(series, series, st.integers(0, 10))
def test_mul_trunc_matches_schoolbook(a, b, M):
    """Kronecker products equal the schoolbook convolution exactly, for signed
    entries up to 1e40, Fraction entries, all-zero series and series shorter
    or longer than M + 1."""
    out = mul_trunc(a, b, M)
    assert len(out) == M + 1
    assert out == schoolbook_mul_trunc(a, b, M)


def test_mul_trunc_at_the_slot_bound():
    """Constant series of equal length M + 1 put the top coefficient exactly at
    the bound max|a| max|b| (M + 1) that sizes the packing slots, so a slot
    without its sign and guard bits shows here."""
    for v in (1, 15, 127, 255, 256, 2**16 - 1, 2**31, 2**63 - 1, 10**40):
        for M in (0, 1, 2, 3, 7, 31):
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                a, b = [sa * v] * (M + 1), [sb * v] * (M + 1)
                assert mul_trunc(a, b, M) == schoolbook_mul_trunc(a, b, M), (v, M, sa, sb)


# sha256 of the reprs below, taken from the schoolbook-convolution and
# Fraction-elimination build the integer one replaced
BASIS_DIGEST = "f85d47e1d3d2bb56080fa6bedf1bdcd856c8feed18b78d698dfda531e963667a"


def test_exact_series_digest_pinned():
    """Every basis row and eta power at DEFAULT_M is the same exact value,
    of the same type, as the pinned build."""
    h = hashlib.sha256()
    for k in range(12, 61):
        h.update(repr(cusp_basis_coeffs(k, DEFAULT_M)).encode())
    for m in range(0, 39):
        h.update(repr(modular_basis_coeffs(m, DEFAULT_M)).encode())
    for N in range(1, 25):
        h.update(repr(eta_power_coeffs(N, DEFAULT_M)).encode())
    assert h.hexdigest() == BASIS_DIGEST


def test_import_builds_no_series():
    """Importing the CLI leaves every qexp memo empty: series are built when a
    command asks for them, never at import."""
    probe = (
        "import json, ncperiods.cli\n"
        "from ncperiods import qexp\n"
        "print(json.dumps({n: f.cache_info().currsize for n, f in vars(qexp).items()\n"
        "                  if hasattr(f, 'cache_info')}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    sizes = json.loads(out.stdout)
    assert "_generator_power" in sizes and "cusp_basis_coeffs" in sizes, sizes
    assert all(n == 0 for n in sizes.values()), sizes
