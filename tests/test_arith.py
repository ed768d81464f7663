from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from grpinv.arith import (
    _primes_upto,
    euler_phi,
    factorize,
    is_unit_involution,
    iter_odd_primes,
    odd_primes,
    rational_from_decimal,
    tau,
    unit_involutions,
)
from grpinv.errors import DomainError, ParseError, ResourceLimitError


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(13) == 12


def test_euler_phi_brute_force_small():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_tau_examples():
    assert tau(1) == 1
    assert tau(12) == 6
    assert tau(49) == 3


def test_tau_brute_force_small():
    for n in range(1, 300):
        assert tau(n) == sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("func", [euler_phi, tau])
def test_domain_errors(func):
    with pytest.raises(DomainError):
        func(0)


def test_factorize_rebuilds_every_n_up_to_5000():
    primes = set(_primes_upto(5000))
    assert factorize(1) == []
    for n in range(1, 5001):
        factors = factorize(n)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors}), n
        assert all(p in primes and a >= 1 for p, a in factors), n
        product = 1
        for p, a in factors:
            product *= p**a
        assert product == n
    assert factorize(4096) == [(2, 12)]
    assert factorize(4093) == [(4093, 1)]
    assert factorize(4092) == [(2, 2), (3, 1), (11, 1), (31, 1)]
    for n in (0, -4):
        with pytest.raises(DomainError):
            factorize(n)


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)
def test_phi_and_tau_multiplicative_on_coprime_pairs(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert tau(a * b) == tau(a) * tau(b)


def test_phi_divisor_sum_identity():
    # sum of phi(d) over divisors d of n recovers n
    for n in range(1, 10**4 + 1, 37):
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_odd_primes():
    assert odd_primes(1) == [3]
    assert odd_primes(5) == [3, 5, 7, 11, 13]
    primes = odd_primes(25)
    assert primes[-1] == 101 and len(primes) == 25
    with pytest.raises(DomainError):
        odd_primes(0)
    with pytest.raises(ResourceLimitError):
        odd_primes(100, cap=50)


def test_iter_odd_primes_respects_cap():
    assert list(iter_odd_primes(20)) == [3, 5, 7, 11, 13, 17, 19]
    assert list(iter_odd_primes(2)) == []


def test_unit_involutions_examples():
    assert unit_involutions(2) == [1]
    assert unit_involutions(5) == [1, 4]
    assert unit_involutions(12) == [1, 5, 7, 11]
    with pytest.raises(DomainError):
        unit_involutions(1)


@given(st.integers(min_value=2, max_value=2000))
def test_unit_involutions_contain_trivial_ones(n):
    units = unit_involutions(n)
    assert 1 in units
    if n > 2:
        assert n - 1 in units
    for u in units:
        assert gcd(u, n) == 1 and (u * u) % n == 1


@given(st.integers(min_value=2, max_value=500))
def test_is_unit_involution_agrees_with_the_list(n):
    units = set(unit_involutions(n))
    for u in range(-1, n + 2):
        assert is_unit_involution(u, n) == (u in units)


def test_rational_from_decimal():
    assert rational_from_decimal("1") == Fraction(1)
    assert rational_from_decimal("0.5") == Fraction(1, 2)
    assert rational_from_decimal("0.8") == Fraction(4, 5)
    assert rational_from_decimal("-2.25") == Fraction(-9, 4)
    assert rational_from_decimal("+3.000") == 3


@pytest.mark.parametrize("bad", ["", "abc", "1/2", ".5", "1.2.3", "1e3", "--1"])
def test_rational_from_decimal_rejects(bad):
    with pytest.raises(ParseError):
        rational_from_decimal(bad)


def test_rational_from_decimal_refuses_over_long_literals():
    # 4,300 digits is the interpreter's default int-to-str limit.
    ones = "1" * 4299
    assert rational_from_decimal("0." + ones) == Fraction(int(ones), 10**4299)
    with pytest.raises(ParseError, match="5001 digits exceeds the 4300-digit limit"):
        rational_from_decimal("0." + "1" * 5000)


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
)
def test_fraction_carrier_invariants(a, b, c):
    # the exact-rational carrier stays reduced with positive denominator
    for value in (a + b, a * b, (a + b) + c, a + (b + c)):
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
