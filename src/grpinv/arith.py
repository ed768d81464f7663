"""Number-theoretic helpers and exact-rational plumbing.

Every beta-valued quantity in this package is carried by
``fractions.Fraction``, which already guarantees reduced form, a positive
denominator, and structural equality of reduced forms.  This module adds
the integer-side utilities the group engine needs: a trial-division
factorisation, with the totient and divisor count built on it, an
odd-prime stream with a hard cap, square roots of unity in the unit
group mod n, and a strict decimal-to-rational parser.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from .errors import DomainError, ParseError, ResourceLimitError

#: Hard ceiling for prime generation; beyond it we raise instead of sieving on.
DEFAULT_PRIME_CAP = 10**6
#: Largest prime cap accepted at all: the sieve costs a byte per integer.
MAX_PRIME_CAP = 10**7

__all__ = [
    "DEFAULT_PRIME_CAP",
    "MAX_PRIME_CAP",
    "factorize",
    "euler_phi",
    "tau",
    "odd_primes",
    "iter_odd_primes",
    "is_unit_involution",
    "unit_involutions",
    "int_from_digits",
    "rational_from_decimal",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n as ascending (p, a) pairs, p**a || n;
    empty for n = 1."""
    if n < 1:
        raise DomainError(f"factorize is defined for n >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def euler_phi(n: int) -> int:
    """Count the integers in [1, n] coprime to n."""
    if n < 1:
        raise DomainError(f"euler_phi is defined for n >= 1, got {n}")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def tau(n: int) -> int:
    """Count the positive divisors of n."""
    if n < 1:
        raise DomainError(f"tau is defined for n >= 1, got {n}")
    return prod(a + 1 for _, a in factorize(n))


@functools.lru_cache(maxsize=8)
def _primes_upto(limit: int) -> tuple[int, ...]:
    if limit < 2:
        return ()
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(np.flatnonzero(sieve).tolist())


def iter_odd_primes(cap: int = DEFAULT_PRIME_CAP):
    """Yield the odd primes 3, 5, 7, ... up to and including ``cap``."""
    for p in _primes_upto(max(cap, 0)):
        if p > 2:
            yield p


def odd_primes(count: int, cap: int = DEFAULT_PRIME_CAP) -> list[int]:
    """First ``count`` odd primes in increasing order (3 is the first)."""
    if count < 1:
        raise DomainError(f"odd_primes needs count >= 1, got {count}")
    # Rosser-type overestimate of the (count+1)-th prime, then grow if short.
    limit = 32
    while True:
        found = [p for p in _primes_upto(min(limit, cap)) if p > 2]
        if len(found) >= count:
            return found[:count]
        if limit >= cap:
            raise ResourceLimitError(
                f"{count} odd primes not available below the prime cap {cap}"
            )
        limit = min(limit * 4, cap)


def is_unit_involution(u: int, n: int) -> bool:
    """True iff u in [1, n-1], gcd(u, n) = 1 and u*u = 1 (mod n)."""
    return 0 < u < n and gcd(u, n) == 1 and (u * u) % n == 1


def unit_involutions(n: int) -> list[int]:
    """All u with ``is_unit_involution(u, n)``, ascending."""
    if n < 2:
        raise DomainError(f"unit_involutions needs n >= 2, got {n}")
    return [u for u in range(1, n) if is_unit_involution(u, n)]


def int_from_digits(digits: str, position: int | None = None) -> int:
    """``int(digits)`` for a run of ASCII digits, checked against the
    interpreter's int-to-str digit limit first, so an over-long literal is a
    :class:`ParseError` rather than a ``ValueError``."""
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        where = "" if position is None else f" at position {position}"
        raise ParseError(
            f"integer literal of {len(digits)} digits{where} exceeds the "
            f"{limit}-digit limit",
            position,
        )
    return int(digits)


#: Characters of a rejected literal that its error message echoes.
_ECHO_CHARS = 32


def literal_excerpt(text: str) -> str:
    """``repr(text)``, or that of its first characters and its length when
    it is longer, so an error echoing a rejected literal stays short."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


_DECIMAL_RE = re.compile(r"([+-]?)(\d+)(?:\.(\d*))?\Z")


def rational_from_decimal(text: str) -> Fraction:
    """Parse a decimal literal ('1', '0.5', '-2.25') into an exact Fraction.

    Only an optional sign, an integer part, and an optional fractional part
    are accepted; anything else is a parse error.
    """
    m = _DECIMAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a decimal literal: {literal_excerpt(text)}")
    sign, whole, frac = m.groups()
    frac = frac or ""
    value = Fraction(int_from_digits(whole + frac), 10 ** len(frac))
    return -value if sign == "-" else value
