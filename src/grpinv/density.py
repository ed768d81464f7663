"""Greedy realization of beta targets by products of dihedral groups.

Since beta(D_2p) = (p+1)/(p+2) for an odd prime p and beta is
multiplicative across products of dihedral groups of distinct odd prime
degree, any target t in (0, 1] can be approached by choosing a finite
prime set I with prod_{p in I} (p+1)/(p+2) close to t.  The log-domain
series sum ln((p+2)/(p+1)) diverges (slowly), so a greedy scan that
includes every prime not overshooting ln(1/t) converges to any
tolerance -- eventually.  Under a finite prime cap the reachable targets
are bounded below by exp(-sum of the available series).

Every decision the greedy takes is exact.  A float screen with a
drift bound certifies what it can and falls back to exact big-integer
cross-multiplication whenever it cannot (exact ties, e.g. t = 4/5, land
in the fallback); a stepwise fully-big-integer loop would go quadratic
for targets that need most of the ~78k primes under the default cap.
The screen reads one float series per cap, the terms ln((p+2)/(p+1))
and their running sums, and takes whole runs of primes at a time: one
bisect on the sums takes the leading primes that are certainly included
before the product can come near the target, and one bisect on the
decreasing terms skips every prime that certainly overshoots.  Only the
primes it includes one at a time and those inside the margin are
visited, and the choices are the plain greedy's.

Targets below the floor are decided exactly before any scan: when the
full product exceeds t + eps, every prefix product does too, so the
greedy would take every prime and never stop.  That full product is the
scan's own running product, cached per cap over every odd prime up to
it, so the refusal and its best selection go through the same exact
checks and the same reduction as a scan.

The one exact number behind those checks is the reduced product, which
the result needs anyway.  Small selections are reduced by Fraction's
gcd.  Large ones are reduced in prime-exponent space: the exponent of
each prime in prod (p+1)/(p+2) is read off a smallest-factor table built
once per cap, and the coprime numerator and denominator that come out
are wrapped as a Fraction without any gcd.  The size where one method
takes over from the other is where their timings cross.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import DEFAULT_PRIME_CAP, MAX_PRIME_CAP, _primes_upto
from .errors import (
    ConvergenceError,
    DomainError,
    InvariantViolationError,
    ResourceLimitError,
)
from .groups import (
    DEFAULT_TABLE_CAP,
    MAX_TABLE_ORDER,
    FiniteGroup,
    dihedral_product,
    invariants,
)

__all__ = [
    "PrimeSelection",
    "TooLarge",
    "approximate_beta",
    "selection_beta",
    "materialize",
]

#: Absolute slack below which a float comparison is not trusted.  It also
#: covers the error of the series' last sum behind the floor screen (under
#: 2e-10 for the ~665k terms at MAX_PRIME_CAP).
_MARGIN = 1e-9

#: Selections of at least this many primes are reduced by prime exponents
#: rather than by Fraction's gcd; this is where the two cross.  With the
#: factor table built, on a 2-core x86-64 host with Python 3.11 (best of 7),
#: the first n odd primes reduce by exponents vs by Fraction in 0.50 vs
#: 0.21 ms at n = 300, 0.91 vs 0.90 ms at 1,000 and 1.34 vs 4.25 ms at
#: 3,000; all 78,497 primes up to 10**6 take 50 ms vs 2.6 s.
_EXPONENT_ROUTE_MIN = 1_000


@dataclass(frozen=True, repr=False)
class PrimeSelection:
    """A finite set of odd primes with its exact predicted beta."""

    primes: tuple[int, ...]
    predicted_beta: Fraction
    log_residual: float
    primes_scanned: int

    def __repr__(self) -> str:
        # The exact beta can run to half a million digits; keep repr sane.
        return (
            f"PrimeSelection({len(self.primes)} primes, "
            f"beta~{float(self.predicted_beta):.9f}, "
            f"scanned={self.primes_scanned})"
        )


@dataclass(frozen=True)
class TooLarge:
    """Materialization refusal: the product table would need this order."""

    required_order: int


def _prod(values: list[int]) -> int:
    """Balanced product; sequential math.prod is quadratic on long lists."""
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[k] * values[k + 1] if k + 1 < len(values) else values[k]
            for k in range(0, len(values), 2)
        ]
    return values[0]


def selection_beta(selection) -> Fraction:
    """Exact reduced product of (p+1)/(p+2) over the selected primes."""
    primes = selection.primes if isinstance(selection, PrimeSelection) else selection
    primes = list(primes)
    return Fraction(_prod([p + 1 for p in primes]), _prod([p + 2 for p in primes]))


@functools.lru_cache(maxsize=4)
def _factor_table(prime_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(small, table) for factoring every p + 1 and p + 2 with p <= cap.

    ``small`` holds the odd primes up to isqrt(cap + 2); ``table[m // 2]``
    is, for every odd m <= cap + 2, the 1-based index in ``small`` of m's
    smallest prime factor, or 0 when m has none there (m = 1 or a larger
    prime).  Each small prime marks its own entry too, so a small prime
    left over from a division is still counted as small.
    """
    primes = _primes_upto(prime_cap)
    small = np.array(
        primes[1 : bisect.bisect_right(primes, math.isqrt(prime_cap + 2))],
        dtype=np.int32,
    )
    # uint16 holds the 445 indices up to MAX_PRIME_CAP at 2 bytes an entry.
    table = np.zeros((prime_cap + 3) // 2, dtype=np.uint16)
    # Largest first, so each entry ends on its smallest factor.
    for index in range(len(small), 0, -1):
        q = int(small[index - 1])
        table[q // 2 :: q] = index
    return small, table


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, without its gcd.

    Set through the slots because ``_normalize=False`` is gone from 3.12
    on and ``_from_coprime_ints`` only arrived there.
    """
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _prime_exponents(primes, prime_cap: int) -> tuple[list[int], list[int]]:
    """The distinct primes of prod (p+1)/(p+2) over ``primes`` (each at most
    ``prime_cap``) and their net exponents, positive in the numerator.

    Powers of 2 come off each p + 1 by a shift (p + 2 is odd); the odd
    rest of every value is split by _factor_table lookups until what is
    left is 1 or a prime above isqrt(cap + 2).  Its arrays are freed on
    return, before the caller's big-integer products.
    """
    small, table = _factor_table(prime_cap)
    values = np.array(primes, dtype=np.int32)
    up = values + 1
    twos = np.frexp(up & -up)[1] - 1
    # Bin 0 of the small primes' counts stays empty: index 0 is no factor.
    counts = np.zeros(len(small) + 1, dtype=np.int64)
    left = []
    # The numerator's values, then the denominator's: one side at a time
    # keeps the pass's temporaries small.  ``part`` holds the values still
    # being split, ``rest`` what is left of every value so far.
    for rest, sign in ((up >> twos, 1), (values + 2, -1)):
        live, part = np.arange(len(rest), dtype=np.int32), rest
        while part.size:
            index = table[part >> 1]
            rest[live] = part
            found = np.flatnonzero(index)
            live, part, index = live[found], part[found], index[found]
            counts += sign * np.bincount(index, minlength=len(counts))
            part = part // small[index - 1]
        left.append(rest[rest > 1])
    large, where = np.unique(np.concatenate(left), return_inverse=True)
    cut = len(left[0])
    large_exponents = np.bincount(where[:cut], minlength=len(large))
    large_exponents -= np.bincount(where[cut:], minlength=len(large))
    bases = [2, *small.tolist(), *large.tolist()]
    exponents = [int(twos.sum()), *counts[1:].tolist(), *large_exponents.tolist()]
    return bases, exponents


def _exponent_beta(primes, prime_cap: int = DEFAULT_PRIME_CAP) -> Fraction:
    """selection_beta(primes) for primes up to ``prime_cap``, built from the
    exponent of each prime in the product.  Every base is a distinct prime
    with one net exponent, so the numerator and the denominator come out
    coprime and no gcd runs at all."""
    bases, exponents = _prime_exponents(primes, prime_cap)
    num = _prod([b**e for b, e in zip(bases, exponents) if e > 0])
    den = _prod([b**-e for b, e in zip(bases, exponents) if e < 0])
    return _coprime_fraction(num, den)


class _RunningBeta:
    """prod (p+1) / prod (p+2) over ``primes``, for the greedy's exact
    decisions: a list the scan appends its chosen primes to, or a tuple of
    every odd prime up to a cap, which fixes the product.

    The reduced product, which the result needs anyway, is the only exact
    number kept; it is formed again only once another prime is chosen.
    """

    def __init__(
        self, primes: list[int] | tuple[int, ...], prime_cap: int = DEFAULT_PRIME_CAP
    ) -> None:
        self.primes = primes
        self.prime_cap = prime_cap
        self._beta = Fraction(1)
        self._beta_upto = 0

    def beta(self) -> Fraction:
        """The exact reduced product, kept until another prime is chosen."""
        if self._beta_upto != len(self.primes):
            if len(self.primes) >= _EXPONENT_ROUTE_MIN:
                self._beta = _exponent_beta(self.primes, self.prime_cap)
            else:
                self._beta = selection_beta(self.primes)
            self._beta_upto = len(self.primes)
        return self._beta

    def sign(self, c: int, d: int) -> int:
        """The sign of num*c - den*d, exactly.  The unreduced numerator and
        denominator are the reduced ones times the same positive factor, so
        the reduced pair gives the same sign."""
        beta = self.beta()
        left, right = beta.numerator * c, beta.denominator * d
        return (left > right) - (left < right)

    def logs(self) -> tuple[float, float]:
        """math.log of the reduced numerator and of the reduced denominator."""
        beta = self.beta()
        return math.log(beta.numerator), math.log(beta.denominator)


@functools.lru_cache(maxsize=4)
def _every_odd_prime_product(prime_cap: int) -> _RunningBeta:
    """Shared by every target below the floor of this cap."""
    return _RunningBeta(_primes_upto(prime_cap)[1:], prime_cap)


@functools.lru_cache(maxsize=4)
def _log_series(prime_cap: int) -> tuple[array, array]:
    """(x, S) for the odd primes p_1 < p_2 < ... up to the cap: x[k - 1] =
    ln((p_k + 2)/(p_k + 1)), decreasing, and S[k] = x[0] + ... + x[k - 1]
    summed in order, so S[0] = 0 and S[-1] = ln(1/floor).

    Each x is within a few ulps and the sum runs in order, so S[k] is
    within (k + 4) * 2**-53 * S[k] of the exact sum: under 1.9e-11 at the
    default cap, 2e-10 at MAX_PRIME_CAP.  Float arrays, not lists, keep
    the series at 16 bytes a prime.
    """
    primes = np.array(_primes_upto(prime_cap)[1:], dtype=np.float64)
    x = np.log1p(1.0 / (primes + 1.0))
    sums = np.concatenate(([0.0], np.cumsum(x)))
    return array("d", x.tobytes()), array("d", sums.tobytes())


def _as_exact(value, label: str) -> Fraction:
    if isinstance(value, float):
        raise DomainError(f"{label} must be exact (int, Fraction, or decimal string)")
    return Fraction(value)


def _printable(q: Fraction) -> str:
    """``str(q)``, or ``~0.1234 (N-digit denominator)`` when that would
    exceed the interpreter's int-to-str digit limit."""
    try:
        return str(q)
    except ValueError:
        den = q.denominator
        # A b-bit integer has floor(b log10 2) or one more decimal digits.
        digits = int(den.bit_length() * math.log10(2))
        digits += den >= 10**digits
        return f"~{float(q):.4g} ({digits}-digit denominator)"


def approximate_beta(
    target,
    eps,
    *,
    prime_cap: int = DEFAULT_PRIME_CAP,
) -> PrimeSelection:
    """Greedy prime selection whose dihedral-product beta lands in
    [target, target + eps].

    Scans the odd primes in increasing order, including p whenever the
    product stays >= target, and stops once the exact distance to the
    target is within eps.  Raises :class:`ConvergenceError` carrying the
    best selection when the prime cap is exhausted first, and, before any
    sieving, :class:`DomainError` when ``prime_cap`` is not an integer
    >= 0 and :class:`ResourceLimitError` when it exceeds ``MAX_PRIME_CAP``.
    """
    try:
        prime_cap = operator.index(prime_cap)
    except TypeError:
        raise DomainError(f"prime cap must be an integer, got {prime_cap!r}") from None
    if prime_cap < 0:
        raise DomainError(f"prime cap must be >= 0, got {prime_cap}")
    if prime_cap > MAX_PRIME_CAP:
        raise ResourceLimitError(
            f"prime cap {prime_cap} exceeds the ceiling {MAX_PRIME_CAP}"
        )
    target = _as_exact(target, "target")
    eps = _as_exact(eps, "eps")
    if not 0 < target <= 1:
        raise DomainError(f"target must lie in (0, 1], got {target}")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")

    tn, td = target.numerator, target.denominator
    # beta - t <= eps  <=>  num*c - den*d <= 0 for these c, d.
    close_c = td * eps.denominator
    close_d = tn * eps.denominator + eps.numerator * td
    running = _RunningBeta([], prime_cap)

    def exact_residual(product: _RunningBeta) -> float:
        log_num, log_den = product.logs()
        return log_num + math.log(td) - log_den - math.log(tn)

    # Residual ln(P / t) tracked as a float with a drift bound; reset from
    # the exact product whenever a decision falls inside the margin.
    residual = -math.log(tn) + math.log(td)
    drift = _MARGIN / 2
    try:
        stop_bar = math.log1p(float(eps / target))
    except OverflowError:
        stop_bar = math.inf

    def build(product: _RunningBeta, scanned: int) -> PrimeSelection:
        return PrimeSelection(
            primes=tuple(product.primes),
            predicted_beta=product.beta(),
            log_residual=max(exact_residual(product), 0.0),
            primes_scanned=scanned,
        )

    if running.sign(close_c, close_d) <= 0:
        return build(running, 0)

    def exhausted(best: PrimeSelection) -> ConvergenceError:
        return ConvergenceError(
            f"prime cap {prime_cap} exhausted before "
            f"|beta - {_printable(target)}| <= {_printable(eps)}",
            best=best,
        )

    # Below the floor: the full product F exceeds t + eps, so does every
    # prefix product, and the greedy would take every prime without ever
    # landing within eps.  That holds exactly when the gap
    # ln(1/(t + eps)) - ln(1/F) is positive; residual - stop_bar is the
    # first term and the series' last sum the second.  The float gap is off
    # by at most that sum's _MARGIN plus the rounding of residual - stop_bar,
    # a few ulps of ln(td), ln(tn) and stop_bar: under _MARGIN until
    # ln(td) nears 10**5, and scaled past that.  Beyond that bound the
    # float gap certifies the refusal; inside it the exact sign decides.
    xs, sums = _log_series(prime_cap)
    gap = residual - stop_bar - sums[-1]
    if gap > -_MARGIN:
        full = _every_odd_prime_product(prime_cap)
        bound = 2 * _MARGIN + 1e-15 * (2 * math.log(td) + stop_bar)
        if gap > bound or full.sign(close_c, close_d) > 0:
            raise exhausted(build(full, len(full.primes)))

    # The leading primes whose prefix sum leaves the residual clear of
    # stop_bar + _MARGIN are each certainly included and certainly not
    # within eps: take them in one step.  The bar is raised by the error
    # bound of the longest prefix, and the drift grows by that of the
    # prefix taken: k * 1e-15 * (1 + S[k] + |residual|) covers the error
    # _log_series bounds for S[k] and the rounding of the residual.
    primes, count = _primes_upto(prime_cap), len(xs)
    bar = stop_bar + drift + _MARGIN + count * 1e-15 * (1.0 + sums[-1] + abs(residual))
    scanned = bisect.bisect_left(sums, residual - bar, 1) - 1
    running.primes.extend(primes[1 : scanned + 1])
    drift += scanned * 1e-15 * (1.0 + sums[scanned] + abs(residual))
    residual -= sums[scanned]
    while scanned < count:
        x = xs[scanned]
        reach = residual + drift + _MARGIN
        if x > reach:
            # Certainly overshoots, as does every prime up to the first
            # whose term is within reach.
            scanned = bisect.bisect_left(
                xs, -reach, scanned + 1, count, key=operator.neg
            )
            continue
        scanned += 1
        p = primes[scanned]
        if residual - x > drift + _MARGIN:
            include = True
        else:
            include = running.sign((p + 1) * td, (p + 2) * tn) >= 0
            residual = exact_residual(running)
            drift = _MARGIN / 2
        if not include:
            continue
        running.primes.append(p)
        residual -= x
        drift += 1e-15 * (1.0 + abs(residual))
        if residual - drift <= stop_bar + _MARGIN:
            if running.sign(close_c, close_d) <= 0:
                selection = build(running, scanned)
                if selection.predicted_beta < target:
                    raise InvariantViolationError(
                        "greedy overshot the target; inclusion test broken"
                    )
                return selection
            residual = exact_residual(running)
            drift = _MARGIN / 2
    raise exhausted(build(running, scanned))


def materialize(
    selection: PrimeSelection, *, order_cap: int = DEFAULT_TABLE_CAP
) -> FiniteGroup | TooLarge:
    """Build the dihedral product for a selection and recount its beta.

    Returns :class:`TooLarge` with the required order when the table
    would not fit under ``order_cap`` or above ``MAX_TABLE_ORDER``, before
    anything is built.  The counted beta must equal the formula value
    exactly; a mismatch is an internal invariant violation.
    """
    required = math.prod(2 * p for p in selection.primes)
    if required > min(order_cap, MAX_TABLE_ORDER):
        return TooLarge(required_order=required)
    group = dihedral_product(selection.primes, table_cap=order_cap)
    counted = invariants(group).beta
    expected = selection_beta(selection)
    if counted != expected:
        raise InvariantViolationError(
            f"counted beta {counted} differs from formula {expected}"
        )
    return group
