"""Greedy realization of beta targets by products of dihedral groups.

Since beta(D_2p) = (p+1)/(p+2) for an odd prime p and beta is
multiplicative across products of dihedral groups of distinct odd prime
degree, any target t in (0, 1] can be approached by choosing a finite
prime set I with prod_{p in I} (p+1)/(p+2) close to t.  The log-domain
series sum ln((p+2)/(p+1)) diverges (slowly), so a greedy scan that
includes every prime not overshooting ln(1/t) converges to any
tolerance -- eventually.  Under a finite prime cap the reachable targets
are bounded below by exp(-sum of the available series).

Every decision the greedy takes is exact.  The loop screens each
comparison with interval-bounded floats and falls back to exact
big-integer cross-multiplication whenever the screen cannot certify the
outcome (exact ties, e.g. t = 4/5, land in the fallback).  A stepwise
fully-big-integer loop would go quadratic for targets that need most of
the ~78k primes under the default cap; the screened loop is
behaviourally identical and linear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DEFAULT_PRIME_CAP, MAX_PRIME_CAP, iter_odd_primes
from .errors import (
    ConvergenceError,
    DomainError,
    InvariantViolationError,
    ResourceLimitError,
)
from .groups import DEFAULT_TABLE_CAP, FiniteGroup, dihedral_product, invariants

__all__ = [
    "PrimeSelection",
    "TooLarge",
    "approximate_beta",
    "selection_beta",
    "materialize",
]

#: Absolute slack below which a float comparison is not trusted.
_MARGIN = 1e-9


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
def _every_odd_prime_product(prime_cap: int):
    """(count, num, den, beta) over every odd prime up to the cap.

    Unreachable targets end up including every available prime, so the
    heavy half-million-digit product and its reduction are shared.
    """
    primes = list(iter_odd_primes(prime_cap))
    num = _prod([p + 1 for p in primes])
    den = _prod([p + 2 for p in primes])
    return len(primes), num, den, Fraction(num, den)


def _as_exact(value, label: str) -> Fraction:
    if isinstance(value, float):
        raise DomainError(f"{label} must be exact (int, Fraction, or decimal string)")
    return Fraction(value)


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
    best selection when the prime cap is exhausted first, and
    :class:`ResourceLimitError` before any sieving when ``prime_cap``
    exceeds ``MAX_PRIME_CAP``.
    """
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

    chosen: list[int] = []
    # Exact running product over chosen[:cached_upto].
    num, den = 1, 1
    cached_upto = 0

    def flush() -> tuple[int, int]:
        nonlocal num, den, cached_upto
        pending = chosen[cached_upto:]
        if pending:
            num *= _prod([p + 1 for p in pending])
            den *= _prod([p + 2 for p in pending])
            cached_upto = len(chosen)
        return num, den

    def exact_can_include(p: int) -> bool:
        a, b = flush()
        return a * (p + 1) * td >= b * (p + 2) * tn

    def exact_close_enough() -> bool:
        a, b = flush()
        return (a * td - b * tn) * eps.denominator <= eps.numerator * b * td

    def exact_residual() -> float:
        a, b = flush()
        return math.log(a) + math.log(td) - math.log(b) - math.log(tn)

    # Residual ln(P / t) tracked as a float with a drift bound; reset from
    # the exact product whenever a decision falls inside the margin.
    residual = -math.log(tn) + math.log(td)
    drift = _MARGIN / 2
    try:
        stop_bar = math.log1p(float(eps / target))
    except OverflowError:
        stop_bar = math.inf

    def build(scanned: int) -> PrimeSelection:
        a, b = flush()
        return PrimeSelection(
            primes=tuple(chosen),
            predicted_beta=Fraction(a, b),
            log_residual=max(exact_residual(), 0.0),
            primes_scanned=scanned,
        )

    if exact_close_enough():
        return build(0)

    scanned = 0
    for p in iter_odd_primes(prime_cap):
        scanned += 1
        x = math.log1p(1.0 / (p + 1))
        if x - residual > drift + _MARGIN:
            continue  # certainly overshoots
        if residual - x > drift + _MARGIN:
            include = True
        else:
            include = exact_can_include(p)
            residual = exact_residual()
            drift = _MARGIN / 2
        if not include:
            continue
        chosen.append(p)
        residual -= x
        drift += 1e-15 * (1.0 + abs(residual))
        if residual - drift <= stop_bar + _MARGIN:
            if exact_close_enough():
                selection = build(scanned)
                if selection.predicted_beta < target:
                    raise InvariantViolationError(
                        "greedy overshot the target; inclusion test broken"
                    )
                return selection
            residual = exact_residual()
            drift = _MARGIN / 2
    if len(chosen) == scanned:
        # Every available prime went in; share the cached full product
        # instead of reducing a fresh half-million-digit fraction.
        count, num_all, den_all, beta_all = _every_odd_prime_product(prime_cap)
        if count == len(chosen):
            residual_exact = (
                math.log(num_all) + math.log(td) - math.log(den_all) - math.log(tn)
            )
            best = PrimeSelection(
                primes=tuple(chosen),
                predicted_beta=beta_all,
                log_residual=max(residual_exact, 0.0),
                primes_scanned=scanned,
            )
        else:  # pragma: no cover - scanned always covers the cap here
            best = build(scanned)
    else:
        best = build(scanned)
    raise ConvergenceError(
        f"prime cap {prime_cap} exhausted before |beta - {target}| <= {eps}",
        best=best,
    )


def materialize(
    selection: PrimeSelection, *, order_cap: int = DEFAULT_TABLE_CAP
) -> FiniteGroup | TooLarge:
    """Build the dihedral product for a selection and recount its beta.

    Returns :class:`TooLarge` with the required order when the table
    would not fit under ``order_cap``.  The counted beta must equal the
    formula value exactly; a mismatch is an internal invariant violation.
    """
    required = 1
    for p in selection.primes:
        required *= 2 * p
    if required > order_cap:
        return TooLarge(required_order=required)
    group = dihedral_product(selection.primes, table_cap=order_cap)
    counted = invariants(group).beta
    expected = selection_beta(selection)
    if counted != expected:
        raise InvariantViolationError(
            f"counted beta {counted} differs from formula {expected}"
        )
    return group
