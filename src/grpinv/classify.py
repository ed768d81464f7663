"""Verification of the classification claims over exhaustively enumerated
groups, plus the lemma-level property sweeps.

Each ``verify_*``/``check_*`` function returns a :class:`VerificationReport`
naming the claim it checked.  Claims about "exactly these groups" are
checked in both directions: every listed group realizes the property, and
no enumerated group outside the list does.  A counterexample report
carries the offending multiplication table so the failure can be
re-checked independently of this package.  Every claim over the census
reads its classes through ``_census``.

Claim identifiers
-----------------
T1.1-r0 / T1.1-r1 / T1.1-r2
    Groups with c(G) - i(G) = r are exactly: r=0 the elementary abelian
    2-groups; r=1 the groups Z4, D8, Zp, D2p (p an odd prime); r=2 the
    groups Z4xZ2, Z2xD8, Z8, D16, Zp^2, D2p^2, Z2p, D4p.
T2.2
    Groups with i(G) > (3/4)|G| are exactly the elementary abelian 2-groups.
T2.3-r1 / T2.3-r2 / T2.3-r4
    Groups with c(G) = |G| - r for r = 1, 2, 4 match the published lists.
T2.4
    For n = p^k or 2p^k (p odd prime) there are exactly two unit square
    roots of 1 mod n, and the two split extensions of Z_n by Z_2 are
    Z2 x Zn and D2n.
L2.1
    A cyclic subgroup that is the unique cyclic subgroup of its order is
    normal.
L3.1a
    r(Z_n) = r(D_2n) = tau(n) - 1 for odd n, tau(n) - 2 for even n.
L3.1b
    r(H x Z2) = 2 r(H).
L4.1
    beta(G x H) = beta(G) beta(H) when gcd(|G|,|H|) = 1 or H = Z2^k.
L4.2
    beta of a product of dihedral groups of distinct odd prime degree
    equals the product of (p+1)/(p+2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from math import gcd, isqrt

from .arith import euler_phi, factorize, iter_odd_primes, tau, unit_involutions
from .catalog import builtin_catalog, catalog_group, generalized_dihedral
from .density import selection_beta
from .enumeration import DEFAULT_ENUM_CAP, all_groups_upto
from .errors import DomainError
from .fork import run_in_order
from .groups import (
    DEFAULT_TABLE_CAP,
    MAX_TABLE_ORDER,
    FiniteGroup,
    GroupInvariants,
    _check_cap,
    _powers,
    dihedral_product,
    direct_product,
    element_orders,
    invariants,
    is_elementary_abelian_2,
    is_normal_subgroup,
    make_cyclic,
    make_dihedral,
    make_elementary_abelian_2,
    semidirect_zn_z2,
)
from .iso import are_isomorphic

__all__ = [
    "CLAIM_IDS",
    "VerificationReport",
    "Counterexample",
    "r_value",
    "theorem1_families",
    "verify_theorem1",
    "verify_involution_threshold",
    "verify_c_order_deficit",
    "verify_semidirect_dichotomy",
    "check_lemma31a",
    "check_lemma31b",
    "check_lemma41",
    "check_lemma42",
    "check_unique_cyclic_normality",
    "dihedral_prime_subsets",
    "verify_lemmas",
    "order12_case_f_report",
]

CLAIM_IDS = frozenset(
    {
        "T1.1-r0",
        "T1.1-r1",
        "T1.1-r2",
        "T2.2",
        "T2.3-r1",
        "T2.3-r2",
        "T2.3-r4",
        "T2.4",
        "L2.1",
        "L3.1a",
        "L3.1b",
        "L4.1",
        "L4.2",
    }
)


@dataclass(frozen=True)
class Counterexample:
    description: str
    table: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    scope: str
    status: str  # "verified" | "counterexample"
    witnesses: tuple[tuple[str, GroupInvariants], ...] = ()
    counterexample: Counterexample | None = None

    def __post_init__(self):
        if self.claim not in CLAIM_IDS:
            raise ValueError(f"unknown claim id {self.claim!r}")
        if self.status not in ("verified", "counterexample"):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "verified"


def r_value(G: FiniteGroup) -> int:
    """c(G) - i(G)."""
    return invariants(G).r


def _report(claim, scope, named_groups) -> VerificationReport:
    """A verified report with the invariants of each named group."""
    witnesses = tuple(
        (name, invariants(G))
        for name, G in sorted(named_groups, key=lambda ng: (ng[1].order, ng[0]))
    )
    return VerificationReport(
        claim=claim, scope=scope, status="verified", witnesses=witnesses
    )


def _refuted(claim, scope, G: FiniteGroup, description: str) -> VerificationReport:
    """A counterexample report carrying G's multiplication table."""
    table = tuple(tuple(int(v) for v in row) for row in G.table)
    return VerificationReport(
        claim=claim,
        scope=scope,
        status="counterexample",
        counterexample=Counterexample(description=description, table=table),
    )


def _census(max_order: int, enum_cap: int) -> list[FiniteGroup]:
    """Every enumerated class of order <= max_order, by order, then by index."""
    by_order = all_groups_upto(max_order, enum_cap=enum_cap)
    return [G for m in range(1, max_order + 1) for G in by_order[m].groups]


# ---------------------------------------------------------------------------
# Families for the r = c - i classification


def theorem1_families(r: int, max_order: int) -> list[tuple[str, FiniteGroup]]:
    """Named members of the classified family for r in {0, 1, 2}, expanded
    over all parameters with order <= max_order, sorted by (order, name)."""
    if r not in (0, 1, 2):
        raise DomainError(f"classified families exist for r in 0..2, got {r}")
    if max_order < 1:
        return []
    n, primes = max_order, iter_odd_primes
    if r == 0:
        members = [make_elementary_abelian_2(k) for k in range(n.bit_length())]
    elif r == 1:
        # Z4 and D8 beside Z_p and D_2p.
        members = [make_cyclic(m) for m in (4, *primes(n)) if m <= n]
        members += [make_dihedral(2 * m) for m in (4, *primes(n // 2)) if 2 * m <= n]
    else:
        fixed = map(catalog_group, ("Z4xZ2", "Z2xD8", "Z8", "D16"))
        members = [G for G in fixed if G.order <= n]
        members += [make_cyclic(p * p) for p in primes(isqrt(n))]
        members += [make_dihedral(2 * p * p) for p in primes(isqrt(n // 2))]
        members += [make_cyclic(2 * p) for p in primes(n // 2)]
        members += [make_dihedral(4 * p) for p in primes(n // 4)]
    return sorted(((G.name, G) for G in members), key=lambda ng: (ng[1].order, ng[0]))


def _match_family(
    claim: str,
    scope: str,
    family: list[tuple[str, FiniteGroup]],
    candidates: list[FiniteGroup],
) -> VerificationReport:
    """Both inclusions: candidates == family, as sets up to isomorphism."""
    matched = [False] * len(family)
    for G in candidates:
        hit = None
        for k, (name, F) in enumerate(family):
            if not matched[k] and F.order == G.order and are_isomorphic(G, F):
                hit = k
                break
        if hit is None:
            return _refuted(
                claim,
                scope,
                G,
                f"group of order {G.order} realizes the property but matches "
                "no family member",
            )
        matched[hit] = True
    for k, (name, F) in enumerate(family):
        if not matched[k]:
            return _refuted(
                claim,
                scope,
                F,
                f"family member {name} not realized by any enumerated group",
            )
    return _report(claim, scope, family)


def verify_theorem1(
    max_order: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[VerificationReport, VerificationReport, VerificationReport]:
    """The r = 0, 1, 2 classifications against exhaustive enumeration."""
    census = _census(max_order, enum_cap)
    return tuple(
        _match_family(
            f"T1.1-r{r}",
            f"all orders <= {max_order}",
            theorem1_families(r, max_order),
            [G for G in census if r_value(G) == r],
        )
        for r in (0, 1, 2)
    )


def verify_involution_threshold(
    max_order: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """The enumerated groups with 4 i(G) > 3 |G| are exactly the elementary
    abelian 2-groups."""
    return _match_family(
        "T2.2",
        f"all orders <= {max_order}",
        theorem1_families(0, max_order),
        [G for G in _census(max_order, enum_cap) if 4 * invariants(G).i > 3 * G.order],
    )


_DEFICIT_LISTS = {
    1: ("Z3", "Z4", "D6", "D8"),
    2: ("Z6", "Z4xZ2", "D12", "Z2xD8"),
    4: (
        "Z8",
        "Z3xZ3",
        "A4",
        "Z6xZ2",
        "Z4xZ2xZ2",
        "D16",
        "(Z2xZ2):Z4",
        "Q8:Z2",
        "(Z3xZ3):Z2",
        "Z2xZ2xD6",
        "Z2xZ2xD8",
    ),
}


def _deficit_member(name: str) -> FiniteGroup:
    if name == "(Z3xZ3):Z2":
        return generalized_dihedral(
            direct_product(make_cyclic(3), make_cyclic(3)), name=name
        )
    if name == "Z2xZ2xD6":
        return direct_product(make_elementary_abelian_2(2), make_dihedral(6))
    if name == "Z2xZ2xD8":
        return direct_product(make_elementary_abelian_2(2), make_dihedral(8))
    return catalog_group(name)


def verify_c_order_deficit(
    r: int,
    max_order: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Groups with c(G) = |G| - r match the published list for r in {1, 2, 4}.

    Bidirectional over all enumerated orders <= max_order; list members
    above max_order are checked member-wise (their c really is |G| - r).

    From max_order = 8r on, the check settles the claim for every finite
    group, given T2.2.  Each element generates one cyclic subgroup, so
    |G| - c sums phi(|C|) - 1 over the cyclic subgroups C of order > 2:
    there are k <= r of them, and |G| - i = r + k <= 2r.  For r >= 1, G is
    not an elementary abelian 2-group, so T2.2's i <= 3|G|/4 gives
    |G| <= 4(|G| - i) <= 8r.
    """
    if r not in _DEFICIT_LISTS:
        raise DomainError(f"c(G) = |G| - r lists exist for r in (1, 2, 4), got {r}")
    claim = f"T2.3-r{r}"
    members = [(name, _deficit_member(name)) for name in _DEFICIT_LISTS[r]]
    if max_order >= 8 * r:
        scope = (
            f"bidirectional on orders <= {max_order}; c = |G| - {r} forces "
            f"|G| <= 8r = {8 * r}, so settled for every finite group given T2.2"
        )
    else:
        scope = f"bidirectional on orders <= {max_order}; member-wise above"
    in_range = [(n, G) for n, G in members if G.order <= max_order]
    above = [(n, G) for n, G in members if G.order > max_order]
    for name, G in above:
        inv = invariants(G)
        if inv.c != G.order - r:
            return _refuted(
                claim, scope, G, f"listed member {name} has c = {inv.c}, not |G| - {r}"
            )
    candidates = [
        G for G in _census(max_order, enum_cap) if invariants(G).c == G.order - r
    ]
    report = _match_family(claim, scope, in_range, candidates)
    if not report.ok:
        return report
    witnesses = list(in_range) + above
    return _report(claim, scope, witnesses)


def _is_odd_prime_power_or_twice(n: int) -> bool:
    factors = factorize(n // 2 if n % 4 == 2 else n)
    return len(factors) == 1 and factors[0][0] > 2


def verify_semidirect_dichotomy(
    n: int, *, table_cap: int = DEFAULT_TABLE_CAP
) -> VerificationReport:
    """Z_n extended by Z_2 lands on Z2 x Zn or D2n when n = p^k or 2p^k."""
    _check_cap(2 * n, table_cap)
    if n < 2 or not _is_odd_prime_power_or_twice(n):
        raise DomainError(
            f"n = {n} is not an odd prime power or twice one; the dichotomy "
            "is only claimed there"
        )
    scope = f"n = {n}"
    units = unit_involutions(n)
    if units != [1, n - 1]:
        G = semidirect_zn_z2(n, units[1], table_cap=table_cap)
        return _refuted(
            "T2.4",
            scope,
            G,
            f"expected exactly two unit square roots mod {n}, got {units}",
        )
    direct = direct_product(
        make_cyclic(2, table_cap=table_cap),
        make_cyclic(n, table_cap=table_cap),
        table_cap=table_cap,
    )
    dihedral = make_dihedral(2 * n, table_cap=table_cap)
    witnesses = []
    for u, target, target_name in (
        (1, direct, f"Z2xZ{n}"),
        (n - 1, dihedral, f"D{2 * n}"),
    ):
        G = semidirect_zn_z2(n, u, table_cap=table_cap)
        if are_isomorphic(G, target) is None:
            return _refuted(
                "T2.4",
                scope,
                G,
                f"extension with u = {u} is not isomorphic to {target_name}",
            )
        witnesses.append((f"SD({n},{u})~{target_name}", G))
    return _report("T2.4", scope, witnesses)


def check_lemma31a(n: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> VerificationReport:
    """r(Z_n) and r(D_2n) both equal tau(n) minus 1 (odd n) or 2 (even n)."""
    _check_cap(2 * n, table_cap)
    expected = tau(n) - (1 if n % 2 else 2)
    cyclic = make_cyclic(n, table_cap=table_cap)
    dihedral = make_dihedral(2 * n, table_cap=table_cap)
    scope = f"n = {n}"
    for G in (cyclic, dihedral):
        if r_value(G) != expected:
            return _refuted(
                "L3.1a",
                scope,
                G,
                f"r = {r_value(G)} but tau({n}) rule predicts {expected}",
            )
    return _report("L3.1a", scope, [(cyclic.name, cyclic), (dihedral.name, dihedral)])


def check_lemma31b(H: FiniteGroup, *, table_cap: int = DEFAULT_TABLE_CAP) -> VerificationReport:
    """Doubling by Z2 doubles r."""
    product = direct_product(H, make_cyclic(2), table_cap=table_cap)
    name = H.name or f"order-{H.order}"
    scope = f"H = {name}"
    if r_value(product) != 2 * r_value(H):
        return _refuted(
            "L3.1b",
            scope,
            product,
            f"r(H x Z2) = {r_value(product)} but 2 r(H) = {2 * r_value(H)}",
        )
    return _report("L3.1b", scope, [(f"{name}xZ2", product)])


def check_lemma41(
    G: FiniteGroup, H: FiniteGroup, *, table_cap: int = DEFAULT_TABLE_CAP
) -> VerificationReport:
    """beta multiplies across a product with coprime orders or a Z2^k factor."""
    if gcd(G.order, H.order) != 1 and not is_elementary_abelian_2(H):
        raise DomainError(
            "hypothesis violated: orders share a factor and H is not Z2^k"
        )
    product = direct_product(G, H, table_cap=table_cap)
    expected = invariants(G).beta * invariants(H).beta
    got = invariants(product).beta
    gname = G.name or f"order-{G.order}"
    hname = H.name or f"order-{H.order}"
    scope = f"G = {gname}, H = {hname}"
    if got != expected:
        return _refuted(
            "L4.1", scope, product, f"beta(GxH) = {got} but beta(G)beta(H) = {expected}"
        )
    return _report("L4.1", scope, [(f"{gname}x{hname}", product)])


def check_lemma42(
    primes, *, table_cap: int = DEFAULT_TABLE_CAP
) -> VerificationReport:
    """Counted beta of a dihedral product equals the (p+1)/(p+2) product."""
    primes = sorted(int(p) for p in primes)
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be distinct")
    for p in primes:
        if p < 3 or p % 2 == 0 or euler_phi(p) != p - 1:
            raise DomainError(f"{p} is not an odd prime")
    product = dihedral_product(primes, table_cap=table_cap)
    expected = selection_beta(primes)
    counted = invariants(product).beta
    scope = f"primes = {primes}"
    if counted != expected:
        return _refuted(
            "L4.2", scope, product, f"counted beta {counted} != formula {expected}"
        )
    return _report("L4.2", scope, [(product.name, product)])


def dihedral_prime_subsets(cap: int = DEFAULT_TABLE_CAP) -> list[tuple[int, ...]]:
    """All sets of distinct odd primes whose dihedral product fits a table
    of order ``cap`` (the empty set included), smallest primes first.

    Raises :class:`ResourceLimitError` at the first set whose product is
    above ``MAX_TABLE_ORDER``.  Primes above ``MAX_TABLE_ORDER // 2`` are
    not sieved: a set holding one is above the ceiling too, and the walk
    always reaches a set of smaller primes above it first.
    """
    primes = list(iter_odd_primes(min(cap, MAX_TABLE_ORDER) // 2))
    subsets: list[tuple[int, ...]] = [()]

    def grow(start: int, chosen: tuple[int, ...], order: int) -> None:
        for k in range(start, len(primes)):
            p = primes[k]
            if order * 2 * p > cap:
                break
            _check_cap(order * 2 * p, cap)
            subsets.append(chosen + (p,))
            grow(k + 1, chosen + (p,), order * 2 * p)

    grow(0, (), 1)
    return subsets


def check_unique_cyclic_normality(
    max_order: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """A cyclic subgroup that is unique of its order is normal, across all
    enumerated groups of order <= max_order."""
    scope = f"all orders <= {max_order}"
    checked = 0
    for G in _census(max_order, enum_cap):
        orders = element_orders(G)
        # A cyclic subgroup of order d has phi(d) generators, so it is the
        # only one of its order iff there are phi(d) elements of order d;
        # it is the powers of any one of them.
        for d, count in sorted(invariants(G).order_histogram.items()):
            if count != euler_phi(d):
                continue
            checked += 1
            members = tuple(sorted(_powers(G, orders.index(d))))
            if not is_normal_subgroup(G, members):
                return _refuted(
                    "L2.1",
                    scope,
                    G,
                    f"unique cyclic subgroup of order {d} {members} is not normal",
                )
    return VerificationReport(
        claim="L2.1",
        scope=f"{scope} ({checked} unique cyclic subgroups checked)",
        status="verified",
    )


#: Seed for the randomized lemma-4.1 sweep; fixed so the reports are stable.
_L41_SEED = 20250525


def verify_lemmas(
    max_order: int,
    *,
    table_cap: int = DEFAULT_TABLE_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> list[VerificationReport]:
    """The lemma sweeps' reports, in order: L2.1 on every enumerated group
    of order <= ``min(max_order, enum_cap)``; L3.1a for n <= ``min(max_order,
    table_cap // 2)``; L3.1b, and L4.1 on 100 seeded coprime pairs, over the
    catalog groups whose products fit ``table_cap``; L4.2 on every
    :func:`dihedral_prime_subsets` set.  They run through ``fork.run_in_order``.
    A ``table_cap`` below 1, or a table above ``MAX_TABLE_ORDER``, is
    refused before any sweep runs."""
    if table_cap < 1:
        raise DomainError(f"table cap must be >= 1, got {table_cap}")
    sizes = range(1, min(max_order, table_cap // 2) + 1)
    # L3.1a's D_2n come first; dihedral_prime_subsets checks L4.2's.
    if len(sizes) > MAX_TABLE_ORDER // 2:
        _check_cap(2 * sizes[MAX_TABLE_ORDER // 2], table_cap)
    subsets = dihedral_prime_subsets(table_cap)
    l21_order = min(max_order, enum_cap)
    tasks = [partial(check_unique_cyclic_normality, l21_order, enum_cap=enum_cap)]
    tasks += [partial(check_lemma31a, n, table_cap=table_cap) for n in sizes]
    catalog = [entry.group for entry in builtin_catalog()]
    for H in catalog:
        if 2 * H.order <= table_cap:
            tasks.append(partial(check_lemma31b, H, table_cap=table_cap))
    pairs = [
        (G, H)
        for G in catalog
        for H in catalog
        if gcd(G.order, H.order) == 1 and G.order * H.order <= table_cap
    ]
    rng = random.Random(_L41_SEED)
    for _ in range(100):
        tasks.append(partial(check_lemma41, *rng.choice(pairs), table_cap=table_cap))
    tasks += [partial(check_lemma42, subset, table_cap=table_cap) for subset in subsets]
    return run_in_order(tasks)


def order12_case_f_report(*, enum_cap: int = DEFAULT_ENUM_CAP) -> VerificationReport:
    """At order 12, exactly one class has r = 2 (the 12-gon symmetries), and
    no class with r = 2 realizes the excluded configuration of two distinct
    order-3 cyclic subgroups as its only cyclic subgroups of order > 2."""
    scope = "order 12, two-order-3-subgroups configuration"
    r2 = [G for G in _census(12, enum_cap) if G.order == 12 and r_value(G) == 2]
    report = _match_family("T1.1-r2", scope, [("D12", make_dihedral(12))], r2)
    if not report.ok:
        return report
    histogram = invariants(r2[0]).order_histogram
    big = {d: count // euler_phi(d) for d, count in histogram.items() if d > 2}
    if big == {3: 2}:
        return _refuted(
            "T1.1-r2",
            scope,
            r2[0],
            "r = 2 arises from two distinct order-3 cyclic subgroups",
        )
    return report
