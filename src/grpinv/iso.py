"""Isomorphism testing for small finite groups.

The test is a two-stage affair: a cheap fingerprint of isomorphism
invariants filters out obvious mismatches, then a backtracking search
maps a minimal generating sequence of one group onto order-compatible
images in the other, extending each candidate assignment through the
subgroup closure and verifying the full homomorphism property at the end.
Witnesses are deterministic: generators are picked lowest-index-first and
candidate images are tried in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, element_orders, invariants

__all__ = [
    "IsoFingerprint",
    "IsoWitness",
    "fingerprint",
    "are_isomorphic",
    "identify",
    "is_homomorphic_bijection",
]


@dataclass(frozen=True)
class IsoFingerprint:
    """Cheap isomorphism invariants: equal for isomorphic groups, but not
    conversely."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    abelian: bool
    center_size: int
    i: int
    c: int

    def sort_key(self):
        return (
            self.order,
            self.order_histogram,
            self.abelian,
            self.center_size,
            self.i,
            self.c,
        )


@dataclass(frozen=True)
class IsoWitness:
    """A multiplicative bijection from one group's indices to another's."""

    bijection: tuple[int, ...]


def fingerprint(G: FiniteGroup) -> IsoFingerprint:
    inv = invariants(G)
    commutes = G.table == G.table.T
    return IsoFingerprint(
        order=G.order,
        order_histogram=tuple(sorted(inv.order_histogram.items())),
        abelian=bool(commutes.all()),
        center_size=int(commutes.all(axis=1).sum()),
        i=inv.i,
        c=inv.c,
    )


def _generating_sequence(G: FiniteGroup):
    """Greedy minimal generating sequence with a closure derivation chain.

    Returns (generators, chain) where chain is a list of per-generator
    segments; each segment lists (element, a, b) entries meaning
    element = a*b with a and b already reachable.  Replaying a segment in
    order extends a partial map over the enlarged span.
    """
    n = G.order
    item = G.table.item
    span = {0}
    generators: list[int] = []
    chain: list[list[tuple[int, int, int]]] = []
    for x in range(1, n):
        if x in span:
            continue
        generators.append(x)
        segment: list[tuple[int, int, int]] = []
        span.add(x)
        frontier = [x]
        while frontier:
            z = frontier.pop(0)
            for a in sorted(span):
                for candidate, lhs, rhs in ((item(a, z), a, z), (item(z, a), z, a)):
                    if candidate not in span:
                        span.add(candidate)
                        segment.append((candidate, lhs, rhs))
                        frontier.append(candidate)
        chain.append(segment)
    return generators, chain


def is_homomorphic_bijection(G: FiniteGroup, H: FiniteGroup, bijection) -> bool:
    """Check bijectivity plus f(ab) = f(a)f(b) over all pairs."""
    m = np.asarray(bijection, dtype=np.int64)
    if m.shape != (G.order,) or len(set(m.tolist())) != G.order:
        return False
    if H.order != G.order or m[0] != 0:
        return False
    return bool(np.array_equal(m[G.table], H.table[m[:, None], m[None, :]]))


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> IsoWitness | None:
    """A multiplicative bijection G -> H, or None when none exists."""
    if fingerprint(G) != fingerprint(H):
        return None
    n = G.order
    generators, chain = _generating_sequence(G)
    orders_g = element_orders(G)
    orders_h = element_orders(H)
    item_h = H.table.item
    candidates = [
        [h for h in range(n) if orders_h[h] == orders_g[g]] for g in generators
    ]

    mapping = [-1] * n
    mapping[0] = 0
    used = [False] * n
    used[0] = True

    def extend(level: int) -> IsoWitness | None:
        if level == len(generators):
            bijection = tuple(mapping)
            if is_homomorphic_bijection(G, H, bijection):
                return IsoWitness(bijection=bijection)
            return None
        g = generators[level]
        segment = chain[level]
        for image in candidates[level]:
            if used[image]:
                continue
            assigned = [(g, image)]
            mapping[g] = image
            used[image] = True
            ok = True
            for element, a, b in segment:
                value = item_h(mapping[a], mapping[b])
                if used[value]:
                    ok = False
                    break
                mapping[element] = value
                used[value] = True
                assigned.append((element, value))
            if ok:
                witness = extend(level + 1)
                if witness is not None:
                    return witness
            for element, value in assigned:
                mapping[element] = -1
                used[value] = False
        return None

    if not generators:  # trivial group
        return IsoWitness(bijection=(0,)) if H.order == 1 else None
    return extend(0)


def identify(G: FiniteGroup, catalog=None) -> str | None:
    """Name of the unique catalog member isomorphic to G, or None.

    Groups larger than the catalog bound are still matched against the
    parametric families (cyclic, dihedral, dicyclic, elementary abelian)
    at their own order.
    """
    if catalog is None:
        from .catalog import builtin_catalog

        catalog = builtin_catalog()
    fp = fingerprint(G)
    for entry in catalog:
        if entry.group.order == G.order and fingerprint(entry.group) == fp:
            if are_isomorphic(G, entry.group) is not None:
                return entry.name
    if G.order > max((entry.group.order for entry in catalog), default=0):
        from .groups import (
            make_cyclic,
            make_dicyclic,
            make_dihedral,
            make_elementary_abelian_2,
        )

        n = G.order
        candidates = [make_cyclic(n)]
        if n % 2 == 0:
            candidates.append(make_dihedral(n))
        if n % 4 == 0:
            candidates.append(make_dicyclic(n))
        if n & (n - 1) == 0:
            candidates.append(make_elementary_abelian_2(n.bit_length() - 1))
        for candidate in candidates:
            if fingerprint(candidate) == fp and are_isomorphic(G, candidate):
                return candidate.name
    return None
