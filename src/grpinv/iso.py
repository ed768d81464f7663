"""Isomorphism testing for small finite groups.

Every comparison rejects in the same order, cheapest first: the
element-order histogram, already cached per group, then a fingerprint of
further invariants, then the search, then the certificate.  Only the
certificate accepts a pair of groups.  A histogram mismatch rejects
before any chain is built.  ``identify`` compares G with no group above
the catalog's orders: it knows the histograms of its parametric families
in closed form, and a family whose histogram is G's accepts only when
its defining relations hold in G's own table, a proof by von Dyck's
theorem that builds no candidate and runs no search.  The fingerprint's
center is the set of elements commuting with every generator, an
n x gens test.
A backtracking search then maps a greedy generating sequence of one
group onto images of the same signature (element order and number of
square roots) in the other.  Each choice of image is replayed through a
chain whose (a, b) pairs are G x generators, each once, so O(n * gens)
lookups: an entry with a new product derives an image, every other entry
is a relation checked on the spot, since a bijection fixing e is a
homomorphism iff f(z*g) = f(z)*f(g) for all z and all generators g.  The
certificate re-proves each witness by that argument: its own walk shows
that the generators reach G, and one n x gens gather checks every f(z*g).
A group's generators, chain and fingerprint are built once, when its
fingerprint or a search first needs them, and kept while the group lives.
Generators are picked lowest-index-first and images tried in ascending
order, so the witness is the lexicographically first generator-image
tuple that extends to an isomorphism; an isomorphism preserves
signatures, so restricting to them skips no such tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arith import euler_phi
from .groups import FiniteGroup, _orders, _per_group, _powers, invariants

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
        # abelian, i and c are functions of these three, and abelian is
        # true exactly at the largest center_size, so the order is the same.
        return (self.order, self.order_histogram, self.center_size)


@dataclass(frozen=True)
class IsoWitness:
    """A multiplicative bijection from one group's indices to another's."""

    bijection: tuple[int, ...]


def fingerprint(G: FiniteGroup) -> IsoFingerprint:
    return _record(G)[2]


@_per_group
def _record(G: FiniteGroup):
    """G's greedy ``generators``, their ``chain`` and G's fingerprint, built
    once and kept for as long as G lives."""
    generators, chain = _generating_sequence(G)
    inv = invariants(G)
    gens = np.asarray(generators, dtype=np.intp)
    # z is central iff it commutes with every generator: an n x gens test.
    central = (G.table[:, gens] == G.table[gens, :].T).all(axis=1)
    center_size = int(central.sum())
    return generators, chain, IsoFingerprint(
        order=G.order,
        order_histogram=tuple(sorted(inv.order_histogram.items())),
        abelian=center_size == G.order,
        center_size=center_size,
        i=inv.i,
        c=inv.c,
    )


def _generating_sequence(G: FiniteGroup):
    """Greedy generating sequence with a derivation-and-check chain.

    Returns (generators, chain) where chain holds one segment per
    generator x.  A segment lists (element, a, b, new) entries with
    element = a*b, a already reached and b a generator chosen so far:
    new entries derive an element seen for the first time, the others
    are relations to check.  The segment walks the span breadth-first
    from x, right-multiplying each newly reached element by every chosen
    generator, then closes with z*x for every z of the previous span, so
    the (a, b) pairs over all segments are G x generators, each once.
    """
    n = G.order
    item = G.table.item
    in_span = bytearray(n)
    in_span[0] = 1
    span = [0]
    generators: list[int] = []
    chain: list[list[tuple[int, int, int, bool]]] = []
    for x in range(1, n):
        if in_span[x]:
            continue
        generators.append(x)
        segment: list[tuple[int, int, int, bool]] = []
        in_span[x] = 1
        reached = [x]
        for w in reached:
            for g in generators:
                z = item(w, g)
                new = not in_span[z]
                if new:
                    in_span[z] = 1
                    reached.append(z)
                segment.append((z, w, g, new))
        for z in span:
            segment.append((item(z, x), z, x, False))
        span.extend(reached)
        chain.append(segment)
    return generators, chain


def is_homomorphic_bijection(G: FiniteGroup, H: FiniteGroup, bijection) -> bool:
    """Whether x -> bijection[x] is an isomorphism G -> H, proved on G's greedy
    generators.  Entries must be integers (a bool is 0 or 1); others give False."""
    return _certify(G, H, bijection, _record(G)[0])


def _certify(G: FiniteGroup, H: FiniteGroup, bijection, generators) -> bool:
    """Prove f = bijection an isomorphism in O(n * |S|), S = generators: f
    permutes 0..n-1 fixing e, a walk x -> x*s from e reaches all of G, and
    f(z*s) = f(z)*f(s) for all z and s in S.  The w with f(z*w) = f(z)*f(w)
    for all z include S and are closed under products, so they are G."""
    n = G.order
    try:
        m = np.asarray(bijection)
    except ValueError:  # a ragged sequence
        return False
    if H.order != n or m.shape != (n,) or m.dtype.kind not in "biu":
        return False
    values = m.tolist()
    if values[0] != 0 or sorted(values) != list(range(n)):
        return False
    m = m.astype(np.intp)  # a permutation, so no wrap; bools become indices
    products = G.table.take(generators, axis=1)
    rows = products.tolist()
    walk, reached = [0], [True] + [False] * (n - 1)
    for x in walk:
        for z in rows[x]:
            if not reached[z]:
                reached[z] = True
                walk.append(z)
    images = H.table.take(m[generators], axis=1).take(m, axis=0)
    return len(walk) == n and not np.count_nonzero(m[products] != images)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> IsoWitness | None:
    """A multiplicative bijection G -> H, or None when none exists."""
    if invariants(G).order_histogram != invariants(H).order_histogram:
        return None
    if fingerprint(G) != fingerprint(H):
        return None
    return _search(G, H)


def _signatures(G: FiniteGroup) -> np.ndarray:
    """One key per element for its (order, number of square roots), O(n)."""
    roots = np.bincount(np.diagonal(G.table), minlength=G.order)
    return _orders(G) * (G.order + 1) + roots


def _search(G: FiniteGroup, H: FiniteGroup) -> IsoWitness | None:
    """The backtracking search behind ``are_isomorphic``, along G's recorded
    chain; fingerprints must already match."""
    n = G.order
    generators, chain, _ = _record(G)
    signatures_g = _signatures(G)
    signatures_h = _signatures(H)
    item_h = H.table.item
    # An isomorphism preserves signatures, so no skipped image could extend.
    candidates = [
        np.flatnonzero(signatures_h == signatures_g[g]).tolist() for g in generators
    ]

    mapping = [-1] * n
    mapping[0] = 0
    used = [False] * n
    used[0] = True

    def extend(level: int) -> IsoWitness | None:
        if level == len(generators):
            bijection = tuple(mapping)
            certified = _certify(G, H, bijection, generators)
            return IsoWitness(bijection=bijection) if certified else None
        g = generators[level]
        segment = chain[level]
        for image in candidates[level]:
            if used[image]:
                continue
            assigned = [(g, image)]
            mapping[g] = image
            used[image] = True
            ok = True
            for element, a, b, new in segment:
                value = item_h(mapping[a], mapping[b])
                if not new:
                    if mapping[element] != value:
                        ok = False
                        break
                    continue
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

    try:
        return extend(0)
    finally:
        # extend reaches itself through its closure; breaking that cycle
        # frees both tables now instead of at the next full collection.
        del extend


def _families(n: int):
    """(name, element-order histogram, relation check) for each parametric
    family with a member of order n.  The histogram is in closed form: Z_n
    has phi(d) elements of each order d | n; D_n and Dic_n add n/2 elements
    of order 2, resp. 4, to their rotations Z_{n/2}; Z2^k has n - 1
    involutions.  The check proves a group of order n a member from its
    own table; the names are those the builders give."""

    def cyclic(m):
        return Counter({d: euler_phi(d) for d in range(1, m + 1) if m % d == 0})

    families = [(f"Z{n}", cyclic(n), _is_cyclic)]
    if n % 2 == 0:
        dihedral = partial(_is_inverted_cyclic, square=0)
        families.append((f"D{n}", cyclic(n // 2) + Counter({2: n // 2}), dihedral))
    if n % 4 == 0:
        dicyclic = partial(_is_inverted_cyclic, square=n // 4)
        families.append((f"Dic{n}", cyclic(n // 2) + Counter({4: n // 2}), dicyclic))
    if n > 1 and n & (n - 1) == 0:
        name = "x".join(["Z2"] * (n.bit_length() - 1))
        families.append((name, Counter({1: 1, 2: n - 1}), _is_elementary_abelian_2))
    return families


def _is_cyclic(G: FiniteGroup) -> bool:
    """An element of order n generates G."""
    return bool((_orders(G) == G.order).any())


def _is_elementary_abelian_2(G: FiniteGroup) -> bool:
    """x*x = e for every x, so xy = (xy)^-1 = yx: G is a vector space over
    F_2, of dimension k for |G| = 2^k."""
    return not np.diagonal(G.table).any()


def _is_inverted_cyclic(G: FiniteGroup, square: int) -> bool:
    """Whether G, of order 2m, has the relations of the builders'
    <a, b | a^m = e, b^2 = a^square, b^-1 a b = a^-1>, D_2m for square = 0
    and Dic_2m for square = m/2, on a the least index of order m and b the
    least index outside <a>; ``identify`` says why that proves G that
    group.  (ba)^2 = b^2 is aba = b, i.e. b^-1 a b = a^-1."""
    m = G.order // 2
    candidates = np.flatnonzero(_orders(G) == m)
    if not candidates.size:
        return False
    a = int(candidates[0])
    A = _powers(G, a)
    outside = np.ones(G.order, dtype=bool)
    outside[A] = False
    b = int(outside.argmax())
    item = G.table.item
    bb, ba = item(b, b), item(b, a)
    return bb == A[square] and item(ba, ba) == bb


def identify(G: FiniteGroup) -> str | None:
    """Name of the unique catalog member isomorphic to G, or None.

    Groups larger than the catalog bound are still matched against the
    parametric families (cyclic, dihedral, dicyclic, elementary abelian)
    at their own order, in G's own table: no candidate table is built and
    no search runs.  A family whose closed-form order histogram differs
    from G's is rejected first.  Otherwise the family's defining relations
    are checked on G: Z_n needs an element of order n and Z2^k a diagonal
    of e.  For D_n and Dic_n, a is the least index of order n/2, A its
    powers and b the least index outside A: |A| = n/2 and b not in A
    make <a, b> larger than A, so a and b generate G.  D_n needs
    b^2 = (ba)^2 = e, and Dic_n b^2 = a^(n/4) and (ba)^2 = b^2.  G is then
    a quotient of the family's presented group, which has G's order, so
    the two are isomorphic (von Dyck's theorem).  This proof does not rely
    on the histogram.  A catalog entry's histogram comes from its cached
    orders.
    """
    from .catalog import builtin_catalog

    catalog = builtin_catalog()
    histogram = invariants(G).order_histogram
    for entry in catalog:
        H = entry.group
        if (
            H.order == G.order
            and invariants(H).order_histogram == histogram
            and fingerprint(H) == fingerprint(G)
            and _search(G, H) is not None
        ):
            return entry.name
    if G.order > max((entry.group.order for entry in catalog), default=0):
        for name, family_histogram, relations_hold in _families(G.order):
            if family_histogram == histogram and relations_hold(G):
                return name
    return None
