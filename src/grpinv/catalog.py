"""Built-in catalog of named groups of order <= 16.

Carries every cyclic group, the dihedral and dicyclic families that fit,
all abelian products, A4, and the named order-16 extensions that the
c(G) = |G| - 4 classification needs.  Entries are pairwise
non-isomorphic; aliases record alternative conventional names.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import (
    TABLE_DTYPE,
    FiniteGroup,
    _freeze,
    direct_product,
    inverses,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian_2,
    split_extension_by_involution,
)

__all__ = ["CatalogEntry", "builtin_catalog", "catalog_group", "alternating_4"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    aliases: tuple[str, ...]
    group: FiniteGroup


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    """Multiplication table of a set of permutations closed under composition."""
    perms = sorted(perms)
    index = {p: k for k, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=TABLE_DTYPE)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(len(p)))
            table[a, b] = index[composed]
    return _freeze(table, name=name)


def alternating_4() -> FiniteGroup:
    """The even permutations of four points."""
    evens = []
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for a, b in itertools.combinations(range(4), 2) if perm[a] > perm[b]
        )
        if inversions % 2 == 0:
            evens.append(perm)
    return _perm_group(evens, "A4")


def generalized_dihedral(G: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Extension of an abelian group by the inversion x -> x^-1."""
    if not np.array_equal(G.table, G.table.T):
        raise DomainError("inversion is an automorphism only for abelian groups")
    return split_extension_by_involution(G, inverses(G), name=name)


def _q8_extension() -> FiniteGroup:
    """Q8 extended by conjugation with a 4-element: the order-16 group with
    c = 12 (center of order 4 generated by a mixed element)."""
    q8 = make_dicyclic(8)
    # x -> a x a^-1 for a = index 1.
    conjugation = q8.table[q8.table[1], inverses(q8)[1]]
    return split_extension_by_involution(q8, conjugation, name="Q8:Z2")


def _abelian(name: str, *factors: int) -> CatalogEntry:
    group = make_cyclic(factors[0])
    for f in factors[1:]:
        group = direct_product(group, make_cyclic(f))
    return CatalogEntry(name=name, aliases=(), group=_freeze(group.table, name=name))


def _named(name: str, group: FiniteGroup, *aliases: str) -> CatalogEntry:
    return CatalogEntry(name=name, aliases=aliases, group=_freeze(group.table, name=name))


@functools.lru_cache(maxsize=1)
def builtin_catalog() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for n in range(1, 17):
        aliases = ()
        if n == 1:
            aliases = ("trivial",)
        elif n == 2:
            aliases = ("D2",)
        entries.append(
            CatalogEntry(name=f"Z{n}", aliases=aliases, group=make_cyclic(n))
        )
    entries += [
        _named("Z2xZ2", make_elementary_abelian_2(2), "V4", "D4"),
        _named("Z2xZ2xZ2", make_elementary_abelian_2(3)),
        _named("Z2xZ2xZ2xZ2", make_elementary_abelian_2(4)),
        _abelian("Z4xZ2", 4, 2),
        _abelian("Z4xZ4", 4, 4),
        _abelian("Z4xZ2xZ2", 4, 2, 2),
        _abelian("Z8xZ2", 8, 2),
        _abelian("Z6xZ2", 6, 2),
        _abelian("Z3xZ3", 3, 3),
        _named("D6", make_dihedral(6), "S3"),
        _named("D8", make_dihedral(8)),
        _named("D10", make_dihedral(10)),
        _named("D12", make_dihedral(12)),
        _named("D14", make_dihedral(14)),
        _named("D16", make_dihedral(16)),
        _named("Q8", make_dicyclic(8), "Dic8"),
        _named("Dic12", make_dicyclic(12), "Q12"),
        _named("Q16", make_dicyclic(16), "Dic16"),
        _named("A4", alternating_4()),
        _named(
            "Z2xD8",
            direct_product(make_cyclic(2), make_dihedral(8)),
        ),
        # Z2^3 = <x, y, z> extended by t swapping y and z, with t*t = x.
        _named(
            "(Z2xZ2):Z4",
            split_extension_by_involution(
                make_elementary_abelian_2(3), [0, 1, 4, 5, 2, 3, 6, 7], h0=1
            ),
        ),
        _named("Q8:Z2", _q8_extension()),
    ]
    return tuple(entries)


def catalog_group(name: str) -> FiniteGroup:
    """Look up a catalog member by primary name or alias."""
    for entry in builtin_catalog():
        if entry.name == name or name in entry.aliases:
            return entry.group
    raise KeyError(f"no catalog group named {name!r}")
