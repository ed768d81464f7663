"""Exhaustive generation of all groups of a given order, up to isomorphism.

The main path backtracks over multiplication-table cells with the identity
row and column fixed:

* the partial table is ``n`` row lists, so a lookup is two subscripts,
  and the rows of a filled cell's operands are bound once per cell;
* cells are filled in expanding "staircase" shells (1,1), (1,2), (2,1),
  (2,2), (1,3), (3,1), ... so that fresh element labels can be forced to
  appear in increasing order -- a sound relabelling cut that keeps at
  least one representative of every isomorphism class;
* Latin constraints are tracked with row/column bitmasks;
* every associativity triple is checked the moment its last cell fills,
  and constraint propagation assigns cells that become forced;
* a Lagrange cut: once the leading block ``[0..m]^2`` of the table is full
  and holds only labels ``<= m``, it is a subgroup of order ``m + 1``, so
  a node where ``m + 1`` does not divide the group order is cut.

Survivors are deduplicated through fingerprint buckets plus isomorphism
tests, keeping the lexicographically least table of each class; ``iso``
keeps each group's generating sequence and fingerprint, so a comparison
builds neither twice.

Search and dedup are pure Python, so ``enumerate_groups(n, workers=k)``
spreads them over processes, not threads.  Every call is one
``fork.fan_out`` of ``_search_share`` over ``k`` processes (``k`` clamped
to the CPUs this process may run on), this one and ``k - 1`` forked
children; its docstring gives the fork, pipe and reaping protocol, and
with ``k = 1`` the share runs here alone.  Every process walks the tree
down to a fixed frontier depth and explores the subtrees below it whose
tickets it claims from one shared counter, then deduplicates its own
tables; one more ``_dedup_classes`` pass over the groups the processes
kept merges their classes.  A class's least table is the least of the
processes' least tables, so the output does not depend on ``workers``.

Completeness is checked against ``catalog.builtin_catalog()``, which is
built from closed-form constructors and shares no code with the
backtracker: the tests match its order-n entries one to one with the
classes found here for every n <= 15.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fork import fan_out
from .groups import TABLE_DTYPE, FiniteGroup, _freeze
from .iso import are_isomorphic, fingerprint

DEFAULT_ENUM_CAP = 16

__all__ = [
    "DEFAULT_ENUM_CAP",
    "EnumerationResult",
    "enumerate_groups",
    "all_groups_upto",
    "known_census",
]

#: Published census of isomorphism classes for orders 1..20.
known_census = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5)

#: Depth of the search-tree frontier whose subtrees processes claim one at
#: a time.  At orders 16, 18, 20 and 24 it holds 11, 17, 13 and 23 subtrees
#: that survive the Lagrange cut, and every process walks the 44-58 nodes
#: down to it, of 2,115-50,822 in the whole tree.  Claimed in turn, they
#: split the nodes of orders 16, 18 and 20 between two processes at worst
#: 0.58/0.42 in a measured run; dealt round-robin, up to 0.66/0.34.
_FRONTIER_DEPTH = 6


@dataclass(frozen=True)
class EnumerationResult:
    order: int
    groups: tuple[FiniteGroup, ...]
    tables_explored: int
    elapsed: float


def _staircase_cells(n: int) -> list[tuple[int, int]]:
    cells: list[tuple[int, int]] = []
    for m in range(1, n):
        for i in range(1, m):
            cells.append((i, m))
            cells.append((m, i))
        cells.append((m, m))
    return cells


def _lagrange_top(
    T: list[list[int]], n: int, first: int, stop: int, top: int
) -> int:
    """Extend the running maximum label over leading blocks, or refuse.

    ``T`` is an n x n table of row lists whose blocks ``[0..m]^2`` are
    filled for every ``m < stop``, and ``top`` is the largest label in
    block ``[0..first-1]^2``.  A block whose labels are all ``<= m`` is
    closed under the product and holds the identity, so in any completion
    that is a group it is a subgroup of order ``m + 1``, which must divide
    ``n``.  Returns the largest label in block ``[0..stop-1]^2``, or -1
    when some block ``m`` in ``first..stop-1`` is closed and ``m + 1``
    does not divide ``n``.
    """
    for m in range(first, stop):
        # the identity row and column add label m; then row m and column m
        top = max(top, m, *T[m][1 : m + 1], *(T[k][m] for k in range(1, m)))
        if top <= m and n % (m + 1):
            return -1
    return top


def _check_order(n: int, enum_cap: int) -> None:
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    if n > enum_cap:
        raise ResourceLimitError(f"order {n} exceeds the enumeration cap {enum_cap}")


def _search_tables(n: int, *, claim: Callable[[], int] | None = None):
    """Yield completed flat group tables.

    The partial table is kept as ``n`` row lists ``T[a][b]``, -1 for an
    empty cell; the trail and the propagation queue hold ``(a, b)`` cells.

    Only the subtrees ``claim`` hands out are explored; without it, all.
    Every process walks the tree above ``_FRONTIER_DEPTH`` in the same
    order and numbers its frontier nodes -- the nodes at that depth that
    pass the Lagrange cut, and the complete tables above it -- 0, 1, 2,
    ...; it explores node k only when it holds ticket k.  ``claim()``
    returns the next unclaimed ticket; a process takes one at the start
    and another after each subtree it explores.
    """
    if claim is None:
        claim = itertools.count().__next__
    cells = _staircase_cells(n)
    T = [[-1] * n for _ in range(n)]
    row_used = [0] * n
    col_used = [0] * n
    row_inv = [[-1] * n for _ in range(n)]
    trail: list[tuple[int, int]] = []
    queue: list[tuple[int, int]] = []

    for k in range(n):
        T[0][k] = k
        T[k][0] = k
        row_inv[0][k] = k
        row_inv[k][k] = 0
    row_used[0] = (1 << n) - 1
    col_used[0] = (1 << n) - 1
    for k in range(1, n):
        row_used[k] = 1 << k
        col_used[k] = 1 << k

    introduced = 1

    def assign(a: int, b: int, v: int) -> bool:
        nonlocal introduced
        ra = T[a]
        cur = ra[b]
        if cur >= 0:
            return cur == v
        bit = 1 << v
        if row_used[a] & bit or col_used[b] & bit:
            return False
        ra[b] = v
        row_used[a] |= bit
        col_used[b] |= bit
        row_inv[a][v] = b
        cell = (a, b)
        trail.append(cell)
        queue.append(cell)
        if v > introduced:
            introduced = v
        return True

    def propagate() -> bool:
        while queue:
            a, b = queue.pop()
            ra = T[a]
            rb = T[b]
            v = ra[b]
            rv = T[v]
            for z in range(1, n):
                # triples (a, b, z): (ab)z = v*z against a*(bz)
                q = rb[z]
                if q >= 0:
                    left = rv[z]
                    right = ra[q]
                    if left >= 0:
                        if right >= 0:
                            if left != right:
                                return False
                        elif not assign(a, q, left):
                            return False
                    elif right >= 0 and not assign(v, z, right):
                        return False
                # triples (z, a, b): (za)b against z*(ab) = z*v
                rz = T[z]
                p = rz[a]
                if p >= 0:
                    left = T[p][b]
                    right = rz[v]
                    if left >= 0:
                        if right >= 0:
                            if left != right:
                                return False
                        elif not assign(z, v, left):
                            return False
                    elif right >= 0 and not assign(p, b, right):
                        return False
                # triples (z, y, b) with z*y = a: (zy)b = ab = v against z*(yb)
                iz = row_inv[z]
                y = iz[a]
                if y >= 1:
                    q2 = T[y][b]
                    if q2 >= 0:
                        right = rz[q2]
                        if right >= 0:
                            if right != v:
                                return False
                        elif not assign(z, q2, v):
                            return False
                # triples (a, z, y) with z*y = b: a*(zy) = ab = v against (az)y
                y = iz[b]
                if y >= 1:
                    p2 = ra[z]
                    if p2 >= 0:
                        left = T[p2][y]
                        if left >= 0:
                            if left != v:
                                return False
                        elif not assign(p2, y, v):
                            return False
        return True

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            a, b = trail.pop()
            ra = T[a]
            v = ra[b]
            ra[b] = -1
            bit = ~(1 << v)
            row_used[a] &= bit
            col_used[b] &= bit
            row_inv[a][v] = -1

    total_cells = len(cells)
    frontier = -1
    ticket = claim()

    def descend(ci: int, closed_upto: int, top: int, depth: int):
        # Every staircase shell below the first empty cell's is full, so
        # the blocks [0..m]^2 for m up to shell - 1 are known: they are
        # checked by the Lagrange cut once each, carrying their maximum
        # label down as ``top``.
        nonlocal introduced, frontier, ticket
        while ci < total_cells:
            a, b = cells[ci]
            if T[a][b] < 0:
                break
            ci += 1
        leaf = ci == total_cells
        if not leaf:
            a, b = cells[ci]
            shell = a if a > b else b
            if closed_upto < shell - 1:
                top = _lagrange_top(T, n, closed_upto + 1, shell, top)
                if top < 0:
                    return
                closed_upto = shell - 1
        gated = depth == _FRONTIER_DEPTH or leaf and depth < _FRONTIER_DEPTH
        if gated:
            frontier += 1
            if frontier != ticket:
                return
        if leaf:
            yield tuple(x for row in T for x in row)
        else:
            saved_introduced = introduced
            if shell > introduced:
                introduced = shell
            shell_introduced = introduced
            limit = min(introduced + 1, n - 1)
            blocked = row_used[a] | col_used[b]
            mark = len(trail)
            for v in range(limit + 1):
                if blocked >> v & 1:
                    continue
                queue.clear()
                if assign(a, b, v) and propagate():
                    yield from descend(ci + 1, closed_upto, top, depth + 1)
                unwind(mark)
                introduced = shell_introduced
            introduced = saved_introduced
        if gated:
            ticket = claim()

    yield from descend(0, 0, 0, 0)


def _dedup_classes(groups: list[FiniteGroup]) -> list[FiniteGroup]:
    """Collapse ``groups`` to one per isomorphism class, keeping the group
    with the lexicographically least flat table of each class.

    ``groups`` is emptied as it is read, so a group that joins no class is
    freed, with its memo, once it has been compared.
    """
    # Big-endian cells order as numbers do, so the groups are taken in
    # ascending order of table, and each bucket is too.
    groups.sort(key=lambda G: G.table.astype(">i2").tobytes(), reverse=True)
    buckets: dict[tuple, list[FiniteGroup]] = {}
    while groups:
        G = groups.pop()
        bucket = buckets.setdefault(fingerprint(G).sort_key(), [])
        if not any(are_isomorphic(existing, G) for existing in bucket):
            bucket.append(G)
    return [G for key in sorted(buckets) for G in buckets[key]]


def _search_share(n: int, claim: Callable[[], int]):
    """Search the subtrees ``claim`` hands out and dedup their tables:
    ``(tables explored, classes)``."""
    tables = [
        _freeze(np.array(flat, dtype=TABLE_DTYPE).reshape(n, n))
        for flat in _search_tables(n, claim=claim)
    ]
    explored = len(tables)
    return explored, _dedup_classes(tables)


def enumerate_groups(
    n: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    workers: int = 1,
) -> EnumerationResult:
    """All isomorphism classes of groups of order n, exhaustively.

    The output (class representatives and their order) is deterministic;
    ``tables_explored`` counts the complete tables generated before
    deduplication.  ``workers`` (an integer >= 1, clamped to the CPUs this
    process may run on) processes search and deduplicate, this one and
    ``workers - 1`` forked children, all reaped before this returns or
    raises; the output does not depend on it.  ``n`` and ``workers`` are
    checked before any search or fork, and nothing limits the search
    once it runs.
    """
    _check_order(n, enum_cap)
    try:
        processes = operator.index(workers)
    except TypeError:
        processes = 0
    if processes < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    start = time.monotonic()
    explored, kept = zip(*fan_out(partial(_search_share, n), processes))
    groups = _dedup_classes([G for share in kept for G in share])
    return EnumerationResult(
        order=n,
        groups=tuple(groups),
        tables_explored=sum(explored),
        elapsed=time.monotonic() - start,
    )


_UPTO_CACHE: dict[int, EnumerationResult] = {}


def all_groups_upto(
    max_order: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> dict[int, EnumerationResult]:
    """Enumeration results for every order 1..max_order (memoized)."""
    _check_order(max_order, enum_cap)
    results = {}
    for m in range(1, max_order + 1):
        cached = _UPTO_CACHE.get(m)
        if cached is None:
            cached = enumerate_groups(m, enum_cap=enum_cap)
            _UPTO_CACHE[m] = cached
        results[m] = cached
    return results
