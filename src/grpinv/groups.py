"""Finite groups as dense multiplication tables, and their invariants.

A group of order n lives on element indices 0..n-1 with the identity at
index 0.  The table is an n x n ``TABLE_DTYPE`` (int16) array with
``table[a, b]`` holding the index of a*b, so no order above
``MAX_TABLE_ORDER = 2**15`` can be built.  Tables are immutable after
construction, and after unpickling, and safe to share across threads.

The invariants of interest are

* ``i(G)``: the number of solutions of x*x = e (identity included),
* ``c(G)``: the number of cyclic subgroups (trivial subgroup included),
* ``r(G) = c(G) - i(G)`` and ``beta(G) = i(G)/c(G)`` as an exact Fraction.

All of them follow from the element orders alone: with n_d elements of
order d, ``i = n_1 + n_2`` and, since a cyclic subgroup of order d has
phi(d) generators, ``c = sum_d n_d / phi(d)``.  The order vector is the
one thing scanned per group, by a few length-n gathers per prime p
dividing n = |G| and no loop over elements; it and the invariants are
kept by ``_per_group`` for as long as the group lives.  Let P_p(x) = x^p:
P_2 is the diagonal, and for odd p the map comes from binary powering,
where a squaring is a gather through the diagonal and a multiply one
gather from the table.  With p^a || n, the image of P_p^a is the set S_p
of elements whose order is prime to p.  If p does not divide ord(x),
raising to p^a permutes <x>, so x is a (p^a)-th power.  Conversely, if
x = y^(p^a) with ord(y) = p^b m and p not dividing m, then b <= a because
ord(y) divides n, so x^m = e and ord(x) divides m.  The power x^(p^k) has
order ord(x) / gcd(ord(x), p^k), which lies in S_p exactly when p^k is at
least the p-part of ord(x).  So the number e_p(x) of P_p steps from x into
S_p is the exponent of p in ord(x), and ``ord(x) = prod_p p^e_p(x)``.
Cyclic subgroups themselves are built only on request.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .arith import euler_phi, factorize, is_unit_involution
from .errors import (
    DomainError,
    InvariantViolationError,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    ResourceLimitError,
)

#: Largest table edge we materialize by default (quadratic memory).
DEFAULT_TABLE_CAP = 4096

#: Cell type of every Cayley table.
TABLE_DTYPE = np.int16

#: Largest order whose element indices all fit a ``TABLE_DTYPE`` cell; no
#: ``table_cap`` lifts it.
MAX_TABLE_ORDER = 2**15

__all__ = [
    "DEFAULT_TABLE_CAP",
    "MAX_TABLE_ORDER",
    "TABLE_DTYPE",
    "FiniteGroup",
    "GroupInvariants",
    "CyclicSubgroupSet",
    "verify_axioms",
    "make_cyclic",
    "make_dihedral",
    "make_dicyclic",
    "make_elementary_abelian_2",
    "direct_product",
    "dihedral_product",
    "semidirect_zn_z2",
    "element_orders",
    "element_order",
    "involution_count",
    "inverses",
    "cyclic_subgroups",
    "invariants",
    "is_normal_subgroup",
    "is_elementary_abelian_2",
]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """An immutable multiplication table with the identity at index 0."""

    order: int
    table: np.ndarray
    name: str | None = None

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"FiniteGroup(order={self.order}{label})"

    def __reduce__(self):
        # An unpickled table arrives writable; _freeze makes it read-only.
        return _freeze, (self.table, self.name)


@dataclass(frozen=True)
class GroupInvariants:
    """Bundle of the counted invariants of one group."""

    order: int
    i: int
    c: int
    r: int
    beta: Fraction
    order_histogram: dict[int, int]


@dataclass(frozen=True)
class CyclicSubgroupSet:
    """All cyclic subgroups, each as a sorted tuple of element indices."""

    subgroups: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.subgroups)


def _freeze(table: np.ndarray, name: str | None = None) -> FiniteGroup:
    """Wrap a trusted table without re-validating the axioms.

    A C-contiguous ``TABLE_DTYPE`` table is wrapped without a copy.  An
    order above ``MAX_TABLE_ORDER`` is refused before the cast, which
    would wrap its indices.
    """
    _check_cap(table.shape[0], MAX_TABLE_ORDER)
    arr = np.ascontiguousarray(table, dtype=TABLE_DTYPE)
    arr.setflags(write=False)
    return FiniteGroup(order=arr.shape[0], table=arr, name=name)


def _check_cap(order: int, table_cap: int) -> None:
    if order > table_cap:
        raise ResourceLimitError(
            f"group order {order} exceeds the table cap {table_cap}"
        )
    if order > MAX_TABLE_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds {MAX_TABLE_ORDER}, the largest order "
            f"whose element indices fit {np.dtype(TABLE_DTYPE).name} cells"
        )


# ---------------------------------------------------------------------------
# Axiom verification


def verify_axioms(table, name: str | None = None) -> FiniteGroup:
    """Validate an arbitrary square index array as a group table.

    Checks, in order: shape, integer entries and index range, the
    Latin-square property, existence of a two-sided identity (relabelled to
    index 0 if it sits elsewhere), and full associativity.  Each failure
    raises a distinct exception type.  Floats, bools, strings and integers
    too large for a machine word are refused, not cast.
    """
    try:
        arr = np.asarray(table)
    except (TypeError, ValueError) as exc:
        raise NotLatinSquareError(f"not a rectangular integer array: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotLatinSquareError("table is not a square array")
    n = arr.shape[0]
    if n == 0:
        raise NotLatinSquareError("table is empty")
    if arr.dtype.kind not in "iu":
        raise NotLatinSquareError(f"table entries are not integers ({arr.dtype})")
    _check_cap(n, MAX_TABLE_ORDER)
    # The range is checked in the input's own dtype, so the cast cannot wrap.
    if arr.min() < 0 or arr.max() >= n:
        raise NotLatinSquareError("table entries out of index range")
    arr = arr.astype(TABLE_DTYPE)
    idx = np.arange(n)
    if not (np.sort(arr, axis=1) == idx).all() or not (
        np.sort(arr, axis=0) == idx[:, None]
    ).all():
        raise NotLatinSquareError("rows and columns are not all permutations")
    row_hits = (arr == idx).all(axis=1)
    col_hits = (arr == idx[:, None]).all(axis=0)
    both = np.nonzero(row_hits & col_hits)[0]
    if both.size == 0:
        raise NoIdentityError("no two-sided identity element")
    e = int(both[0])
    if e != 0:
        sigma = idx.copy()
        sigma[[0, e]] = [e, 0]
        arr = sigma[arr[np.ix_(sigma, sigma)]]
    for a in range(n):
        if not np.array_equal(arr[arr[a]], arr[a][arr]):
            raise NotAssociativeError(f"associativity fails in row {a}")
    # Inverses exist in any associative Latin square with identity.
    return _freeze(arr, name=name)


# ---------------------------------------------------------------------------
# Constructors


def _circulant(n: int, *, offset: int = 0, shift: int = 0, sign: int = 1) -> np.ndarray:
    """Read-only (n, n) view with ``[a, b] = (a + sign*b + shift) % n + offset``.

    Row a is a length-n window of ``v = (arange(2n) + shift) % n + offset``:
    the one starting at a for sign = +1.  For sign = -1, v is reversed and
    row a is the window starting at n-1-a, so the row stride is negative.
    No n x n array is computed; copying the view out is the only O(n^2)
    work.  v is computed in int32, where 2n cannot overflow, and cast to
    ``TABLE_DTYPE`` so that the copy needs no cast.  The view is made
    directly on v's buffer, read-only because v is.
    """
    start = 0 if sign == 1 else n - 1
    v = (sign * (np.arange(2 * n, dtype=np.int32) - start) + shift) % n + offset
    v = v.astype(TABLE_DTYPE)
    v.flags.writeable = False
    step = v.itemsize
    return np.ndarray(
        (n, n),
        dtype=TABLE_DTYPE,
        buffer=v,
        offset=start * step,
        strides=(sign * step, step),
    )


def make_cyclic(n: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """Cyclic group of order n."""
    if n < 1:
        raise DomainError(f"cyclic group needs order >= 1, got {n}")
    _check_cap(n, table_cap)
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    table[:] = _circulant(n)
    return _freeze(table, name=f"Z{n}")


def _inverted_cyclic(n: int, square: int, name: str) -> FiniteGroup:
    """<a, b | a^n = e, b^2 = a^square, b a b^-1 = a^-1>, of order 2n:
    indices 0..n-1 are a^i, n..2n-1 are a^i b."""
    table = np.empty((2 * n, 2 * n), dtype=TABLE_DTYPE)
    table[:n, :n] = _circulant(n)
    table[:n, n:] = _circulant(n, offset=n)
    table[n:, :n] = _circulant(n, offset=n, sign=-1)
    table[n:, n:] = _circulant(n, shift=square, sign=-1)
    return _freeze(table, name=name)


def make_dihedral(m: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """Dihedral group of order m (m even, m = 2n for the n-gon); D2 is Z2."""
    if m < 2 or m % 2 != 0:
        raise DomainError(f"dihedral group needs an even order >= 2, got {m}")
    _check_cap(m, table_cap)
    return _inverted_cyclic(m // 2, 0, f"D{m}")


def make_dicyclic(m: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """Dicyclic group of order m = 4k; Dic8 is the quaternion group Q8."""
    if m < 4 or m % 4 != 0:
        raise DomainError(f"dicyclic group needs order divisible by 4, got {m}")
    _check_cap(m, table_cap)
    return _inverted_cyclic(m // 2, m // 4, f"Dic{m}")


def make_elementary_abelian_2(
    k: int, *, table_cap: int = DEFAULT_TABLE_CAP
) -> FiniteGroup:
    """Elementary abelian 2-group of order 2**k (k = 0 gives the trivial group)."""
    if k < 0:
        raise DomainError(f"rank must be >= 0, got {k}")
    order = 2**k
    _check_cap(order, table_cap)
    i = np.arange(order, dtype=TABLE_DTYPE)
    name = "Z1" if k == 0 else "x".join(["Z2"] * k)
    return _freeze(np.bitwise_xor.outer(i, i), name=name)


def direct_product(
    G: FiniteGroup, H: FiniteGroup, *, table_cap: int = DEFAULT_TABLE_CAP
) -> FiniteGroup:
    """Direct product on row-major index pairs: (g, h) -> g*|H| + h."""
    order = G.order * H.order
    _check_cap(order, table_cap)
    # Row offsets g*|H| for every cell of G, then adds straight into the
    # output: every sum is an index below order <= MAX_TABLE_ORDER, so it
    # fits TABLE_DTYPE and no wider n x n intermediate is made.
    offsets = np.arange(0, order, H.order, dtype=TABLE_DTYPE)[G.table]
    table = np.empty((order, order), dtype=TABLE_DTYPE)
    blocks = table.reshape(G.order, H.order, G.order, H.order)
    if H.order <= 8 <= G.order // H.order:
        # A broadcast add runs its inner loop over only |H| cells, so for a
        # small H one strided add of G's offsets per cell of H is faster
        # (D2046 x Z2 on a 2-core x86-64 host: ~130 -> ~30 ms).  The
        # per-cell adds lose from |H| ~ 12 on (strided writes) and below
        # |G| = 8|H| (|H|^2 calls).
        for (a, b), value in np.ndenumerate(H.table):
            np.add(offsets, value, out=blocks[:, a, :, b])
    else:
        np.add(offsets[:, None, :, None], H.table[None, :, None, :], out=blocks)
    name = None
    if G.name and H.name:
        name = f"{G.name}x{H.name}"
    return _freeze(table, name=name)


def dihedral_product(primes, *, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """D_2p x D_2q x ... over ``primes`` in the given order, named like
    "D6xD10"; the empty product is Z1.  The product's order is checked
    against ``table_cap`` before any factor is built."""
    primes = list(primes)
    _check_cap(prod(2 * p for p in primes), table_cap)
    group = None
    for p in primes:
        factor = make_dihedral(2 * p, table_cap=table_cap)
        group = factor if group is None else direct_product(
            group, factor, table_cap=table_cap
        )
    return make_cyclic(1) if group is None else group


def split_extension_by_involution(
    G: FiniteGroup, alpha, *, h0: int = 0, name: str | None = None
) -> FiniteGroup:
    """Order-2|G| extension by t with t*x*t^-1 = alpha(x) and t*t = h0.

    ``alpha`` is an automorphism given as an index array that fixes h0,
    with alpha(alpha(x)) = h0*x*h0^-1: for the default h0 = e it is
    involutive.  Composition: (a, e)(b, d) = (a * alpha^e(b) * h0^(ed),
    e + d); index is 2a + e, so the table is one block of G's table per e,
    doubled, and that block plus one for d = 1 - e; for h0 != e the
    e = d = 1 block is then multiplied by h0 on the right.
    """
    n = G.order
    _check_cap(2 * n, MAX_TABLE_ORDER)
    if not 0 <= h0 < n:
        raise DomainError(f"h0 = {h0} is not an element index below {n}")
    alpha = np.asarray(alpha, dtype=np.intp)
    idx = np.arange(n)
    h0_inverse = np.argmax(G.table[h0] == 0)
    if (
        alpha.shape != (n,)
        or not np.array_equal(np.sort(alpha), idx)
        or not np.array_equal(alpha[alpha], G.table[G.table[h0], h0_inverse])
    ):
        raise DomainError(
            "alpha must be a permutation with alpha(alpha(x)) = h0*x*h0^-1 "
            "(involutive for h0 = e)"
        )
    if alpha[h0] != h0 or not np.array_equal(
        alpha[G.table], G.table[np.ix_(alpha, alpha)]
    ):
        raise DomainError("alpha is not an automorphism fixing h0")
    table = np.empty((n, 2, n, 2), dtype=TABLE_DTYPE)
    for e, block in enumerate((G.table, G.table[:, alpha])):
        np.multiply(block, 2, out=table[:, e, :, e])
        np.add(table[:, e, :, e], 1, out=table[:, e, :, 1 - e])
    if h0:  # t*t = h0: (a, 1)(b, 1) = (a * alpha(b) * h0, 0)
        np.take(2 * G.table[:, h0], G.table[:, alpha], out=table[:, 1, :, 1])
    return _freeze(table.reshape(2 * n, 2 * n), name=name)


def semidirect_zn_z2(
    n: int, u: int, *, table_cap: int = DEFAULT_TABLE_CAP
) -> FiniteGroup:
    """Split extension of Z_n by Z_2 where the flip acts by x -> u*x.

    Elements are pairs (a, b) with a mod n, b mod 2, composed as
    (a, b)(a', b') = (a + u^b a', b + b'), encoded as index 2a + b.
    """
    _check_cap(2 * n, table_cap)
    if n < 2:
        raise DomainError(f"semidirect base needs n >= 2, got {n}")
    if not is_unit_involution(u, n):
        raise DomainError(f"u = {u} is not a square root of 1 in the units mod {n}")
    return split_extension_by_involution(
        make_cyclic(n, table_cap=table_cap),
        np.arange(n, dtype=np.int64) * u % n,
        name=f"SD({n},{u})",
    )


# ---------------------------------------------------------------------------
# Invariants

def _per_group(compute):
    """Memoize ``compute(G)`` for as long as G lives.  Keys are weak, so the
    value must not refer to G; every caller shares the one value."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(compute)
    def memoized(G: FiniteGroup):
        if G not in cache:
            cache[G] = compute(G)
        return cache[G]

    return memoized


def _powers(G: FiniteGroup, x: int) -> list[int]:
    """[e, x, x^2, ..., x^(k-1)] for x of order k."""
    item = G.table.item
    powers = [0]
    y = x
    while y != 0:
        powers.append(y)
        y = item(y, x)
    return powers


def _power_map(G: FiniteGroup, square: np.ndarray, p: int) -> np.ndarray:
    """x -> x^p for every x at once, for odd p, by binary powering."""
    n = G.order
    cells = G.table.reshape(-1)
    result = base = np.arange(n)
    p >>= 1
    while p:
        base = square[base]
        if p & 1:
            result = cells[result * n + base].astype(np.intp)
        p >>= 1
    return result


@_per_group
def _orders(G: FiniteGroup) -> np.ndarray:
    """The read-only order array behind ``element_orders``; memoized per
    group.  See the module docstring for the method and its proof."""
    n = G.order
    square = np.diagonal(G.table).astype(np.intp)
    orders = np.ones(n, dtype=np.intp)
    for p, a in factorize(n):
        step = square if p == 2 else _power_map(G, square, p)
        # chain[k] maps x to x^(p^(k+1)); the last one's image is S_p.
        chain = [step]
        for _ in range(a - 1):
            chain.append(step[chain[-1]])
        coprime = np.zeros(n, dtype=bool)
        coprime[chain[-1]] = True
        exponent = (~coprime).astype(np.intp)
        for powers in chain[:-1]:
            exponent += ~coprime[powers]
        orders *= (p ** np.arange(a + 1))[exponent]
    orders.setflags(write=False)
    return orders


def element_orders(G: FiniteGroup) -> tuple[int, ...]:
    """The order of every element, by index, as Python ints."""
    return tuple(_orders(G).tolist())


def element_order(G: FiniteGroup, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    if not 0 <= x < G.order:
        raise DomainError(f"element index {x} out of range for order {G.order}")
    return int(_orders(G)[x])


def involution_count(G: FiniteGroup) -> int:
    """|{x : x*x = e}|, identity included."""
    return invariants(G).i


def cyclic_subgroups(G: FiniteGroup) -> CyclicSubgroupSet:
    """Every subgroup generated by a single element, deduplicated."""
    orders = element_orders(G)
    # Each subgroup is walked once, from its first generator; its other
    # generators are the members of the same order.
    covered = bytearray(G.order)
    subgroups = [(0,)]
    for x in range(1, G.order):
        if covered[x]:
            continue
        powers = _powers(G, x)
        k = len(powers)
        for y in powers:
            if orders[y] == k:
                covered[y] = 1
        subgroups.append(tuple(sorted(powers)))
    subgroups.sort(key=lambda s: (len(s), s))
    return CyclicSubgroupSet(subgroups=tuple(subgroups))


@_per_group
def invariants(G: FiniteGroup) -> GroupInvariants:
    """Counted order, i, c, r, beta, and the element-order histogram;
    memoized per group, so callers share one value and must not mutate it."""
    counts = np.bincount(_orders(G))
    present = np.flatnonzero(counts)
    histogram = dict(zip(present.tolist(), counts[present].tolist()))
    i = histogram[1] + histogram.get(2, 0)
    # A cyclic subgroup of order d has phi(d) generators of order d.
    c = sum(count // euler_phi(d) for d, count in histogram.items())
    if i > c:
        raise InvariantViolationError("i(G) > c(G) cannot happen: x -> <x> is injective on I(G)")
    return GroupInvariants(
        order=G.order,
        i=i,
        c=c,
        r=c - i,
        beta=Fraction(i, c),
        order_histogram=histogram,
    )


def inverses(G: FiniteGroup) -> np.ndarray:
    """The index of every element's inverse."""
    return np.argmax(G.table == 0, axis=1)


def is_elementary_abelian_2(G: FiniteGroup) -> bool:
    """True iff every element squares to the identity."""
    return involution_count(G) == G.order


def is_normal_subgroup(G: FiniteGroup, members) -> bool:
    """True iff the subgroup on ``members`` is invariant under conjugation.

    ``members`` must actually be a subgroup (contain the identity and be
    closed under the table); anything else is a domain error.  Closure is
    one gather of the |S| x |S| block, and the conjugates g s g^-1 one
    gather of the table's S columns through each row's inverse, so no
    temporary is wider than ``TABLE_DTYPE`` over n x |S| cells.
    """
    subgroup = sorted(set(int(x) for x in members))
    if not subgroup or subgroup[0] != 0 or subgroup[-1] >= G.order:
        raise DomainError("not a subgroup: must contain index 0 and stay in range")
    S = np.array(subgroup)
    inside = np.zeros(G.order, dtype=bool)
    inside[S] = True
    if not inside[G.table[np.ix_(S, S)]].all():
        raise DomainError("not a subgroup: set is not closed under the table")
    return bool(inside[G.table[G.table[:, S], inverses(G)[:, None]]].all())
