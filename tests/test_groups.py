import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grpinv.arith import tau, unit_involutions
from grpinv.catalog import builtin_catalog
from grpinv.errors import (
    DomainError,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    ResourceLimitError,
)
from grpinv.groups import (
    _circulant,
    cyclic_subgroups,
    dihedral_product,
    direct_product,
    element_order,
    element_orders,
    invariants,
    involution_count,
    is_normal_subgroup,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian_2,
    semidirect_zn_z2,
    split_extension_by_involution,
    verify_axioms,
)
from grpinv.iso import are_isomorphic

# A Latin square with identity that genuinely fails associativity (order 5
# is the smallest order where a non-associative loop exists).
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_verify_axioms_trivial_and_z2():
    assert verify_axioms([[0]]).order == 1
    assert verify_axioms([[0, 1], [1, 0]]).order == 2


def test_verify_axioms_relabels_identity():
    # Z3 written with its identity at index 2.
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    G = verify_axioms(table)
    assert G.mult(0, 0) == 0
    assert are_isomorphic(G, make_cyclic(3)) is not None


def test_verify_axioms_rejects_each_failure_distinctly():
    with pytest.raises(NotLatinSquareError):
        verify_axioms([[0, 1], [0, 1]])
    with pytest.raises(NotLatinSquareError):
        verify_axioms([[0, 1, 2], [1, 2, 0]])
    # Every 3x3 Latin square with a two-sided identity is the cyclic table,
    # so a non-cyclic-shift square fails on the missing identity instead.
    with pytest.raises(NoIdentityError):
        verify_axioms([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(NotAssociativeError):
        verify_axioms(NONASSOCIATIVE_LOOP)


def test_constructed_groups_pass_axioms():
    groups = [
        make_cyclic(1),
        make_cyclic(17),
        make_dihedral(2),
        make_dihedral(26),
        make_dicyclic(4),
        make_dicyclic(20),
        make_elementary_abelian_2(0),
        make_elementary_abelian_2(5),
        semidirect_zn_z2(15, 4),
        direct_product(make_dihedral(6), make_cyclic(5)),
    ]
    for G in groups:
        check = verify_axioms(G.table)
        assert check.order == G.order


def test_constructor_domain_errors():
    with pytest.raises(DomainError):
        make_cyclic(0)
    with pytest.raises(DomainError):
        make_dihedral(7)
    with pytest.raises(DomainError):
        make_dicyclic(6)
    with pytest.raises(DomainError):
        make_elementary_abelian_2(-1)
    with pytest.raises(DomainError):
        semidirect_zn_z2(5, 2)
    with pytest.raises(ResourceLimitError):
        make_cyclic(100, table_cap=64)
    with pytest.raises(ResourceLimitError):
        direct_product(make_cyclic(10), make_cyclic(10), table_cap=64)


def test_small_family_facts():
    assert make_dihedral(2).order == 2  # D2 is Z2
    assert are_isomorphic(make_dihedral(2), make_cyclic(2)) is not None
    assert are_isomorphic(make_dicyclic(4), make_cyclic(4)) is not None
    d6 = invariants(make_dihedral(6))
    assert sorted(
        o for o, cnt in d6.order_histogram.items() for _ in range(cnt)
    ) == [1, 2, 2, 2, 3, 3]
    # Q8 has exactly one involution besides the identity.
    assert invariants(make_dicyclic(8)).order_histogram[2] == 1


def test_element_order():
    z12 = make_cyclic(12)
    assert element_order(z12, 0) == 1
    assert element_order(z12, 1) == 12
    g = direct_product(make_cyclic(4), make_cyclic(2))
    # element (1, 1) has index 1*2 + 1 = 3 and order lcm(4, 2) = 4
    assert element_order(g, 3) == 4
    with pytest.raises(DomainError):
        element_order(z12, 12)


def test_involution_count_examples():
    assert involution_count(make_elementary_abelian_2(3)) == 8
    assert involution_count(make_cyclic(4)) == 2
    assert involution_count(make_dihedral(8)) == 6


def test_cyclic_subgroup_counts():
    assert cyclic_subgroups(make_cyclic(12)).count == 6
    assert cyclic_subgroups(make_dihedral(8)).count == 7
    assert cyclic_subgroups(make_cyclic(1)).count == 1


def test_cyclic_subgroups_are_closed_and_generated():
    for G in (make_dihedral(12), make_dicyclic(12), semidirect_zn_z2(9, 8)):
        subs = cyclic_subgroups(G).subgroups
        assert (0,) in subs
        assert len(set(subs)) == len(subs)
        for s in subs:
            members = set(s)
            assert 0 in members
            for a in s:
                for b in s:
                    assert G.mult(a, b) in members
            assert any(
                {0} | _powers(G, x) == members for x in s
            ), f"{s} not generated by one element"


def _powers(G, x):
    seen = set()
    y = x
    while y != 0:
        seen.add(y)
        y = G.mult(y, x)
    return seen


def test_invariants_examples():
    d6 = invariants(make_dihedral(6))
    assert (d6.order, d6.i, d6.c, d6.r, d6.beta) == (6, 4, 5, 1, Fraction(4, 5))
    q8 = invariants(make_dicyclic(8))
    assert (q8.order, q8.i, q8.c, q8.r, q8.beta) == (8, 2, 5, 3, Fraction(2, 5))
    for k in range(5):
        assert invariants(make_elementary_abelian_2(k)).beta == 1


def test_invariants_bounds_and_histogram_total():
    for entry in builtin_catalog():
        inv = invariants(entry.group)
        assert 1 <= inv.i <= inv.c <= inv.order
        assert inv.r == inv.c - inv.i >= 0
        assert inv.beta == Fraction(inv.i, inv.c)
        assert sum(inv.order_histogram.values()) == inv.order
        # The phi formula for c and the materialized subgroups are
        # independent paths; they must agree.
        G = entry.group
        orders = element_orders(G)
        assert inv.c == cyclic_subgroups(G).count
        assert all(element_order(G, x) == orders[x] for x in range(G.order))
        assert sum(inv.order_histogram.values()) == len(orders)


def test_cyclic_subgroup_count_equals_tau_for_cyclic_groups():
    for n in range(1, 513):
        assert cyclic_subgroups(make_cyclic(n)).count == tau(n), n


def test_dihedral_invariant_formulas():
    # i(D_2n) = n+1 (n odd) or n+2 (n even); c(D_2n) = tau(n) + n.
    for n in range(1, 257):
        G = make_dihedral(2 * n)
        inv = invariants(G)
        assert inv.i == n + (1 if n % 2 else 2), n
        assert inv.c == tau(n) + n, n


def test_direct_product_structure():
    G = make_dihedral(10)
    with_trivial = direct_product(make_cyclic(1), G)
    assert are_isomorphic(with_trivial, G) is not None
    v4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert invariants(v4).i == 4
    z12 = direct_product(make_cyclic(3), make_cyclic(4))
    assert are_isomorphic(z12, make_cyclic(12)) is not None


def test_dihedral_product_matches_chained_direct_products():
    G = dihedral_product((3, 5, 7))
    chained = direct_product(
        direct_product(make_dihedral(6), make_dihedral(10)), make_dihedral(14)
    )
    assert G.name == "D6xD10xD14"
    assert (G.table == chained.table).all()
    assert dihedral_product((5,)).name == "D10"
    assert dihedral_product(()).name == "Z1" and dihedral_product(()).order == 1
    with pytest.raises(ResourceLimitError):
        dihedral_product((3, 5), table_cap=59)


def test_semidirect_cap_is_checked_first():
    # A unit scan over n would take minutes; the cap must refuse at once.
    with pytest.raises(ResourceLimitError):
        semidirect_zn_z2(10**9, 1)
    with pytest.raises(ResourceLimitError):
        semidirect_zn_z2(10**9, 2)


def test_semidirect_examples():
    assert are_isomorphic(
        semidirect_zn_z2(5, 1), make_cyclic(10)
    ) is not None
    assert are_isomorphic(
        semidirect_zn_z2(5, 4), make_dihedral(10)
    ) is not None
    odd_case = semidirect_zn_z2(12, 5)
    assert odd_case.order == 24
    assert are_isomorphic(
        odd_case, direct_product(make_cyclic(2), make_cyclic(12))
    ) is None
    assert are_isomorphic(odd_case, make_dihedral(24)) is None


def _semidirect_mod_reference(n, u):
    """(a, b)(a', b') = (a + u^b a', b + b') at index 2a + b, by %."""
    idx = np.arange(2 * n, dtype=np.int64)
    a, b = idx // 2, idx % 2
    act = np.where(b == 1, u, 1)[:, None]
    return ((a[:, None] + act * a) % n) * 2 + (b[:, None] + b) % 2


def test_semidirect_matches_a_mod_reference():
    for n in [*range(2, 61), 120, 200, 1024]:
        for u in unit_involutions(n):
            G = semidirect_zn_z2(n, u)
            assert G.name == f"SD({n},{u})"
            assert G.table.dtype == np.int32 and not G.table.flags.writeable
            assert np.array_equal(G.table, _semidirect_mod_reference(n, u)), (n, u)


def test_semidirect_build_stays_under_two_and_a_half_tables():
    tracemalloc.start()
    try:
        G = semidirect_zn_z2(2048, 1023)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * G.table.nbytes


def test_split_extension_rejects_a_bad_alpha():
    z4 = make_cyclic(4)
    with pytest.raises(DomainError, match="involutive"):
        split_extension_by_involution(z4, [0, 2, 3, 1])  # a 3-cycle
    with pytest.raises(DomainError, match="involutive"):
        split_extension_by_involution(z4, [0, 1, 2])
    with pytest.raises(DomainError, match="automorphism"):
        split_extension_by_involution(z4, [0, 2, 1, 3])  # swaps 1 and 2
    assert split_extension_by_involution(z4, [0, 3, 2, 1]).order == 8


def test_is_normal_subgroup():
    z12 = make_cyclic(12)
    assert is_normal_subgroup(z12, [0, 4, 8])
    d6 = make_dihedral(6)
    rotation = [0, 1, 2]
    assert is_normal_subgroup(d6, rotation)
    reflection = [0, 3]
    assert not is_normal_subgroup(d6, reflection)
    with pytest.raises(DomainError):
        is_normal_subgroup(d6, [0, 1])  # not closed
    with pytest.raises(DomainError):
        is_normal_subgroup(d6, [1, 2])  # no identity


# --- slow-path oracle: all subgroups by closure, filtered to cyclic ---


def _closure(G, seed):
    members = {0} | set(seed)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (G.mult(x, y), G.mult(y, x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return frozenset(members)


def _all_subgroups(G):
    subgroups = {frozenset([0])}
    frontier = {_closure(G, [x]) for x in range(G.order)}
    subgroups |= frontier
    while True:
        new = set()
        for a in subgroups:
            for b in subgroups:
                joined = _closure(G, a | b)
                if joined not in subgroups:
                    new.add(joined)
        if not new:
            return subgroups
        subgroups |= new


def test_cyclic_subgroups_match_full_subgroup_enumeration():
    singles = [e.group for e in builtin_catalog() if e.group.order <= 24]
    for G in singles:
        cyclic = {frozenset(_closure(G, [x])) for x in range(G.order)}
        full = _all_subgroups(G)
        oracle = {s for s in full if any(_closure(G, [x]) == s for x in s)}
        assert cyclic == oracle
        got = {frozenset(s) for s in cyclic_subgroups(G).subgroups}
        assert got == oracle, G


def _mod_reference(build, m, rows):
    """Rows ``rows`` of the table of ``build(m)``, from the presentation:
    (x^i y^e)(x^j y^f) = x^(i + (-1)^e j) y^(e + f), with y^2 = x^(m/4) in
    the dicyclic group; index i + n*e for the n rotations x^i."""
    x = np.arange(m, dtype=np.int64)
    if build is make_cyclic:
        return (rows[:, None] + x) % m
    n = m // 2
    i, e = rows % n, rows // n
    j, f = x % n, x // n
    exponent = i[:, None] + (1 - 2 * e[:, None]) * j
    if build is make_dicyclic:
        exponent += (m // 4) * (e[:, None] & f)
    return exponent % n + n * (e[:, None] ^ f)


def test_circulant_view_matches_its_formula():
    for n in range(1, 40):
        a = np.arange(n)[:, None]
        b = np.arange(n)[None, :]
        for sign in (1, -1):
            for shift in range(n):
                view = _circulant(n, offset=7, shift=shift, sign=sign)
                assert not view.flags.writeable
                assert np.array_equal(view, (a + sign * b + shift) % n + 7)


@pytest.mark.parametrize("build", [make_cyclic, make_dihedral, make_dicyclic])
def test_circulant_builders_match_a_mod_reference(build):
    step = {make_cyclic: 1, make_dihedral: 2, make_dicyclic: 4}[build]
    for m in [*range(step, 301, step), *range(4092, 4097)]:
        if m % step:
            continue
        G = build(m)
        table = G.table
        assert table.dtype == np.int32 and table.shape == (m, m), m
        assert table.flags.c_contiguous and not table.flags.writeable, m
        for start in range(0, m, 512):
            rows = np.arange(start, min(start + 512, m))
            assert np.array_equal(table[rows], _mod_reference(build, m, rows)), m


def test_cyclic_table_build_has_no_square_temporary():
    n = 4093
    tracemalloc.start()
    try:
        G = make_cyclic(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * G.table.nbytes


def _orders_by_power_walk(G):
    item = G.table.item
    orders = []
    for x in range(G.order):
        k, y = 1, x
        while y != 0:
            k, y = k + 1, item(y, x)
        orders.append(k)
    return tuple(orders)


def test_element_orders_with_involutions_seeded_match_power_walks():
    groups = [entry.group for entry in builtin_catalog()]
    groups += [make_dicyclic(m) for m in range(4, 101, 4)]
    groups += [dihedral_product((3, 5, 7)), dihedral_product((3, 337))]
    for G in groups:
        assert element_orders(G) == _orders_by_power_walk(G), G
