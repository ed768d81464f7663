import functools
import hashlib
import random
import time
import typing
import zlib
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest

from grpinv import classify
from grpinv.catalog import builtin_catalog, catalog_group
from grpinv.classify import (
    check_lemma31a,
    check_lemma31b,
    check_lemma41,
    check_lemma42,
    check_unique_cyclic_normality,
    dihedral_prime_subsets,
    order12_case_f_report,
    r_value,
    theorem1_families,
    verify_c_order_deficit,
    verify_involution_threshold,
    verify_semidirect_dichotomy,
    verify_theorem1,
)
from grpinv.errors import DomainError, ResourceLimitError
from grpinv.groups import (
    GroupInvariants,
    invariants,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian_2,
)
from grpinv.iso import are_isomorphic


def test_r_value_examples():
    assert r_value(make_cyclic(4)) == 1
    assert r_value(make_dihedral(16)) == 2
    assert r_value(make_cyclic(12)) == 4


def test_report_type_hints_resolve():
    hints = typing.get_type_hints(classify.VerificationReport)
    assert hints["witnesses"] == tuple[tuple[str, GroupInvariants], ...]


def test_theorem1_families_examples():
    r0 = [name for name, _ in theorem1_families(0, 12)]
    assert r0 == ["Z1", "Z2", "Z2xZ2", "Z2xZ2xZ2"]
    r1 = {name for name, _ in theorem1_families(1, 12)}
    assert r1 == {"Z4", "D8", "Z3", "Z5", "Z7", "Z11", "D6", "D10"}
    r2 = {name for name, _ in theorem1_families(2, 12)}
    assert r2 == {"Z4xZ2", "Z8", "Z9", "Z6", "Z10", "D12"}
    with pytest.raises(DomainError):
        theorem1_families(3, 12)


def test_theorem1_families_sorted_and_reproducible():
    fam = theorem1_families(2, 16)
    keys = [(G.order, name) for name, G in fam]
    assert keys == sorted(keys)
    again = theorem1_families(2, 16)
    assert [name for name, _ in again] == [name for name, _ in fam]


def test_theorem1_r2_fixed_members_are_the_catalog_groups():
    fixed = ("Z4xZ2", "Z2xD8", "Z8", "D16")
    members = dict(theorem1_families(2, 16))
    assert all(members[name] is catalog_group(name) for name in fixed)
    assert not set(fixed) & {name for name, _ in theorem1_families(2, 7)}


def test_theorem1_families_build_no_member_above_max_order(monkeypatch):
    built = []
    for name in ("make_cyclic", "make_dihedral", "make_elementary_abelian_2"):

        def spy(*args, _real=getattr(classify, name), **kwargs):
            G = _real(*args, **kwargs)
            built.append(G.order)
            return G

        monkeypatch.setattr(classify, name, spy)
    for r in (0, 1, 2):
        for max_order in range(-1, 61):
            built.clear()
            family = theorem1_families(r, max_order)
            assert all(order <= max_order for order in built), (r, max_order)
            assert len(built) <= len(family), (r, max_order)
    assert built


#: Digest of theorem1_families' names, orders and tables over r in 0..2 and
#: max_order in -1..200.
THEOREM1_FAMILIES_DIGEST = (
    "a502995f6fb2a60547c79654c91a2a82c930a1b5d0bfbef46229d4546944443e"
)


def test_theorem1_families_match_their_recorded_digest(monkeypatch):
    # Each constructor is deterministic: memoized, the sweep builds every
    # table once and stays well under a second.
    for name in ("make_cyclic", "make_dihedral", "make_elementary_abelian_2"):
        monkeypatch.setattr(classify, name, functools.cache(getattr(classify, name)))
    digest = hashlib.sha256()
    for r in (0, 1, 2):
        for max_order in range(-1, 201):
            for name, G in theorem1_families(r, max_order):
                table = zlib.crc32(np.ascontiguousarray(G.table, dtype="<i2"))
                digest.update(f"{r} {max_order} {name} {G.order} {table}\n".encode())
    assert digest.hexdigest() == THEOREM1_FAMILIES_DIGEST


def test_dihedral_prime_subsets_refuse_the_int16_ceiling_without_sieving():
    subsets = dihedral_prime_subsets(2**15)
    assert subsets[:4] == [(), (3,), (3, 5), (3, 5, 7)]
    assert max(prod(2 * p for p in s) for s in subsets) <= 2**15
    assert subsets == dihedral_prime_subsets(32771)
    for cap, order in ((32772, 32772), (40000, 38640), (10**12, 480480)):
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match=f"group order {order} exceeds"):
            dihedral_prime_subsets(cap)
        assert time.monotonic() - start < 2.0


def test_verify_theorem1_at_12():
    reports = verify_theorem1(12)
    assert [r.claim for r in reports] == ["T1.1-r0", "T1.1-r1", "T1.1-r2"]
    assert all(r.ok for r in reports)
    assert [len(r.witnesses) for r in reports] == [4, 8, 6]


def test_verify_theorem1_trivial_bound():
    reports = verify_theorem1(1)
    assert all(r.ok for r in reports)
    assert [len(r.witnesses) for r in reports] == [1, 0, 0]


@pytest.mark.slow
def test_verify_theorem1_at_16():
    # the full classification across all 42 classes of orders 1..16
    reports = verify_theorem1(16)
    assert all(r.ok for r in reports)
    assert [len(r.witnesses) for r in reports] == [5, 10, 9]
    names2 = {name for name, _ in reports[2].witnesses}
    assert {"Z2xD8", "D16", "Z14"} <= names2
    threshold = verify_involution_threshold(16)
    assert threshold.ok
    assert len(threshold.witnesses) == 5


def test_involution_threshold():
    report = verify_involution_threshold(12)
    assert report.ok
    assert {name for name, _ in report.witnesses} == {
        "Z1",
        "Z2",
        "Z2xZ2",
        "Z2xZ2xZ2",
    }
    # the boundary case: i(D8) = 6 exactly equals (3/4) * 8, not above it
    d8 = invariants(make_dihedral(8))
    assert 4 * d8.i == 3 * d8.order


def test_c_order_deficit_r1():
    report = verify_c_order_deficit(1, 12)
    assert report.ok
    assert {name for name, _ in report.witnesses} == {"Z3", "Z4", "D6", "D8"}


def test_c_order_deficit_r2():
    report = verify_c_order_deficit(2, 12)
    assert report.ok
    names = {name for name, _ in report.witnesses}
    # Z2xD8 has order 16: checked member-wise, above the enumeration bound
    assert names == {"Z6", "Z4xZ2", "D12", "Z2xD8"}


def test_c_order_deficit_r4():
    report = verify_c_order_deficit(4, 12)
    assert report.ok
    names = {name for name, _ in report.witnesses}
    assert {"Z8", "Z3xZ3", "A4", "Z6xZ2"} <= names
    for name, inv in report.witnesses:
        assert inv.c == inv.order - 4


def test_c_order_deficit_domain():
    with pytest.raises(DomainError):
        verify_c_order_deficit(3, 12)


@pytest.mark.parametrize("n", [3, 5, 9, 25, 27, 49, 6, 10, 18])
def test_semidirect_dichotomy(n):
    report = verify_semidirect_dichotomy(n)
    assert report.ok
    assert len(report.witnesses) == 2


def test_semidirect_dichotomy_rejects_other_n():
    for bad in (12, 15, 16, 45):
        with pytest.raises(DomainError):
            verify_semidirect_dichotomy(bad)


def test_semidirect_dichotomy_checks_cap_before_unit_scan():
    start = time.monotonic()
    with pytest.raises(ResourceLimitError):
        verify_semidirect_dichotomy(1000000007)
    assert time.monotonic() - start < 2.0
    # Under a raised table cap, the int16 ceiling refuses 2 * 3^16 first.
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="exceeds 32768"):
        verify_semidirect_dichotomy(3**16, table_cap=10**8)
    assert time.monotonic() - start < 2.0
    with pytest.raises(ResourceLimitError, match="^group order 22 exceeds the table cap 20$"):
        check_lemma31a(11, table_cap=20)


def test_semidirect_dichotomy_passes_its_table_cap_on(monkeypatch):
    caps = []

    def spy(build):
        def built(*args, **kwargs):
            caps.append((build.__name__, kwargs.get("table_cap")))
            return build(*args, **kwargs)

        return built

    for name in ("make_cyclic", "make_dihedral", "direct_product", "semidirect_zn_z2"):
        monkeypatch.setattr(classify, name, spy(getattr(classify, name)))
    assert verify_semidirect_dichotomy(5, table_cap=10).ok
    assert len(caps) == 6
    assert all(cap == 10 for _, cap in caps), caps


def test_lemma31a_examples():
    assert check_lemma31a(9).ok
    assert check_lemma31a(12).ok
    assert check_lemma31a(1).ok
    assert r_value(make_cyclic(1)) == 0


def test_lemma31a_sweep_to_128():
    for n in range(1, 129):
        assert check_lemma31a(n).ok, n


def test_lemma31b():
    assert check_lemma31b(make_cyclic(4)).ok
    assert check_lemma31b(make_cyclic(2)).ok
    q8 = make_dicyclic(8)
    assert r_value(q8) == 3
    report = check_lemma31b(q8)
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.r == 6


def test_lemma31b_all_catalog():
    for entry in builtin_catalog():
        assert check_lemma31b(entry.group).ok, entry.name


def test_lemma41_examples():
    report = check_lemma41(make_dihedral(6), make_cyclic(5))
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.beta == Fraction(2, 5)
    assert check_lemma41(make_dihedral(10), make_cyclic(1)).ok
    # H = Z2^k branch of the hypothesis
    report = check_lemma41(make_dihedral(8), make_cyclic(2))
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.beta == Fraction(6, 7)
    with pytest.raises(DomainError):
        check_lemma41(make_cyclic(6), make_cyclic(3))


def test_lemma41_random_coprime_pairs():
    catalog = builtin_catalog()
    pairs = [
        (a.group, b.group)
        for a in catalog
        for b in catalog
        if gcd(a.group.order, b.group.order) == 1
    ]
    rng = random.Random(1234)
    for _ in range(100):
        G, H = rng.choice(pairs)
        assert check_lemma41(G, H).ok


def test_lemma42_examples():
    report = check_lemma42([3])
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.beta == Fraction(4, 5)
    report = check_lemma42([3, 5])
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.beta == Fraction(24, 35)
    assert inv.order == 60
    report = check_lemma42([])
    assert report.ok
    (_, inv), = report.witnesses
    assert inv.beta == 1
    with pytest.raises(DomainError):
        check_lemma42([3, 3])
    with pytest.raises(DomainError):
        check_lemma42([9])
    with pytest.raises(ResourceLimitError):
        check_lemma42([3, 5, 7, 11])


def test_unique_cyclic_subgroups_are_normal():
    report = check_unique_cyclic_normality(12)
    assert report.ok
    assert report.scope == "all orders <= 12 (57 unique cyclic subgroups checked)"
    report = check_unique_cyclic_normality(16)
    assert report.ok
    assert report.scope == "all orders <= 16 (92 unique cyclic subgroups checked)"


def test_unique_cyclic_counterexample_names_the_sorted_members(monkeypatch):
    from grpinv import classify

    seen = []

    def reject_order_4(G, members):
        seen.append(members)
        return len(members) != 4

    monkeypatch.setattr(classify, "is_normal_subgroup", reject_order_4)
    report = check_unique_cyclic_normality(8)
    assert not report.ok
    members = seen[-1]
    assert len(members) == 4 and list(members) == sorted(members)
    assert report.counterexample.description == (
        f"unique cyclic subgroup of order 4 {members} is not normal"
    )
    # The first order-4 class, Z4, has the cyclic subgroups 1, 2 and 4.
    assert [len(s) for s in seen] == [1, 1, 2, 1, 3, 1, 2, 4]
    assert len(report.counterexample.table) == 4


def test_odd_prime_power_or_twice_matches_its_definition():
    from grpinv.classify import _is_odd_prime_power_or_twice

    odd_primes = [p for p in range(3, 3001, 2) if all(p % q for q in range(3, p, 2))]
    powers = {p**k for p in odd_primes for k in range(1, 8) if p**k <= 3000}
    expected = powers | {2 * q for q in powers}
    for n in range(1, 3001):
        assert _is_odd_prime_power_or_twice(n) == (n in expected), n


def test_order12_case_f():
    report = order12_case_f_report()
    assert report.ok
    assert [name for name, _ in report.witnesses] == ["D12"]


def _census_without(monkeypatch, dropped):
    """Make the census miss the class isomorphic to ``dropped``."""
    from grpinv import classify

    census = classify._census

    def without(max_order, enum_cap):
        return [
            G
            for G in census(max_order, enum_cap)
            if G.order != dropped.order or are_isomorphic(G, dropped) is None
        ]

    monkeypatch.setattr(classify, "_census", without)


def test_a_missing_z2xz2_class_refutes_t11_r0_and_t22(monkeypatch):
    _census_without(monkeypatch, make_elementary_abelian_2(2))
    missing = "family member Z2xZ2 not realized by any enumerated group"
    for report in (verify_theorem1(12)[0], verify_involution_threshold(12)):
        assert not report.ok
        assert report.counterexample.description == missing
        assert len(report.counterexample.table) == 4


def test_a_missing_d12_class_refutes_case_f_and_t23_r2(monkeypatch):
    _census_without(monkeypatch, make_dihedral(12))
    missing = "family member D12 not realized by any enumerated group"
    for report in (order12_case_f_report(), verify_c_order_deficit(2, 12)):
        assert not report.ok
        assert report.counterexample.description == missing
        assert len(report.counterexample.table) == 12
    # D12's unique cyclic subgroups have orders 1, 3 and 6.
    report = check_unique_cyclic_normality(12)
    assert report.ok
    assert report.scope == "all orders <= 12 (54 unique cyclic subgroups checked)"


def test_a_family_without_z2xz2_refutes_t22(monkeypatch):
    from grpinv import classify

    families = classify.theorem1_families

    def without_z2xz2(r, max_order):
        return [(n, G) for n, G in families(r, max_order) if n != "Z2xZ2"]

    monkeypatch.setattr(classify, "theorem1_families", without_z2xz2)
    report = verify_involution_threshold(12)
    assert not report.ok
    assert report.counterexample.description == (
        "group of order 4 realizes the property but matches no family member"
    )
    assert len(report.counterexample.table) == 4


def test_counterexample_reports_carry_tables():
    # force a failure through a wrong expectation: Z4 x Z4 has c = 16 - 6
    from grpinv.classify import _match_family

    z16 = make_cyclic(16)
    report = _match_family(
        "T2.3-r1", "forced", [("Z8", make_cyclic(8))], [z16]
    )
    assert not report.ok
    assert report.counterexample is not None
    table = report.counterexample.table
    assert len(table) == 16 and len(table[0]) == 16
    rebuilt = [list(row) for row in table]
    assert rebuilt[1][1] == 2
