"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 contains a
sub-check that is analytically unreachable (see the assertion message);
it is implemented as stated rather than weakened, so it reports FAIL.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import grpinv.enumeration
from grpinv.arith import iter_odd_primes, unit_involutions
from grpinv.catalog import builtin_catalog
from grpinv.classify import (
    check_lemma31a,
    check_lemma31b,
    check_lemma41,
    check_lemma42,
    dihedral_prime_subsets,
    order12_case_f_report,
    r_value,
    verify_c_order_deficit,
    verify_involution_threshold,
    verify_semidirect_dichotomy,
    verify_theorem1,
)
from grpinv.density import approximate_beta
from grpinv.enumeration import enumerate_groups, known_census
from grpinv.errors import ConvergenceError
from grpinv.groups import invariants, make_dihedral
from grpinv.iso import are_isomorphic


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({desc}): {status}{suffix}")


def _cold_enumeration_cache():
    grpinv.enumeration._UPTO_CACHE.clear()


def test_criterion_1_dihedral_beta_formula():
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        counted = invariants(make_dihedral(2 * p)).beta
        assert counted == Fraction(p + 1, p + 2), p
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    _line(1, "beta(D_2p) = (p+1)/(p+2) by direct count", ok, f"{elapsed:.3f}s")
    assert ok, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_classification_at_desk_scale():
    _cold_enumeration_cache()
    start = time.monotonic()
    reports = verify_theorem1(12)
    elapsed = time.monotonic() - start
    sizes = [len(r.witnesses) for r in reports]
    ok = all(r.ok for r in reports) and sizes == [4, 8, 6] and elapsed < 60.0
    _line(2, "r = 0,1,2 classes exact at orders <= 12", ok, f"{elapsed:.2f}s, sizes {sizes}")
    assert all(r.ok for r in reports), [r.counterexample for r in reports if not r.ok]
    assert sizes == [4, 8, 6]
    assert elapsed < 60.0


def test_criterion_3_order_12_exclusion():
    result = enumerate_groups(12)
    classes = len(result.groups)
    r2 = [G for G in result.groups if r_value(G) == 2]
    report = order12_case_f_report()
    ok = (
        classes == 5
        and len(r2) == 1
        and are_isomorphic(r2[0], make_dihedral(12)) is not None
        and report.ok
    )
    _line(3, "order 12: 5 classes, only D12 at r = 2, no double-order-3 case", ok)
    assert classes == 5
    assert len(r2) == 1
    assert are_isomorphic(r2[0], make_dihedral(12)) is not None
    assert report.ok, report.counterexample


def test_criterion_4_c_order_deficit():
    start = time.monotonic()
    r1 = verify_c_order_deficit(1, 12)
    r2 = verify_c_order_deficit(2, 12)
    r4 = verify_c_order_deficit(4, 12)
    elapsed = time.monotonic() - start
    names1 = {name for name, _ in r1.witnesses}
    names2 = {name for name, inv in r2.witnesses if inv.order <= 12}
    ok = (
        r1.ok
        and r2.ok
        and r4.ok
        and names1 == {"Z3", "Z4", "D6", "D8"}
        and names2 == {"Z6", "Z4xZ2", "D12"}
        and elapsed < 60.0
    )
    _line(4, "c = |G| - r lists for r = 1, 2, 4", ok, f"{elapsed:.2f}s")
    assert r1.ok and names1 == {"Z3", "Z4", "D6", "D8"}
    assert r2.ok and names2 == {"Z6", "Z4xZ2", "D12"}
    assert r4.ok
    member16 = [inv for name, inv in r4.witnesses if inv.order <= 16]
    assert len(member16) >= 8  # every listed member of order <= 16 included
    for inv in member16:
        assert inv.c == inv.order - 4
    assert elapsed < 60.0


def test_criterion_5_involution_threshold():
    report = verify_involution_threshold(12)
    names = {name for name, _ in report.witnesses}
    ok = report.ok and names == {"Z1", "Z2", "Z2xZ2", "Z2xZ2xZ2"}
    _line(5, "4 i(G) > 3 |G| forces elementary abelian at orders <= 12", ok)
    assert report.ok, report.counterexample
    assert names == {"Z1", "Z2", "Z2xZ2", "Z2xZ2xZ2"}


def test_criterion_6_semidirect_dichotomy():
    start = time.monotonic()
    for n in (3, 5, 9, 25, 27, 49, 6, 10, 18):
        assert len(unit_involutions(n)) == 2, n
        report = verify_semidirect_dichotomy(n)
        assert report.ok, (n, report.counterexample)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _line(6, "Z_n x| Z_2 dichotomy for nine moduli", ok, f"{elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_7_lemma_sweeps():
    start = time.monotonic()
    for n in range(1, 129):
        assert check_lemma31a(n).ok, n
    catalog = builtin_catalog()
    for entry in catalog:
        if 2 * entry.group.order <= 4096:
            assert check_lemma31b(entry.group).ok, entry.name
    coprime_pairs = [
        (a.group, b.group)
        for a in catalog
        for b in catalog
        if math.gcd(a.group.order, b.group.order) == 1
    ]
    rng = random.Random(424242)
    for _ in range(100):
        G, H = rng.choice(coprime_pairs)
        assert check_lemma41(G, H).ok, (G.name, H.name)
    subsets = dihedral_prime_subsets(4096)
    for primes in subsets:
        assert check_lemma42(primes).ok, primes
    elapsed = time.monotonic() - start
    _line(
        7,
        "L3.1a to n = 128, L3.1b catalog, L4.1 x100, L4.2 all subsets",
        True,
        f"{len(subsets)} dihedral subsets, {elapsed:.1f}s",
    )


def test_criterion_8_density():
    start = time.monotonic()
    eps = Fraction(1, 10**4)

    sel = approximate_beta(Fraction(1, 2), Fraction(1, 1000))
    worked = (
        sel.primes == (3, 5, 7, 11, 13, 19)
        and sel.predicted_beta == Fraction(2048, 4095)
        and abs(sel.predicted_beta - Fraction(1, 2)) == Fraction(1, 8190)
    )
    assert worked

    rng = random.Random(20250818)
    targets = [Fraction(rng.randint(500, 9900), 10**4) for _ in range(200)]
    failures = []
    for t in targets:
        try:
            result = approximate_beta(t, eps, prime_cap=10**6)
        except ConvergenceError as exc:
            failures.append((t, float(exc.best.predicted_beta)))
            continue
        # every converged result lands inside [t, t + eps], exactly
        assert t <= result.predicted_beta <= t + eps, t
    elapsed = time.monotonic() - start
    converged = 200 - len(failures)
    ok = not failures and elapsed < 60.0
    _line(
        8,
        "density: worked example, 200 random targets, exact bounds",
        ok,
        f"{converged}/200 converged, {elapsed:.1f}s",
    )
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    floor = math.exp(-sum(math.log1p(1.0 / (p + 1)) for p in iter_odd_primes(10**6)))
    assert not failures, (
        f"{len(failures)} of 200 targets cannot converge under prime_cap 10^6: "
        f"the full odd-prime product only reaches beta = {floor:.6f}, so every "
        f"target below it (drawn from [1/20, 99/100]) is unreachable; pushing "
        f"beta down to 1/20 needs primes out to ~5e13.  Failing targets: "
        + ", ".join(str(t) for t, _ in failures[:12])
        + ("..." if len(failures) > 12 else "")
    )


def test_criterion_9_census():
    _cold_enumeration_cache()
    counts = [len(enumerate_groups(n).groups) for n in range(1, 13)]
    ok = counts == list(known_census[:12])
    _line(9, "census 1..12 = 1,1,1,2,1,2,1,5,2,2,1,5", ok, str(counts))
    assert counts == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5]


@pytest.mark.slow
def test_criterion_9_census_order_16():
    result = enumerate_groups(16)
    ok = len(result.groups) == 14
    _line(9, "census at order 16 (opt-in)", ok, f"{len(result.groups)} classes")
    assert len(result.groups) == 14
