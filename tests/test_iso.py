import gc
import hashlib
import itertools
import random
import time
import tracemalloc
import weakref

import numpy as np

from grpinv.catalog import builtin_catalog, catalog_group
from grpinv.enumeration import all_groups_upto, enumerate_groups
from grpinv import iso
from grpinv.expr import evaluate, parse_group_expr
from grpinv.groups import (
    _freeze,
    direct_product,
    element_orders,
    invariants,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian_2,
    semidirect_zn_z2,
)
from grpinv.iso import (
    _generating_sequence,
    are_isomorphic,
    fingerprint,
    identify,
    is_homomorphic_bijection,
)


PINNED_DIGEST = "3d14b3a40cd484b685bcc7cd64ff499128a6883ffe0acce03f2172233e144d53"


def test_fingerprint_examples():
    assert dict(fingerprint(make_cyclic(4)).order_histogram) == {1: 1, 2: 1, 4: 2}
    assert dict(fingerprint(make_elementary_abelian_2(2)).order_histogram) == {
        1: 1,
        2: 3,
    }
    d8 = fingerprint(make_dihedral(8))
    q8 = fingerprint(make_dicyclic(8))
    assert dict(d8.order_histogram) == {1: 1, 2: 5, 4: 2}
    assert dict(q8.order_histogram) == {1: 1, 2: 1, 4: 6}
    assert d8 != q8


def test_fingerprint_fields():
    fp = fingerprint(make_dihedral(12))
    assert fp.order == 12
    assert not fp.abelian
    assert fp.center_size == 2
    assert (fp.i, fp.c) == (8, 10)


def test_identity_witness():
    G = make_dihedral(8)
    w = are_isomorphic(G, G)
    assert w is not None
    assert is_homomorphic_bijection(G, G, w.bijection)


def test_homomorphism_certificate_over_several_blocks():
    n = 1024  # four row blocks of the streamed check
    G = make_cyclic(n)
    triple = [3 * x % n for x in range(n)]
    assert is_homomorphic_bijection(G, G, triple)
    swapped = triple[:]
    swapped[n - 2], swapped[n - 1] = swapped[n - 1], swapped[n - 2]
    assert not is_homomorphic_bijection(G, G, swapped)
    identity = list(range(n))
    assert not is_homomorphic_bijection(G, G, identity[:-1])
    assert not is_homomorphic_bijection(G, G, identity[:-1] + [0])
    assert not is_homomorphic_bijection(G, G, [1, 0] + identity[2:])
    assert not is_homomorphic_bijection(G, make_cyclic(n // 2), identity)
    # Distinct values outside 0..n-1 are rejected, not an IndexError.
    assert not is_homomorphic_bijection(G, G, identity[:-1] + [-1])
    assert not is_homomorphic_bijection(G, G, identity[:-1] + [n])


def test_homomorphism_certificate_takes_only_integer_entries():
    Z2, Z3 = make_cyclic(2), make_cyclic(3)
    assert is_homomorphic_bijection(Z3, Z3, [0, 2, 1])
    assert is_homomorphic_bijection(Z3, Z3, np.array([0, 2, 1], dtype=np.uint8))
    assert is_homomorphic_bijection(Z3, Z3, (0, np.int64(2), 1))
    # Floats are not truncated, strings not parsed, and an integer beyond
    # every index is rejected rather than overflowing.
    assert not is_homomorphic_bijection(Z3, Z3, [0, 1.9, 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, 1.0, 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, "1", 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, 2**70, 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, 2**64 - 1, 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, None, 2])
    assert not is_homomorphic_bijection(Z3, Z3, [0, [1], 2])
    assert not is_homomorphic_bijection(Z3, Z3, "012")
    # A bool is the integer 0 or 1.
    assert is_homomorphic_bijection(Z2, Z2, [False, True])
    assert is_homomorphic_bijection(Z3, Z3, [0, True, 2])
    # Homomorphisms that are not bijections.
    Z4 = make_cyclic(4)
    for endomorphism in ([0, 2, 0, 2], [0, 0, 0, 0]):
        assert _all_pairs_homomorphic(Z4, Z4, endomorphism)
        assert not is_homomorphic_bijection(Z4, Z4, endomorphism)


def _all_pairs_homomorphic(G, H, f):
    """f(a*b) == f(a)*f(b) for every pair, straight from both tables."""
    g, h = G.table.tolist(), H.table.tolist()
    return all(
        f[g[a][b]] == h[f[a]][f[b]] for a in range(G.order) for b in range(G.order)
    )


def _agrees_with_all_pairs(G, H, bijection):
    verdict = is_homomorphic_bijection(G, H, bijection)
    assert verdict == _all_pairs_homomorphic(G, H, bijection), (G, H, bijection)
    return verdict


def test_certificate_agrees_with_an_all_pairs_check():
    small = [entry.group for entry in builtin_catalog() if entry.group.order <= 6]
    accepted = 0
    for G, H in _same_order_pairs(small):
        for images in itertools.permutations(range(1, G.order)):
            accepted += _agrees_with_all_pairs(G, H, (0,) + images)
    # Aut of Z1, Z2, Z3, Z4, Z5, Z6, Z2xZ2 and D6.
    assert accepted == 1 + 1 + 2 + 2 + 4 + 2 + 6 + 6

    rng = random.Random(20261019)
    results = all_groups_upto(16)
    classes = [G for n in range(8, 17) for G in results[n].groups]
    accepted = 0
    for G, H in _same_order_pairs(classes):
        n = G.order
        maps = [[0] + rng.sample(range(1, n), n - 1) for _ in range(3)]
        witness = are_isomorphic(G, H)
        if witness is not None:
            near = list(witness.bijection)
            a, b = rng.sample(range(1, n), 2)
            near[a], near[b] = near[b], near[a]
            maps += [witness.bijection, near]
        for bijection in maps:
            accepted += _agrees_with_all_pairs(G, H, bijection)
    # At least the witness of each class onto itself.
    assert accepted >= len(classes)


def test_certify_needs_a_generating_set():
    # The identity map is a homomorphism, but {1} generates only a Z2 of
    # Z2xZ2, so the helper cannot prove it from that set.
    G = evaluate(parse_group_expr("Z(2)xZ(2)"))
    identity = list(range(G.order))
    assert iso._certify(G, G, identity, _generating_sequence(G)[0])
    assert not iso._certify(G, G, identity, [1])


def test_semidirect_vs_dihedral_witness():
    w = are_isomorphic(semidirect_zn_z2(9, 8), make_dihedral(18))
    assert w is not None


def test_non_isomorphic_same_order():
    assert are_isomorphic(make_cyclic(4), make_elementary_abelian_2(2)) is None
    assert are_isomorphic(make_dihedral(8), make_dicyclic(8)) is None


def test_pool_reflexive_symmetric_and_witnesses_verify():
    pool = [e.group for e in builtin_catalog() if e.group.order <= 12]
    assert len(pool) >= 20
    for G in pool:
        w = are_isomorphic(G, G)
        assert w is not None and is_homomorphic_bijection(G, G, w.bijection)
    for G, H in itertools.combinations(pool, 2):
        gh = are_isomorphic(G, H)
        hg = are_isomorphic(H, G)
        assert (gh is None) == (hg is None)
        if gh is not None:
            assert is_homomorphic_bijection(G, H, gh.bijection)
            assert is_homomorphic_bijection(H, G, hg.bijection)


def _brute_force_isomorphic(G, H):
    if G.order != H.order:
        return False
    n = G.order
    for perm in itertools.permutations(range(1, n)):
        m = (0,) + perm
        if all(
            m[G.mult(a, b)] == H.mult(m[a], m[b])
            for a in range(n)
            for b in range(n)
        ):
            return True
    return False


def test_agreement_with_brute_force_on_small_orders():
    small = [
        make_cyclic(4),
        make_elementary_abelian_2(2),
        make_cyclic(6),
        make_dihedral(6),
        make_cyclic(8),
        make_dihedral(8),
        make_dicyclic(8),
        direct_product(make_cyclic(4), make_cyclic(2)),
        make_cyclic(9),
        direct_product(make_cyclic(3), make_cyclic(3)),
        make_cyclic(10),
        make_dihedral(10),
        semidirect_zn_z2(5, 4),
        direct_product(make_cyclic(5), make_cyclic(2)),
    ]
    rng = random.Random(7)
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(25)]
    for G, H in pairs:
        fast = are_isomorphic(G, H) is not None
        assert fast == _brute_force_isomorphic(G, H), (G, H)


def test_identify_examples_and_injectivity():
    assert identify(make_dihedral(6)) == "D6"
    assert identify(direct_product(make_cyclic(3), make_cyclic(4))) == "Z12"
    assert identify(semidirect_zn_z2(9, 8)) == "D18"
    assert identify(semidirect_zn_z2(12, 5)) is None
    catalog = builtin_catalog()
    for entry in catalog:
        assert identify(entry.group) == entry.name
    # aliases resolve to the same table
    assert catalog_group("S3") is catalog_group("D6")


def test_deterministic_witness():
    a = are_isomorphic(make_dihedral(12), semidirect_zn_z2(6, 5))
    b = are_isomorphic(make_dihedral(12), semidirect_zn_z2(6, 5))
    assert a == b


def _classes_and_catalog():
    """Every class of order <= 16 (by order, then class index), then every
    catalog group in catalog order."""
    classes = [G for result in all_groups_upto(16).values() for G in result.groups]
    return classes + [entry.group for entry in builtin_catalog()]


def _same_order_pairs(groups):
    return [(G, H) for G, H in itertools.product(groups, repeat=2) if G.order == H.order]


def test_generating_chain_covers_g_times_generators_once():
    for G in _classes_and_catalog():
        generators, chain = _generating_sequence(G)
        entries = [entry for segment in chain for entry in segment]
        for element, a, b, _new in entries:
            assert element == G.mult(a, b), (G, element, a, b)
        pairs = sorted((a, b) for _element, a, b, _new in entries)
        assert pairs == sorted(itertools.product(range(G.order), generators)), G
        derived = [element for element, _a, _b, new in entries if new]
        assert len(derived) == G.order - 1 - len(generators), G
        assert sorted(derived + generators + [0]) == list(range(G.order)), G


def test_fingerprints_witnesses_and_names_are_pinned():
    # Recorded with the earlier two-sided closure and full-table center:
    # a change in any witness, fingerprint field or name changes it.
    groups = _classes_and_catalog()
    digest = hashlib.sha256()
    for G in groups:
        digest.update(repr((fingerprint(G), identify(G))).encode())
    for G, H in _same_order_pairs(groups):
        witness = are_isomorphic(G, H)
        digest.update(repr(None if witness is None else witness.bijection).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def _relabelled(G, rng):
    """G under a random relabelling of its non-identity elements."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    perm = np.array(perm, dtype=G.table.dtype)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return _freeze(table)


def _order_only_witness(G, H):
    """The lexicographically first images of G's greedy generators that
    extend to an isomorphism onto H, trying every image of the same
    element order; the bijection, or None."""
    n = G.order
    generators = _generating_sequence(G)[0]
    orders_g, orders_h = element_orders(G), element_orders(H)

    def extend(images):
        # the map on the span of the first len(images) generators, or None
        gens = generators[: len(images)]
        mapping = {0: 0}
        frontier = [0]
        for w in frontier:
            for g, h in zip(gens, images):
                z, value = G.mult(w, g), H.mult(mapping[w], h)
                if z not in mapping:
                    mapping[z] = value
                    frontier.append(z)
                elif mapping[z] != value:
                    return None
        return mapping if len(set(mapping.values())) == len(mapping) else None

    def search(images):
        mapping = extend(images)
        if mapping is None:
            return None
        if len(images) == len(generators):
            return tuple(mapping[x] for x in range(n))
        g = generators[len(images)]
        for h in range(n):
            if orders_h[h] == orders_g[g]:
                found = search(images + [h])
                if found is not None:
                    return found
        return None

    return search([])


def test_signature_candidates_keep_the_first_witness():
    # Images are restricted to the same order and square-root count; an
    # isomorphism preserves both, so the witness is that of the search
    # over every image of the same order.
    rng = random.Random(20251018)
    results = all_groups_upto(16)
    for n in (8, 12, 16):
        for G in results[n].groups:
            H = _relabelled(G, rng)
            for A, B in ((G, H), (H, G), (G, G)):
                witness = are_isomorphic(A, B)
                assert witness is not None, (n, G)
                assert witness.bijection == _order_only_witness(A, B), (n, G)


def test_chain_checks_leave_only_isomorphisms_to_certify(monkeypatch):
    # The chain checks f(z*g) = f(z)*f(g) for every z and generator g, so
    # every assignment that reaches the certificate is a homomorphism.
    verdicts = []
    certify = iso._certify

    def recording(G, H, bijection, generators):
        verdicts.append(certify(G, H, bijection, generators))
        return verdicts[-1]

    monkeypatch.setattr(iso, "_certify", recording)
    for G, H in _same_order_pairs(_classes_and_catalog()):
        are_isomorphic(G, H)
    assert verdicts and all(verdicts)


def test_identify_builds_the_chain_of_g_once(monkeypatch):
    built = []

    def counting(G):
        built.append(G)
        return _generating_sequence(G)

    monkeypatch.setattr(iso, "_generating_sequence", counting)
    # Z4 x Z4 shares its histogram with several catalog groups of order 16,
    # each compared with G through G's one chain.
    G = direct_product(make_cyclic(4), make_cyclic(4))
    assert identify(G) == identify(G) == "Z4xZ4"
    assert sum(1 for H in built if H is G) == 1
    # Above the catalog's orders a family is named from its relations alone.
    G = make_elementary_abelian_2(12)
    assert identify(G) == G.name
    assert not any(H is G for H in built)


def test_search_frees_both_groups_without_the_cycle_collector():
    # Neither a search that found a witness nor the per-group memo may keep
    # G and H alive, in a reference cycle or otherwise: at order ~4092 each
    # table is 67 MB.
    uses = [
        lambda G, H: are_isomorphic(G, H) is not None and identify(G) == "D12",
        lambda G, H: invariants(G) == invariants(H),
        lambda G, H: fingerprint(G) == fingerprint(H),
        lambda G, H: is_homomorphic_bijection(G, H, range(G.order)) is False,
    ]
    gc.disable()
    try:
        for use in uses:
            G, H = make_dihedral(12), semidirect_zn_z2(6, 5)
            refs = [weakref.ref(G), weakref.ref(H)]
            assert use(G, H)
            del G, H
            assert [ref() for ref in refs] == [None, None], use
    finally:
        gc.enable()


def test_dedup_and_identify_build_each_chain_once(monkeypatch):
    # iso keeps a group's generating sequence for as long as the group
    # lives: the census builds one per distinct raw table, and identify of
    # its classes builds none.  The catalog lives for the whole process, so
    # its own chains are built before counting.
    for entry in builtin_catalog():
        fingerprint(entry.group)
    built = []

    def counting(G):
        built.append(G.table.tobytes())
        return _generating_sequence(G)

    monkeypatch.setattr(iso, "_generating_sequence", counting)
    result = enumerate_groups(16)
    assert len(built) == len(set(built)) == result.tables_explored == 707
    built.clear()
    names = [identify(G) for G in result.groups]
    assert built == []
    assert len(names) == 14 and names.count(None) == 4


def _traced_identify(text):
    G = evaluate(parse_group_expr(text))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        name = identify(G)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return name, elapsed, peak


def test_identify_positive_at_order_4092_is_fast_and_lean(monkeypatch):
    # The relations are checked in G's own table: no candidate table, no
    # chain and no search, so the peak holds a few O(n) arrays only.
    _refuse_builds(monkeypatch, "grpinv.groups", *FAMILY_BUILDERS)
    _refuse_builds(monkeypatch, "grpinv.iso", "_generating_sequence", "_search")
    name, elapsed, peak = _traced_identify("Z(2)xD(2046)")
    assert name == "D4092"
    assert elapsed < 5.0
    assert peak < 4 * 2**20


def test_identify_negative_at_order_4088_is_fast_and_lean():
    name, elapsed, peak = _traced_identify("Z(2)xZ(2)xD(1022)")
    assert name is None
    assert elapsed < 5.0
    assert peak < 200 * 2**20


def _family_members(n):
    """The built member of each family of order n, in ``iso._families`` order."""
    members = [make_cyclic(n)]
    if n % 2 == 0:
        members.append(make_dihedral(n))
    if n % 4 == 0:
        members.append(make_dicyclic(n))
    if n > 1 and n & (n - 1) == 0:
        members.append(make_elementary_abelian_2(n.bit_length() - 1))
    return members


def test_family_histograms_are_those_of_the_built_groups():
    for n in itertools.chain(range(1, 301), range(4088, 4097)):
        families = iso._families(n)
        members = _family_members(n)
        assert len(families) == len(members)
        for (name, histogram, relations_hold), G in zip(families, members):
            assert (name, histogram) == (G.name, invariants(G).order_histogram), G
            assert relations_hold(G), G

    def named(n):
        return [(name, dict(h)) for name, h, _ in iso._families(n)]

    # Z1, D2 = Z2, D4 = Z2^2 and Dic4 = Z4.
    assert named(1) == [("Z1", {1: 1})]
    assert named(2) == [("Z2", {1: 1, 2: 1}), ("D2", {1: 1, 2: 1}), ("Z2", {1: 1, 2: 1})]
    assert named(4) == [
        ("Z4", {1: 1, 2: 1, 4: 2}),
        ("D4", {1: 1, 2: 3}),
        ("Dic4", {1: 1, 2: 1, 4: 2}),
        ("Z2xZ2", {1: 1, 2: 3}),
    ]


def _non_members(n):
    """Groups of order n, 17 <= n <= 160, in none of the families:
    Z2 x Z(n/2) with n/2 even, and Z(n/2) x| Z2 with u^2 = 1, u != +-1."""
    if n % 2:
        return []
    m = n // 2
    groups = [direct_product(make_cyclic(2), make_cyclic(m))] if m % 2 == 0 else []
    groups += [semidirect_zn_z2(m, u) for u in range(2, m - 1) if u * u % m == 1]
    return groups


def test_family_relations_name_exactly_the_family():
    # Each family's relations accept its members under any labelling and
    # reject every other group of the same order.  They are called directly
    # too, so that identify's histogram gate does not answer first.
    rng = random.Random(20261021)
    for n in itertools.chain(range(17, 161), range(4088, 4097)):
        families = iso._families(n)
        members = _family_members(n)
        others = _non_members(n) if n <= 160 else []
        if n == 4092:
            others.append(evaluate(parse_group_expr("D(6)xD(682)")))
        for i, G in enumerate(members):
            for H in (G, _relabelled(G, rng)):
                verdicts = [relations_hold(H) for _, _, relations_hold in families]
                assert verdicts == [j == i for j in range(len(families))], (n, G)
                assert identify(H) == G.name == families[i][0], (n, G)
        for G in others:
            for H in (G, _relabelled(G, rng)):
                verdicts = [relations_hold(H) for _, _, relations_hold in families]
                assert not any(verdicts), G
                assert identify(H) is None, G


def _refuse(*args, **kwargs):
    raise AssertionError("called where identify should need no table, chain or search")


def _refuse_builds(monkeypatch, module, *names):
    for name in names:
        monkeypatch.setattr(f"{module}.{name}", _refuse)


FAMILY_BUILDERS = (
    "make_cyclic",
    "make_dihedral",
    "make_dicyclic",
    "make_elementary_abelian_2",
)


def test_histogram_rejections_build_no_chain_or_table(monkeypatch):
    groups = [evaluate(parse_group_expr(t)) for t in ("D(6)xD(682)", "Z(2)xZ(2)xD(1022)")]
    # Semidihedral of order 16: no catalog entry has its histogram.
    groups.append(semidirect_zn_z2(8, 3))
    C12, D12 = make_cyclic(12), make_dihedral(12)
    _refuse_builds(monkeypatch, "grpinv.groups", *FAMILY_BUILDERS)
    _refuse_builds(monkeypatch, "grpinv.iso", "_generating_sequence")
    for G in groups:
        assert identify(G) is None
    assert are_isomorphic(C12, D12) is None


def test_identify_checks_only_the_family_with_g_histogram(monkeypatch):
    G = evaluate(parse_group_expr("Z(2)xD(2046)"))
    checked = []

    def spy(relations_hold):
        def recording(H, **kwargs):
            checked.append((relations_hold.__name__, kwargs))
            return relations_hold(H, **kwargs)

        return recording

    _refuse_builds(monkeypatch, "grpinv.groups", *FAMILY_BUILDERS)
    for name in ("_is_cyclic", "_is_inverted_cyclic", "is_elementary_abelian_2"):
        monkeypatch.setattr(iso, name, spy(getattr(iso, name)))
    assert identify(G) == "D4092"
    assert checked == [("_is_inverted_cyclic", {"square": 0})]


def test_homomorphism_check_streams_and_rejects_a_swap():
    G = make_dihedral(4092)
    witness = list(range(G.order))
    witness[1], witness[2] = witness[2], witness[1]
    tracemalloc.start()
    try:
        assert is_homomorphic_bijection(G, G, tuple(range(G.order)))
        assert not is_homomorphic_bijection(G, G, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
