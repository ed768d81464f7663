import hashlib
import itertools
import os
import threading
import time

import pytest

from grpinv import enumeration, fork, iso
from grpinv.catalog import builtin_catalog
from grpinv.enumeration import all_groups_upto, enumerate_groups, known_census
from grpinv.errors import DomainError, ResourceLimitError
from grpinv.groups import invariants, make_dicyclic, verify_axioms
from grpinv.iso import are_isomorphic, fingerprint, identify


def test_census_orders_1_to_12():
    for n in range(1, 13):
        result = enumerate_groups(n)
        assert len(result.groups) == known_census[n - 1], n


def test_order_4_classes():
    names = {identify(G) for G in enumerate_groups(4).groups}
    assert names == {"Z4", "Z2xZ2"}


def test_order_8_classes():
    names = {identify(G) for G in enumerate_groups(8).groups}
    assert names == {"Z8", "Z4xZ2", "Z2xZ2xZ2", "D8", "Q8"}


def test_order_12_classes():
    groups = enumerate_groups(12).groups
    names = {identify(G) for G in groups}
    assert names == {"Z12", "Z6xZ2", "D12", "A4", "Dic12"}
    dicyclic = [G for G in groups if identify(G) == "Dic12"]
    assert are_isomorphic(dicyclic[0], make_dicyclic(12)) is not None


def test_every_emitted_table_passes_axioms():
    for n in range(1, 13):
        for G in enumerate_groups(n).groups:
            check = verify_axioms(G.table)
            assert check.order == n


def test_groups_pairwise_non_isomorphic():
    for n in (8, 12):
        groups = enumerate_groups(n).groups
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                assert are_isomorphic(groups[a], groups[b]) is None


def test_classes_equal_the_catalog_up_to_15():
    # The catalog is built from closed-form constructors and shares no code
    # with the backtracker, so a search that loses or merges a class fails.
    for n in range(1, 16):
        entries = [e.group for e in builtin_catalog() if e.group.order == n]
        classes = enumerate_groups(n).groups
        assert len(entries) == known_census[n - 1] == len(classes), n
        for G in entries:
            matches = [H for H in classes if are_isomorphic(G, H) is not None]
            assert len(matches) == 1, (n, G.name)


def test_worker_count_does_not_change_output():
    for n in (6, 8, 12, 16, 18, 20):
        single = enumerate_groups(n, enum_cap=20, workers=1)
        multi = enumerate_groups(n, enum_cap=20, workers=3)
        assert single.tables_explored == multi.tables_explored
        assert len(single.groups) == len(multi.groups)
        for a, b in zip(single.groups, multi.groups):
            assert (a.table == b.table).all()


def test_deterministic_output_order():
    a = enumerate_groups(8)
    b = enumerate_groups(8)
    for x, y in zip(a.groups, b.groups):
        assert (x.table == y.table).all()
    orders_i_c = [(invariants(G).i, invariants(G).c) for G in a.groups]
    assert orders_i_c == sorted(orders_i_c, key=lambda t: orders_i_c.index(t))


def test_cap_and_domain_errors():
    with pytest.raises(ResourceLimitError):
        enumerate_groups(17)
    with pytest.raises(ResourceLimitError):
        enumerate_groups(9, enum_cap=8)
    with pytest.raises(DomainError):
        enumerate_groups(0)
    with pytest.raises(DomainError):
        all_groups_upto(0)


def test_enumeration_refuses_before_searching(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(enumeration, "_search_tables", refuse)
    for enumerate_ in (enumerate_groups, all_groups_upto):
        for n in (0, -2):
            with pytest.raises(DomainError):
                enumerate_(n)
        for n, cap in ((17, 16), (9, 8), (10**9, 16)):
            with pytest.raises(ResourceLimitError):
                enumerate_(n, enum_cap=cap)
    for workers in (0, -3, 1.5, "2", None):
        with pytest.raises(DomainError):
            enumerate_groups(12, workers=workers)


def test_search_starts_no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError(f"search started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert len(enumerate_groups(12, workers=4).groups) == known_census[11]


def test_workers_are_clamped_to_the_cpus_in_use(monkeypatch):
    def refuse():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse)
    assert len(enumerate_groups(12, workers=10**6).groups) == known_census[11]


def test_a_platform_without_fork_runs_the_census_here(monkeypatch):
    with monkeypatch.context() as patch:
        patch.delattr(os, "sched_getaffinity")
        assert fork.cpus_in_use() == (os.cpu_count() or 1)
    monkeypatch.delattr(os, "fork")
    assert fork.cpus_in_use() == 1
    assert len(enumerate_groups(12, workers=2).groups) == known_census[11]


def test_no_fork_while_another_thread_runs(monkeypatch):
    def refuse():
        raise AssertionError("a process was forked")

    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refuse)
        assert len(enumerate_groups(12, workers=2).groups) == known_census[11]
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()


def test_claimed_subtrees_partition_the_search():
    # Two claimants dealt the even and the odd frontier tickets yield the
    # serial search's tables between them, each exactly once, also at
    # orders whose tables complete above the frontier.
    for n in range(1, 13):
        serial = list(enumeration._search_tables(n))
        assert list(enumeration._search_tables(n, claim=itertools.count().__next__)) == serial
        even, odd = (
            list(enumeration._search_tables(n, claim=itertools.count(k, 2).__next__))
            for k in (0, 1)
        )
        assert sorted(even + odd) == sorted(serial), n
    assert even and odd  # at order 12 both claimants get tables


def test_more_processes_than_cpus_split_the_search_exactly(monkeypatch):
    # A lost or doubled ticket would drop or repeat a subtree's tables.
    serial = {n: enumerate_groups(n) for n in (8, 12)}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for n in (8, 12):
        split = enumerate_groups(n, workers=4)
        assert split.tables_explored == serial[n].tables_explored
        assert [G.table.tolist() for G in split.groups] == [
            G.table.tolist() for G in serial[n].groups
        ]
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Fork one child whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_no_child_outlives_a_return(two_cpus):
    full = enumerate_groups(16)
    assert enumerate_groups(16, workers=2).tables_explored == full.tables_explored
    _assert_no_child_left()


def test_a_fan_out_builds_each_chain_once(two_cpus, monkeypatch):
    # The parent's own classes reach the merge with their memo, so no table
    # has its generating sequence built twice in the parent; a child's
    # classes unpickle read-only, as every FiniteGroup does.
    for entry in builtin_catalog():
        fingerprint(entry.group)
    built = []
    forks = []
    real_generating_sequence = iso._generating_sequence
    real_fork = os.fork

    def counting(G):
        built.append(G.table.tobytes())
        return real_generating_sequence(G)

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(iso, "_generating_sequence", counting)
    monkeypatch.setattr(os, "fork", counting_fork)
    result = enumerate_groups(16, workers=2)
    _assert_no_child_left()
    assert len(forks) == 1
    assert len(result.groups) == known_census[15]
    assert built and len(built) == len(set(built))
    built.clear()
    assert [identify(G) for G in result.groups].count(None) == 4
    assert built == []
    assert not any(G.table.flags.writeable for G in result.groups)


class _WorkerFailure(Exception):
    pass


class _TwoPartFailure(Exception):
    """Pickles, but does not unpickle: its args hold one joined message."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def test_a_child_failure_reaches_the_caller(two_cpus, monkeypatch):
    parent = os.getpid()
    real_dedup = enumeration._dedup_classes

    def fail_in_child(exc):
        def dedup(*args, **kwargs):
            if os.getpid() != parent:
                raise exc
            return real_dedup(*args, **kwargs)

        return dedup

    monkeypatch.setattr(enumeration, "_dedup_classes", fail_in_child(_WorkerFailure("lost")))
    with pytest.raises(_WorkerFailure, match="^lost$"):
        enumerate_groups(12, workers=2)
    _assert_no_child_left()

    class Unpicklable(Exception):
        pass

    monkeypatch.setattr(enumeration, "_dedup_classes", fail_in_child(Unpicklable("gone")))
    with pytest.raises(RuntimeError, match="Unpicklable: gone"):
        enumerate_groups(12, workers=2)
    _assert_no_child_left()
    failure = _TwoPartFailure("half", "sent")
    monkeypatch.setattr(enumeration, "_dedup_classes", fail_in_child(failure))
    with pytest.raises(RuntimeError, match="_TwoPartFailure: half sent"):
        enumerate_groups(12, workers=2)
    _assert_no_child_left()


def test_a_parent_failure_kills_its_children(two_cpus, monkeypatch):
    parent = os.getpid()
    real_dedup = enumeration._dedup_classes

    def dedup(*args, **kwargs):
        if os.getpid() == parent:
            raise _WorkerFailure("parent")
        time.sleep(60)
        return real_dedup(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_dedup_classes", dedup)
    began = time.monotonic()
    with pytest.raises(_WorkerFailure, match="^parent$"):
        enumerate_groups(12, workers=2)
    assert time.monotonic() - began < 30
    _assert_no_child_left()

    def refuse():
        raise BlockingIOError("fork refused")

    # A refused fork leaves neither a child nor an open pipe.
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(BlockingIOError, match="fork refused"):
        enumerate_groups(12, workers=2)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child_left()


def test_cap_holds_after_cached_enumeration():
    all_groups_upto(12)
    with pytest.raises(ResourceLimitError):
        all_groups_upto(12, enum_cap=8)


def test_census_orders_13_to_15():
    for n in (13, 14, 15):
        assert len(enumerate_groups(n).groups) == known_census[n - 1]


@pytest.mark.slow
def test_census_order_16():
    result = enumerate_groups(16)
    assert len(result.groups) == 14
    named = {identify(G) for G in result.groups}
    named.discard(None)
    # ten of the fourteen classes carry catalog names; the semidihedral,
    # modular, Z4:Z4, and Q8xZ2 classes stay anonymous
    assert named == {
        "Z16",
        "Z8xZ2",
        "Z4xZ4",
        "Z4xZ2xZ2",
        "Z2xZ2xZ2xZ2",
        "D16",
        "Q16",
        "Z2xD8",
        "(Z2xZ2):Z4",
        "Q8:Z2",
    }
    assert sum(1 for G in result.groups if identify(G) is None) == 4


#: Complete tables the staircase search yields at orders 1..20, before dedup.
RAW_TABLES = (1, 1, 1, 3, 1, 9, 1, 27, 4, 11, 1, 113, 1, 13, 9, 707, 1, 198, 1, 219)
#: SHA-256 over the bytes of every table ``_search_tables(n)`` yields, in order.
SEARCH_DIGESTS = {
    12: "58589d09955315d31d6d7b3991c61d94be772bda685e89732bba867fc7bb7484",
    16: "d2d817c9716ebac7301eea2c3f3b8a7ee8e8c0cea9aa5cef824de458f693be0e",
    18: "68c82f87f4a8ed5843d3b9c4f6078ecc9f9e831b142e9f879012d678e0770ff6",
    20: "4af03242733e0ddbfbbe0acc0e10089d53e54dbce8d169347ff3765c07f89eee",
}


def _search_digest(tables) -> str:
    digest = hashlib.sha256()
    for flat in tables:
        digest.update(bytes(flat))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def orders_17_to_20():
    """``enumerate_groups`` at orders 17..20, with the digest of each search."""
    digests = {}
    real_search = enumeration._search_tables

    def digesting_search(n, **kwargs):
        tables = list(real_search(n, **kwargs))
        digests[n] = _search_digest(tables)
        yield from tables

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_search_tables", digesting_search)
        results = {n: enumerate_groups(n, enum_cap=20) for n in range(17, 21)}
    return results, digests


def test_census_orders_17_to_20(orders_17_to_20):
    results, _ = orders_17_to_20
    for n in range(17, 21):
        assert len(results[n].groups) == known_census[n - 1], n


def test_raw_search_is_pinned(orders_17_to_20):
    results, digests = orders_17_to_20
    explored = [r.tables_explored for r in all_groups_upto(16).values()]
    explored += [results[n].tables_explored for n in range(17, 21)]
    assert tuple(explored) == RAW_TABLES
    assert _search_digest(enumeration._search_tables(12)) == SEARCH_DIGESTS[12]
    assert _search_digest(enumeration._search_tables(16)) == SEARCH_DIGESTS[16]
    assert digests[18] == SEARCH_DIGESTS[18]
    assert digests[20] == SEARCH_DIGESTS[20]


def test_every_class_to_20_meets_the_order_bounds(orders_17_to_20):
    # c - i <= |G| - c, and |G| <= 4 (|G| - i) unless G is an elementary
    # abelian 2-group (i = |G|): the algebra behind "order <= 8r".
    results, _ = orders_17_to_20
    by_order = {**all_groups_upto(16), **results}
    for n in range(1, 21):
        for G in by_order[n].groups:
            inv = invariants(G)
            assert inv.c - inv.i <= n - inv.c, (n, inv)
            assert inv.i == n or n <= 4 * (n - inv.i), (n, inv)


@pytest.mark.slow
def test_census_order_24_on_two_processes():
    result = enumerate_groups(24, enum_cap=24, workers=2)
    assert len(result.groups) == 15
    assert result.tables_explored == 4608


@pytest.mark.slow
def test_raw_search_is_pinned_at_order_24():
    tables = list(enumeration._search_tables(24))
    assert len(tables) == 4608
    assert _search_digest(tables) == (
        "319a2a82d4598462f2236c3dc7231d7a57f2e2e6454891a4f76095f05c527e2b"
    )


def _table(n: int, cells: dict) -> list[list[int]]:
    T = [[-1] * n for _ in range(n)]
    for k in range(n):
        T[0][k] = T[k][0] = k
    for (a, b), v in cells.items():
        T[a][b] = v
    return T


def test_lagrange_cut_refuses_only_closed_blocks_of_non_dividing_size():
    # Labels 0, 1, 2 multiply like Z3 in the leading 3 x 3 block.
    z3 = {(1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 1}
    assert enumeration._lagrange_top(_table(6, z3), 6, 1, 3, 0) == 2
    assert enumeration._lagrange_top(_table(8, z3), 8, 1, 3, 0) == -1
    # The same block holding label 3 is not closed, so nothing is refused.
    leaky = {**z3, (1, 2): 3}
    assert enumeration._lagrange_top(_table(8, leaky), 8, 1, 3, 0) == 3
    # Z2 in labels 0, 1: closed at m = 1, and 2 divides 8 but not 9.
    assert enumeration._lagrange_top(_table(8, {(1, 1): 0}), 8, 1, 2, 0) == 1
    assert enumeration._lagrange_top(_table(9, {(1, 1): 0}), 9, 1, 2, 0) == -1
