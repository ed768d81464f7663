"""Span arithmetic and the wrappers the traced run installs."""

import sys

import pytest

import grpinv
import grpinv.cli
from tracer import LAYERS, Tracer, layer_metrics, self_times


def span(name, start, end, parent=-1, info=None, op=0):
    return [name, float(start), float(end), parent, op, info]


def test_self_time_subtracts_children_on_a_nested_tree():
    spans = [
        span("cli.run", 0, 10),
        span("classify.check_lemma42", 1, 4, parent=0),
        span("groups.direct_product", 2, 3, parent=1),
        span("classify.check_lemma42", 5, 7, parent=0),
        span("groups.invariants", 5.5, 6, parent=3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("enumeration.enumerate_groups", 0, 10),
        span("iso.fingerprint", 1, 4, parent=0),
        span("iso.fingerprint", 3, 6, parent=0),
        span("iso.fingerprint", 9, 12, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_layer_metrics_split_search_from_dedup():
    spans = [
        span("enumeration.enumerate_groups", 0, 10, info={"n": 16, "tables": 100, "classes": 14}),
        span("iso.fingerprint", 1, 2, parent=0),
        span("iso.are_isomorphic", 3, 6, parent=0, info={"witness": True}),
        span("iso.fingerprint", 3, 4, parent=2),
        span("iso.are_isomorphic", 7, 7.5, parent=0, info={"witness": False}),
        span("groups.make_dihedral", 11, 12, info={"order": 1000}),
    ]
    m = layer_metrics(spans)
    assert m["enumeration.dedup_s"] == pytest.approx(1 + 3 + 0.5)
    assert m["enumeration.search_s"] == pytest.approx(10 - 4.5)
    assert m["enumeration.order16_s"] == pytest.approx(10)
    assert m["enumeration.order18_s"] == 0
    assert m["enumeration.class_ratio"] == pytest.approx(0.14)
    assert m["iso.fingerprint_s"] == pytest.approx(2)
    assert m["iso.fingerprint_calls"] == 2
    assert m["iso.witness_ratio"] == pytest.approx(0.5)
    assert m["groups.build_s"] == pytest.approx(1)
    assert m["groups.table_mb_built"] == pytest.approx(4.0)


def test_layer_metrics_split_greedy_outcomes():
    spans = [
        span("density.approximate_beta", 0, 1, info={"outcome": "converged", "scanned": 10, "selected": 4}),
        span("density.approximate_beta", 1, 5, info={"outcome": "unreachable", "scanned": 78497, "selected": 78497}),
        span("density.approximate_beta", 5, 5.5, info={"outcome": "unreachable", "scanned": 78497, "selected": 78497}),
    ]
    m = layer_metrics(spans)
    assert m["density.converged_s"] == pytest.approx(1)
    assert m["density.unreachable_s"] == pytest.approx(4.5)
    assert m["density.first_unreachable_s"] == pytest.approx(4)
    assert (m["density.converged"], m["density.unreachable"]) == (1, 2)
    assert m["density.primes_scanned"] == 10 + 2 * 78497


def test_wrap_passes_results_and_exceptions_through():
    tracer = Tracer()
    sentinel = object()
    failure = KeyError("boom")

    def returns(x, *, y):
        return sentinel if (x, y) == (1, 2) else None

    def raises():
        raise failure

    assert tracer.wrap("t.returns", returns)(1, y=2) is sentinel
    with pytest.raises(KeyError) as caught:
        tracer.wrap("t.raises", raises)()
    assert caught.value is failure
    assert [s[0] for s in tracer.spans] == ["t.returns", "t.raises"]
    assert tracer.spans[1][5] == {"raised": "KeyError"}
    assert all(s[2] >= s[1] for s in tracer.spans)


def package_bindings():
    """Every module attribute in grpinv, with dicts and lists copied so a
    change to their contents shows."""
    return {
        (name, attr): value.copy() if type(value) in (dict, list) else value
        for name, module in sys.modules.items()
        if name == "grpinv" or name.startswith("grpinv.")
        for attr, value in vars(module).items()
    }


def test_install_wraps_every_binding_site_and_uninstall_restores_them():
    before = package_bindings()
    G = grpinv.make_dihedral(12)
    expected = grpinv.are_isomorphic(G, grpinv.make_dihedral(12))
    tracer = Tracer()
    replaced = tracer.install()
    try:
        # The same function, reached through three modules' own names.
        assert grpinv.are_isomorphic is grpinv.iso.are_isomorphic
        assert grpinv.enumeration.are_isomorphic is grpinv.iso.are_isomorphic
        assert grpinv.classify.are_isomorphic is grpinv.iso.are_isomorphic
        assert grpinv.iso.are_isomorphic is not before[("grpinv.iso", "are_isomorphic")]
        # A constructor held in a dict, not bound to a name.
        assert grpinv.expr._BUILDERS["D"] is grpinv.groups.make_dihedral
        assert grpinv.expr._BUILDERS["D"] is not before[("grpinv.expr", "_BUILDERS")]["D"]
        assert grpinv.are_isomorphic(G, grpinv.make_dihedral(12)) == expected
        assert grpinv.invariants(G) == before[("grpinv.groups", "invariants")](G)
        with pytest.raises(grpinv.DomainError, match="even order"):
            grpinv.make_dihedral(3)
        assert grpinv.identify(G) == "D12"
        grpinv.evaluate(grpinv.parse_group_expr("Z(2)xD(6)"))
    finally:
        tracer.uninstall()
    assert replaced > len(LAYERS)
    assert package_bindings() == before
    assert grpinv.expr._BUILDERS["D"] is before[("grpinv.groups", "make_dihedral")]
    names = [s[0] for s in tracer.spans]
    assert "iso.identify" in names and "groups.make_dihedral" in names
    evaluate = names.index("expr.evaluate")
    built = [s[0] for s in tracer.spans if s[3] == evaluate]
    assert built == ["groups.make_cyclic", "groups.make_dihedral", "groups.direct_product"]
    identify = names.index("iso.identify")
    children = [s[0] for s in tracer.spans if s[3] == identify]
    assert "iso.fingerprint" in children
