import tracemalloc

import pytest
from hypothesis import given, strategies as st

from grpinv.errors import ParseError, ResourceLimitError
from grpinv.expr import Atom, GroupExpr, evaluate, parse_group_expr
from grpinv.groups import make_dihedral
from grpinv.iso import are_isomorphic, identify


def test_parse_product():
    expr = parse_group_expr("Z(4)xD(8)")
    assert expr.factors == (Atom("Z", (4,)), Atom("D", (8,)))
    assert expr.order == 32
    assert evaluate(expr).order == 32


def test_parse_semidirect():
    expr = parse_group_expr("SD(9,8)")
    assert expr.order == 18
    G = evaluate(expr)
    assert identify(G) == "D18"
    assert are_isomorphic(G, make_dihedral(18)) is not None


def test_whitespace_insignificant():
    a = parse_group_expr(" Z( 12 ) x  Q(8)")
    b = parse_group_expr("Z(12)xQ(8)")
    assert a == b


def test_left_associative_evaluation_order():
    expr = parse_group_expr("Z(2)xZ(3)xZ(5)")
    assert expr.order == 30
    assert evaluate(expr).order == 30


@pytest.mark.parametrize(
    "bad",
    [
        "Z(0)",
        "D(7)",
        "D(0)",
        "Q(4)",
        "Q(6)",
        "SD(5,2)",
        "SD(1,1)",
        "Z(4)x",
        "xZ(4)",
        "Z(4",
        "Z 4)",
        "W(4)",
        "Z(4)D(8)",
        "Z(-3)",
        "",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_group_expr(bad)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc_info:
        parse_group_expr("Z(4)xW(8)")
    assert exc_info.value.position == 5
    with pytest.raises(ParseError) as exc_info:
        parse_group_expr("Z(0)")
    assert exc_info.value.position == 2
    with pytest.raises(ParseError) as exc_info:
        parse_group_expr("Z(2)xD(" + "4" * 5000 + ")")
    assert exc_info.value.position == 7


def test_table_cap_respected():
    expr = parse_group_expr("Z(100)xZ(100)")
    with pytest.raises(ResourceLimitError):
        evaluate(expr, table_cap=4096)


@pytest.mark.parametrize(
    "text, order",
    [("Z(4096)xZ(2)", 8192), ("D(4096)xD(4096)xZ(2)", 4096 * 4096)],
)
def test_table_cap_refuses_before_any_factor_is_built(text, order):
    expr = parse_group_expr(text)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc_info:
            evaluate(expr, table_cap=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The first over-cap prefix is named, as the product build would.
    assert str(exc_info.value) == f"group order {order} exceeds the table cap 4096"
    assert peak < 1 << 20


_atoms = st.one_of(
    st.integers(min_value=1, max_value=30).map(lambda n: Atom("Z", (n,))),
    st.integers(min_value=1, max_value=15).map(lambda n: Atom("D", (2 * n,))),
    st.integers(min_value=2, max_value=8).map(lambda k: Atom("Q", (4 * k,))),
    st.sampled_from([(5, 4), (9, 8), (12, 5), (8, 3), (15, 11)]).map(
        lambda nu: Atom("SD", nu)
    ),
)


@given(st.lists(_atoms, min_size=1, max_size=4))
def test_round_trip(atoms):
    expr = GroupExpr(factors=tuple(atoms))
    assert parse_group_expr(expr.text()) == expr


@given(st.text(max_size=30))
def test_parser_never_crashes(text):
    try:
        parse_group_expr(text)
    except ParseError:
        pass


@given(st.binary(max_size=30))
def test_parser_survives_bytes(data):
    try:
        parse_group_expr(data.decode("latin1"))
    except ParseError:
        pass
