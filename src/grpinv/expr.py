"""Tiny expression language naming groups on the command line.

Grammar::

    expr := term ("x" term)*
    term := "Z(" int ")" | "D(" int ")" | "Q(" int ")" | "SD(" int "," int ")"

Whitespace between tokens is insignificant; ``x`` is the left-associative
direct-product operator.  Z takes the cyclic order (>= 1), D the dihedral
order (even, >= 2), Q the dicyclic order (divisible by 4, >= 8), and
SD(n, u) the split extension of Z_n by Z_2 acting through a unit square
root u of 1 mod n.  Parsing validates these argument constraints, so a
parsed expression always evaluates to a group (caps permitting).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import int_from_digits, is_unit_involution, literal_excerpt
from .errors import ParseError
from .groups import (
    DEFAULT_TABLE_CAP,
    FiniteGroup,
    _check_cap,
    _freeze,
    direct_product,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    semidirect_zn_z2,
)

__all__ = ["Atom", "GroupExpr", "parse_group_expr", "evaluate"]


@dataclass(frozen=True)
class Atom:
    kind: str
    args: tuple[int, ...]

    @property
    def order(self) -> int:
        if self.kind == "SD":
            return 2 * self.args[0]
        return self.args[0]

    def text(self) -> str:
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class GroupExpr:
    factors: tuple[Atom, ...]

    @property
    def order(self) -> int:
        total = 1
        for atom in self.factors:
            total *= atom.order
        return total

    def text(self) -> str:
        return "x".join(atom.text() for atom in self.factors)


def _tokenize(source: str):
    tokens = []
    pos = 0
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "x":
            tokens.append(("x", None, pos))
            pos += 1
        elif ch in "(),":
            tokens.append((ch, None, pos))
            pos += 1
        elif ch in "0123456789":
            start = pos
            while pos < length and source[pos] in "0123456789":
                pos += 1
            tokens.append(("int", int_from_digits(source[start:pos], start), start))
        elif "A" <= ch <= "Z":
            start = pos
            while pos < length and "A" <= source[pos] <= "Z":
                pos += 1
            name = source[start:pos]
            if name not in _BUILDERS:
                raise ParseError(
                    f"unknown group family {literal_excerpt(name)} at position {start}",
                    start,
                )
            tokens.append(("name", name, start))
        else:
            raise ParseError(f"unexpected character {ch!r} at position {pos}", pos)
    tokens.append(("end", None, length))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.at = 0

    def peek(self):
        return self.tokens[self.at]

    def expect(self, kind: str):
        tok, value, pos = self.tokens[self.at]
        if tok != kind:
            raise ParseError(f"expected {kind!r} at position {pos}", pos)
        self.at += 1
        return value, pos

    def parse(self) -> GroupExpr:
        factors = [self.term()]
        while self.peek()[0] == "x":
            self.at += 1
            factors.append(self.term())
        tok, _, pos = self.peek()
        if tok != "end":
            raise ParseError(f"unexpected trailing input at position {pos}", pos)
        return GroupExpr(factors=tuple(factors))

    def term(self) -> Atom:
        name, name_pos = self.expect("name")
        self.expect("(")
        first, first_pos = self.expect("int")
        args = [first]
        if name == "SD":
            self.expect(",")
            second, _ = self.expect("int")
            args.append(second)
        self.expect(")")
        self._validate(name, args, name_pos, first_pos)
        return Atom(kind=name, args=tuple(args))

    def _validate(self, name, args, name_pos, arg_pos):
        if name == "Z":
            if args[0] < 1:
                raise ParseError(
                    f"Z needs order >= 1, got {args[0]} at position {arg_pos}", arg_pos
                )
        elif name == "D":
            if args[0] < 2 or args[0] % 2:
                raise ParseError(
                    f"D names the dihedral group by its (even) order, got {args[0]} "
                    f"at position {arg_pos}",
                    arg_pos,
                )
        elif name == "Q":
            if args[0] < 8 or args[0] % 4:
                raise ParseError(
                    f"Q needs an order divisible by 4 and >= 8, got {args[0]} "
                    f"at position {arg_pos}",
                    arg_pos,
                )
        elif name == "SD":
            n, u = args
            if n < 2:
                raise ParseError(
                    f"SD base must be >= 2, got {n} at position {arg_pos}", arg_pos
                )
            if not is_unit_involution(u, n):
                raise ParseError(
                    f"SD action {u} is not a unit square root of 1 mod {n} "
                    f"at position {name_pos}",
                    name_pos,
                )


def parse_group_expr(text: str) -> GroupExpr:
    """Parse and validate; the result round-trips through ``.text()``."""
    return _Parser(text).parse()


#: Each atom kind's constructor, called with the atom's arguments; the keys
#: are the families the tokenizer accepts.
_BUILDERS = {
    "Z": make_cyclic,
    "D": make_dihedral,
    "Q": make_dicyclic,
    "SD": semidirect_zn_z2,
}


def evaluate(expr: GroupExpr, *, table_cap: int = DEFAULT_TABLE_CAP) -> FiniteGroup:
    """Materialize the expression as a multiplication table.

    Every prefix product is checked against the cap before any factor is
    built, with the message the first over-cap build would give.
    """
    order = 1
    for atom in expr.factors:
        order *= atom.order
        _check_cap(order, table_cap)
    group = None
    for atom in expr.factors:
        factor = _BUILDERS[atom.kind](*atom.args, table_cap=table_cap)
        group = factor if group is None else direct_product(
            group, factor, table_cap=table_cap
        )
    return _freeze(group.table, name=expr.text())
