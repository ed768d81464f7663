"""Command-line interface.

Subcommands::

    invariants <expr>                      counted order, i, c, r, beta
    identify <expr>                        catalog name of the group, if any
    enumerate <n>                          all classes of order n
    verify theorem1  --max-order N         the r = 0,1,2 classification
    verify theorem22 --max-order N         the 3/4-involution threshold
    verify theorem23 --r {1,2,4} --max-order N
    verify theorem24 --n INT               the Z_n x| Z_2 dichotomy
    verify lemmas    --max-order N         L2.1, L3.1a/b, L4.1, L4.2 sweeps
    verify all       --max-order N         every claim above, and case f
    approx-beta <t> --eps E [--materialize]

The CLI only parses and prints.  ``classify`` decides what a claim checks
(the lemma sweeps are ``classify.verify_lemmas``, run through
``fork.run_in_order``); ``fork.fan_out`` decides how many processes run.

Output is a human-readable table by default; ``--format machine`` emits
one flat JSON record per line.  Exit codes: 0 success, 1 a verification
found a counterexample, 2 usage/parse errors, 3 resource or convergence
limits.  A ``--table-cap``, ``--enum-cap`` or ``--max-order`` below 1 is a
usage error in every command, refused before any work.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classify, density
from .arith import DEFAULT_PRIME_CAP, literal_excerpt, rational_from_decimal
from .catalog import builtin_catalog
from .enumeration import DEFAULT_ENUM_CAP, enumerate_groups
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidGroupError,
    ParseError,
    ResourceLimitError,
)
from .expr import evaluate, parse_group_expr
from .fork import cpus_in_use
from .groups import DEFAULT_TABLE_CAP, invariants
from .iso import identify

__all__ = ["build_parser", "run", "main"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: The n that ``verify all`` checks T2.4 at: odd prime powers, then twice one.
_T24_ALL = (3, 5, 9, 25, 27, 49, 6, 10, 18)


def _global_flags(defaults: bool) -> argparse.ArgumentParser:
    # Attached to the main parser with real defaults and to every
    # subparser with SUPPRESS, so the flags work in either position.
    parent = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS

    def default(value):
        return value if defaults else suppress

    parent.add_argument("--table-cap", type=int, default=default(DEFAULT_TABLE_CAP))
    parent.add_argument("--enum-cap", type=int, default=default(DEFAULT_ENUM_CAP))
    parent.add_argument("--prime-cap", type=int, default=default(DEFAULT_PRIME_CAP))
    parent.add_argument(
        "--format", choices=("human", "machine"), default=default("human")
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    head = _global_flags(defaults=True)
    tail = _global_flags(defaults=False)
    parser = argparse.ArgumentParser(
        prog="grpinv",
        description="Exact involution/cyclic-subgroup invariants of finite groups.",
        parents=[head],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants", help="invariants of a group expression", parents=[tail]
    )
    p.add_argument("expr")

    p = sub.add_parser(
        "identify", help="catalog name of a group expression", parents=[tail]
    )
    p.add_argument("expr")

    p = sub.add_parser(
        "enumerate", help="all isomorphism classes of one order", parents=[tail]
    )
    p.add_argument("n", type=int)

    v = sub.add_parser("verify", help="check a classification claim", parents=[tail])
    vsub = v.add_subparsers(dest="claim", required=True)
    swept = argparse.ArgumentParser(add_help=False)
    swept.add_argument("--max-order", type=int, default=12)
    claims = {
        claim: vsub.add_parser(
            claim, parents=[tail] if claim == "theorem24" else [tail, swept]
        )
        for claim in _CLAIM_REPORTS
    }
    claims["theorem23"].add_argument("--r", type=int, choices=(1, 2, 4), required=True)
    claims["theorem24"].add_argument("--n", type=int, required=True)

    p = sub.add_parser(
        "approx-beta", help="greedy dihedral-product beta target", parents=[tail]
    )
    p.add_argument("target")
    p.add_argument("--eps", required=True)
    p.add_argument("--materialize", action="store_true")
    return parser


def _emit(args, record: dict, human: str) -> None:
    if args.format == "machine":
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _beta_fields(inv) -> dict:
    return {
        "order": inv.order,
        "i": inv.i,
        "c": inv.c,
        "r": inv.r,
        "beta_num": inv.beta.numerator,
        "beta_den": inv.beta.denominator,
    }


def _print_report(args, report: classify.VerificationReport) -> None:
    record = {
        "claim": report.claim,
        "scope": report.scope,
        "status": report.status,
        "witnesses": [name for name, _ in report.witnesses],
    }
    if report.counterexample is not None:
        record["counterexample"] = {
            "description": report.counterexample.description,
            "table": [list(row) for row in report.counterexample.table],
        }
    names = ", ".join(record["witnesses"])
    human = f"[{report.claim}] {report.status}  scope: {report.scope}"
    if names:
        human += f"\n    witnesses: {names}"
    if report.counterexample is not None:
        human += f"\n    counterexample: {report.counterexample.description}"
        human += f"\n    table: {report.counterexample.table}"
    _emit(args, record, human)


def _cmd_invariants(args) -> int:
    expr = parse_group_expr(args.expr)
    inv = invariants(evaluate(expr, table_cap=args.table_cap))
    record = {"group": expr.text(), **_beta_fields(inv)}
    human = (
        f"group {expr.text()}: order={inv.order} i={inv.i} c={inv.c} r={inv.r} "
        f"beta={inv.beta.numerator}/{inv.beta.denominator}"
    )
    _emit(args, record, human)
    return EXIT_OK


def _cmd_identify(args) -> int:
    expr = parse_group_expr(args.expr)
    group = evaluate(expr, table_cap=args.table_cap)
    name = identify(group)
    aliases: tuple[str, ...] = ()
    if name is not None:
        for entry in builtin_catalog():
            if entry.name == name:
                aliases = entry.aliases
                break
    record = {
        "group": expr.text(),
        "order": group.order,
        "name": name,
        "aliases": list(aliases),
    }
    if name is None:
        human = f"group {expr.text()} (order {group.order}): not in the catalog"
    else:
        alias_note = f" (aliases: {', '.join(aliases)})" if aliases else ""
        human = f"group {expr.text()} (order {group.order}): {name}{alias_note}"
    _emit(args, record, human)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    result = enumerate_groups(args.n, enum_cap=args.enum_cap, workers=cpus_in_use())
    if args.format != "machine":
        print(
            f"order {result.order}: {len(result.groups)} isomorphism classes "
            f"({result.tables_explored} tables explored, {result.elapsed:.2f}s)"
        )
    for index, group in enumerate(result.groups):
        inv = invariants(group)
        name = identify(group)
        record = {
            "order": result.order,
            "index": index,
            "name": name,
            **_beta_fields(inv),
        }
        human = (
            f"  #{index} {name or 'unnamed':12s} i={inv.i:3d} c={inv.c:3d} "
            f"r={inv.r:3d} beta={inv.beta.numerator}/{inv.beta.denominator}"
        )
        _emit(args, record, human)
    if args.format == "machine":
        # No timing field here: machine output is bit-for-bit reproducible.
        print(
            json.dumps(
                {
                    "order": result.order,
                    "classes": len(result.groups),
                    "tables_explored": result.tables_explored,
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


def _all_reports(args) -> list:
    """Every claim's reports in one run, each list built by the function
    its own subcommand uses, at these flags."""

    def reports(claim, **fields):
        return _CLAIM_REPORTS[claim](argparse.Namespace(**vars(args), **fields))

    found = reports("theorem1") + reports("theorem22")
    for r in (1, 2, 4):
        found += reports("theorem23", r=r)
    for n in _T24_ALL:
        found += reports("theorem24", n=n)
    if args.max_order >= 12:
        # A claim about order 12 alone, which no other subcommand runs.
        found.append(classify.order12_case_f_report(enum_cap=args.enum_cap))
    return found + reports("lemmas")


#: Each ``verify`` claim's reports, from its parsed arguments.
_CLAIM_REPORTS = {
    "theorem1": lambda args: list(
        classify.verify_theorem1(args.max_order, enum_cap=args.enum_cap)
    ),
    "theorem22": lambda args: [
        classify.verify_involution_threshold(args.max_order, enum_cap=args.enum_cap)
    ],
    "theorem23": lambda args: [
        classify.verify_c_order_deficit(args.r, args.max_order, enum_cap=args.enum_cap)
    ],
    "theorem24": lambda args: [
        classify.verify_semidirect_dichotomy(args.n, table_cap=args.table_cap)
    ],
    "lemmas": lambda args: classify.verify_lemmas(
        args.max_order, table_cap=args.table_cap, enum_cap=args.enum_cap
    ),
    "all": _all_reports,
}


def _cmd_verify(args) -> int:
    reports = _CLAIM_REPORTS[args.claim](args)
    for report in reports:
        _print_report(args, report)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_COUNTEREXAMPLE


def _parse_target(text: str) -> Fraction:
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {literal_excerpt(text)}") from exc
    return rational_from_decimal(text)


def _cmd_approx_beta(args) -> int:
    target = _parse_target(args.target)
    eps = _parse_target(args.eps)
    selection = density.approximate_beta(target, eps, prime_cap=args.prime_cap)
    # An exact beta near the floor runs to ~80k digits: lift the int-to-str
    # limit only while the record and the text are built and printed.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        beta = selection.predicted_beta
        record = {
            "target_num": target.numerator,
            "target_den": target.denominator,
            "eps_num": eps.numerator,
            "eps_den": eps.denominator,
            "primes": list(selection.primes),
            "beta_num": beta.numerator,
            "beta_den": beta.denominator,
            "primes_scanned": selection.primes_scanned,
        }
        human = (
            f"target {target}  eps {eps}\n"
            f"primes: {' '.join(str(p) for p in selection.primes) or '(none)'}\n"
            f"beta: {beta.numerator}/{beta.denominator}  (~{float(beta):.6f}, "
            f"log residual {selection.log_residual:.3e})\n"
            f"primes scanned: {selection.primes_scanned}"
        )
        if args.materialize:
            outcome = density.materialize(selection, order_cap=args.table_cap)
            if isinstance(outcome, density.TooLarge):
                record["required_order"] = outcome.required_order
                human += (
                    f"\nmaterialize: too large (required order {outcome.required_order})"
                )
            else:
                record["materialized_order"] = outcome.order
                counted = invariants(outcome).beta
                human += (
                    f"\nmaterialized {outcome.name} (order {outcome.order}), counted "
                    f"beta {counted.numerator}/{counted.denominator}"
                )
        _emit(args, record, human)
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


#: Each subcommand's handler, from its parsed arguments to an exit code.
_COMMANDS = {
    "invariants": _cmd_invariants,
    "identify": _cmd_identify,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "approx-beta": _cmd_approx_beta,
}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # A sweep over no order would report "verified" with no group
        # examined, and no group fits a cap below 1.
        for flag in ("max_order", "enum_cap", "table_cap"):
            value = getattr(args, flag, 1)
            if value < 1:
                raise DomainError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
        return _COMMANDS[args.command](args)
    except (ParseError, DomainError, InvalidGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        best = exc.best
        print(f"error: {exc}", file=sys.stderr)
        if best is not None:
            beta = best.predicted_beta
            print(
                f"best selection: {len(best.primes)} primes, beta ~ "
                f"{float(beta):.6f} after scanning {best.primes_scanned} primes",
                file=sys.stderr,
            )
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
