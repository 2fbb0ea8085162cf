"""Command-line interface.

Subcommands: decompose (closed formulas), oracle (brute force),
compare (both, with a diff), table (classification table for the
depth-two shapes), lr (a single Littlewood-Richardson coefficient).
decompose, oracle and compare read the inner shape as args.inner,
which --dual sets to e2. compare and table --verify diff two
expansions one way: the shapes of their difference, with both values.
Each subcommand returns a JSON payload or its text or CSV lines, and
main prints them, a payload through _json, so no subcommand loads
json. Output is deterministic: identical invocations print identical
bytes. Timings, when requested, go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache
from typing import NoReturn, Sequence

from .errors import FoulkesError, PartitionParseError, ResourceBoundError
from .expansions import SchurExpansion, total_dimension
from .formulas import METHODS, TABLE_NU_KINDS, _table, decompose, table_nu
from .lr import lr_coefficient
from .oracle import _check_cap, oracle_plethysm_e2, oracle_plethysm_s2
from .partitions import (
    Partition,
    _clip,
    _clip_int,
    _format,
    _parse_digits,
    parse_partition,
)

Output = dict | list[str]

# Largest n the table command builds. The table runs over every
# partition of 2n: a whole table process takes about 0.3 s at 36 MB for
# n = 20 and 1.3-1.4 s at 130 MB for n = 25 (Python 3.11.7, 2-core VM),
# and the count grows about 1.4x with each step of n.
_MAX_TABLE_N = 25


def _oracle_cap() -> int | None:
    """The oracle cap FOULKES_MAX_N sets, or None for the default."""
    raw = os.environ.get("FOULKES_MAX_N")
    if raw is None:
        return None
    try:
        return _parse_digits(raw)
    except ValueError:
        msg = f"FOULKES_MAX_N must be an integer in the digits 0-9, got {_clip(raw)!r}"
        raise PartitionParseError(msg) from None


def _oracle(nu: Partition, inner: str, cap: int | None) -> SchurExpansion:
    fn = oracle_plethysm_s2 if inner == "s2" else oracle_plethysm_e2
    return fn(nu, max_weight=cap)


def _timed(timings: dict[str, float], phase: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    timings[phase] = time.perf_counter() - t0
    return result


def _json(value) -> str:
    """json.dumps(value) with the default separators, byte for byte.

    It writes the values a payload holds: dicts with str keys, lists,
    bools, ints, the fixed ASCII names (inners, methods, table kinds and
    row classes), which json.dumps writes as plain quoted text, a tuple
    (a partition) as a list of ints and a SchurExpansion as its list of
    {"lambda", "mult"} terms, with no dict per term: each term's text up
    to its multiplicity comes from the per-shape memo _json_term_head.
    Every decompose query passes through here, so the common types are
    tested first.
    """
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        return "[" + ", ".join(map(str, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join([f'"{k}": {_json(v)}' for k, v in value.items()]) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, SchurExpansion):
        terms = value._terms  # sorted keys, with no tuple of pairs
        order = sorted(terms, reverse=True)
        body = "}, ".join([_json_term_head(lam) + str(terms[lam]) for lam in order])
        return f"[{body}}}]" if body else "[]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@cache
def _json_term_head(lam: Partition) -> str:
    """The opening text of lam's JSON term, up to its multiplicity."""
    return '{"lambda": ' + _json(lam) + ', "mult": '


def _expansion_output(
    nu: Partition, inner: str, method: str, exp: SchurExpansion, fmt: str
) -> Output:
    """What decompose and oracle print for one expansion."""
    if fmt == "json":
        return {"nu": nu, "inner": inner, "terms": exp, "method": method}
    terms = exp.items()  # sorted once, for the rows
    if fmt == "csv":
        return ["lambda;mult;table1_class"] + [
            f"{_format(lam)};{mult};" for lam, mult in terms
        ]
    return [
        f"nu: {_format(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        "terms:",
        *(f"  {_format(lam)}  {mult}" for lam, mult in terms),
        f"constituents: {len(terms)}",
        f"multiplicity: {sum(m for _, m in terms)}",
        f"dimension: {total_dimension(exp)}",
    ]


def _cmd_decompose(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    result, method = _timed(timings, "formula", decompose, nu, args.method, args.inner)
    return 0, _expansion_output(nu, args.inner, method, result, args.format)


def _cmd_oracle(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    result = _timed(timings, "oracle", _oracle, nu, args.inner, _oracle_cap())
    return 0, _expansion_output(nu, args.inner, "oracle", result, args.format)


def _cmd_compare(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu, inner = parse_partition(args.nu), args.inner
    cap = _oracle_cap()
    _check_cap(nu, cap)  # before the formula, which can take far longer
    formula, method = _timed(timings, "formula", decompose, nu, args.method, inner)
    reference = _timed(timings, "oracle", _oracle, nu, inner, cap)
    diff = [(lam, formula[lam], reference[lam]) for lam in formula - reference]
    code = 1 if diff else 0
    if args.format == "json":
        return code, {
            "nu": nu,
            "inner": inner,
            "method": method,
            "agree": not diff,
            "formula_terms": formula,
            "oracle_terms": reference,
            "diff": [{"lambda": lam, "formula": a, "oracle": b} for lam, a, b in diff],
        }
    return code, [
        f"nu: {_format(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        f"status: {'disagree' if diff else 'agree'}",
        *(["diff:"] if diff else []),
        *(f"  {_format(lam)}  formula={a}  oracle={b}" for lam, a, b in diff),
        f"constituents: {len(formula)}",
    ]


def _cmd_table(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    n, kind = args.n, args.kind
    nu = table_nu(kind, n)
    if n > _MAX_TABLE_N:
        raise ResourceBoundError(
            f"table n = {_clip_int(n)} exceeds the limit {_MAX_TABLE_N}"
        )
    table, classes = _table(kind, n)
    rows = [
        {"lambda": lam, "mult": mult, "class": classes[lam]}
        for lam, mult in table.items()
    ]
    payload: dict = {"n": n, "kind": kind, "nu": nu, "rows": rows}
    mismatches = []
    if args.verify:
        reference, _ = decompose(nu)
        mismatches = [
            {"lambda": lam, "table": table[lam], "formula": reference[lam]}
            for lam in table - reference
        ]
        payload.update(verified=not mismatches, mismatches=mismatches)
    code = 1 if mismatches else 0
    if args.format == "json":
        return code, payload
    cells = [(_format(r["lambda"]), r["mult"], r["class"]) for r in rows]
    if args.format == "csv":
        header = "lambda;mult;table1_class" + (";verified" if args.verify else "")
        verified = (";check" if mismatches else ";ok") if args.verify else ""
        return code, [header] + [f"{lam};{m};{cls}{verified}" for lam, m, cls in cells]
    lines = [f"n: {n}", f"kind: {kind}", f"nu: {_format(nu)}", "rows:"]
    lines.extend(f"  {lam}  {m}  {cls}" for lam, m, cls in cells)
    if args.verify and not mismatches:
        lines.append(f"verified: {len(rows)}/{len(rows)}")
    elif args.verify:
        lines.append("verified: MISMATCH")
        lines.extend(
            f"  {_format(m['lambda'])}  table={m['table']}  "
            f"formula={m['formula']}"
            for m in mismatches
        )
    return code, lines


def _cmd_lr(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    lam, mu, nu = (parse_partition(s) for s in (args.lam, args.mu, args.nu))
    value = lr_coefficient(lam, mu, nu)
    if args.format == "json":
        return 0, {"lambda": lam, "mu": mu, "nu": nu, "coefficient": value}
    return 0, [str(value)]


def _table_n(text: str) -> int:
    """table's n: as type=int, in the digits 0-9 only and of any length."""
    try:
        return _parse_digits(text)
    except ValueError:
        msg = f"invalid 'int' value: {_clip(text)!r}"
        raise argparse.ArgumentTypeError(msg) from None


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line, as the
    package's own errors are: the usage summary is left out (-h has it),
    each argument echoed shows as _clip shows it, and the line stays
    under 200 bytes however many arguments it echoes."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else args  # for error
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse's own message joins them whole
            self._exit_error("unrecognized arguments: " + " ".join(map(_clip, extras)))
        return namespace

    def error(self, message: str) -> NoReturn:
        # argparse echoes the one argument at fault whole, as its repr:
        # an argument, or the value of an --option=value
        for arg in self._args:
            for text in (arg, arg.partition("=")[2]):
                if len(text) > 40:
                    message = message.replace(repr(text), repr(_clip(text)))
        self._exit_error(message)

    def _exit_error(self, message: str) -> NoReturn:
        line = f"{self.prog}: error: {message}".replace("\n", "\\n")
        shown = line.encode(errors="backslashreplace")
        if len(shown) > 196:
            line = shown[:193].decode(errors="ignore") + "..."
        self.exit(2, line + "\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="foulkes",
        description=(
            "Decompose the plethysms s_nu(s_(2)) and s_nu(s_(1,1)) into "
            "Schur functions, exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="evaluate a closed formula for nu")
    d.add_argument("nu", help="partition, e.g. 3,1 or 2^2,1 or - for empty")
    d.add_argument("--method", choices=METHODS, default="auto")
    dual = dict(action="store_const", dest="inner", const="e2", default="s2")
    d.add_argument("--dual", **dual, help="expand s_nu(s_(1,1)) instead")
    d.add_argument("--format", choices=("text", "json", "csv"), default="text")
    d.add_argument("--timings", action="store_true", help="print timings to stderr")
    d.set_defaults(handler=_cmd_decompose)

    o = sub.add_parser("oracle", help="expand by brute force, no closed formula")
    o.add_argument("nu")
    o.add_argument("--inner", choices=("s2", "e2"), default="s2")
    o.add_argument("--format", choices=("text", "json", "csv"), default="text")
    o.add_argument("--timings", action="store_true")
    o.set_defaults(handler=_cmd_oracle)

    c = sub.add_parser("compare", help="run formula and oracle, diff the results")
    c.add_argument("nu")
    c.add_argument("--method", choices=METHODS, default="auto")
    c.add_argument("--dual", **dual)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--timings", action="store_true")
    c.set_defaults(handler=_cmd_compare)

    t = sub.add_parser("table", help="closed multiplicity table for depth-two nu")
    t.add_argument("n", type=_table_n)
    t.add_argument("--kind", choices=TABLE_NU_KINDS, required=True)
    t.add_argument("--verify", action="store_true", help="cross-check the formula")
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")
    t.set_defaults(handler=_cmd_table)

    lr = sub.add_parser("lr", help="one Littlewood-Richardson coefficient")
    lr.add_argument("lam", metavar="lambda")
    lr.add_argument("mu")
    lr.add_argument("nu")
    lr.add_argument("--format", choices=("text", "json"), default="text")
    lr.set_defaults(handler=_cmd_lr)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    timings: dict[str, float] = {}
    try:
        code, output = args.handler(args, timings)
    except FoulkesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceBoundError) else 2
    except (MemoryError, RecursionError) as exc:
        # Running out of memory or stack is a resource bound too; the
        # message is fixed so that it stays one line.
        print(f"error: out of resources ({type(exc).__name__})", file=sys.stderr)
        return 3
    text = _json(output) if isinstance(output, dict) else "\n".join(output)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so the flush at
        # interpreter shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if getattr(args, "timings", False):
        rendered = " ".join(f"{k}={v:.6f}s" for k, v in timings.items())
        print(f"timings: {rendered}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
