"""Command-line interface.

Subcommands: decompose (closed formulas), oracle (brute force),
compare (both, with a diff), table (classification table for the
depth-two shapes), lr (a single Littlewood-Richardson coefficient).
Each subcommand returns a JSON payload or its text or CSV lines, and
main prints them; decompose and oracle return their JSON as one line
they write themselves. Output is deterministic: identical invocations
print identical bytes. Timings, when requested, go to stderr.
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
from .formulas import (
    METHODS,
    TABLE_NU_KINDS,
    decompose,
    table_multiplicity,
    table_nu,
    table_row_class,
)
from .lr import lr_coefficient
from .oracle import _check_cap, oracle_plethysm_e2, oracle_plethysm_s2
from .partitions import (
    Partition,
    _MAX_TABLE_N,
    _clip,
    _clip_int,
    _parse_digits,
    format_partition,
    generate_partitions,
    parse_partition,
)

Output = dict | list[str]


def _oracle_cap() -> int | None:
    """The oracle cap FOULKES_MAX_N sets, or None for the default."""
    raw = os.environ.get("FOULKES_MAX_N")
    if raw is None:
        return None
    try:
        return _parse_digits(raw)
    except ValueError:
        pass
    shown = repr(_clip(raw))
    if raw.strip()[:1] == "-" and raw.strip()[1:].isdigit():
        raise PartitionParseError(f"FOULKES_MAX_N must not be negative, got {shown}")
    raise PartitionParseError(
        f"FOULKES_MAX_N must be an integer in the digits 0-9, got {shown}"
    )


def _oracle(nu: Partition, inner: str, cap: int | None) -> SchurExpansion:
    fn = oracle_plethysm_s2 if inner == "s2" else oracle_plethysm_e2
    return fn(nu, max_weight=cap)


def _timed(timings: dict[str, float], phase: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    timings[phase] = time.perf_counter() - t0
    return result


def _terms_payload(exp: SchurExpansion) -> list[dict]:
    return [{"lambda": list(lam), "mult": mult} for lam, mult in exp.items()]


def _json_ints(parts: Sequence[int]) -> str:
    return "[" + ", ".join(map(str, parts)) + "]"


@cache
def _json_term_head(lam: Partition) -> str:
    """The opening text of lam's JSON term, up to its multiplicity."""
    return '{"lambda": ' + _json_ints(lam) + ', "mult": '


def _expansion_output(
    nu: Partition, inner: str, method: str, exp: SchurExpansion, fmt: str
) -> Output:
    """The lines decompose and oracle print for one expansion.

    The JSON line is written here, term by term, with no dict per term:
    each term's text up to its multiplicity comes from a per-shape memo.
    It equals json.dumps of {"nu", "inner", "terms", "method"} with the
    default separators byte for byte, because every value is an int, a
    list of ints or one of a fixed set of ASCII names (the inners and
    method names), which json.dumps writes as plain quoted text.
    """
    if fmt == "json":
        body = "}, ".join([_json_term_head(lam) + str(m) for lam, m in exp.items()])
        terms = f"[{body}}}]" if body else "[]"
        return [
            f'{{"nu": {_json_ints(nu)}, "inner": "{inner}", '
            f'"terms": {terms}, "method": "{method}"}}'
        ]
    if fmt == "csv":
        return ["lambda;mult;table1_class"] + [
            f"{format_partition(lam)};{mult};" for lam, mult in exp.items()
        ]
    return [
        f"nu: {format_partition(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        "terms:",
        *(f"  {format_partition(lam)}  {mult}" for lam, mult in exp.items()),
        f"constituents: {len(exp)}",
        f"multiplicity: {sum(m for _, m in exp.items())}",
        f"dimension: {total_dimension(exp)}",
    ]


def _cmd_decompose(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    inner = "e2" if args.dual else "s2"
    result, method = _timed(timings, "formula", decompose, nu, args.method, inner)
    return 0, _expansion_output(nu, inner, method, result, args.format)


def _cmd_oracle(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    result = _timed(timings, "oracle", _oracle, nu, args.inner, _oracle_cap())
    return 0, _expansion_output(nu, args.inner, "oracle", result, args.format)


def _cmd_compare(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    inner = "e2" if args.dual else "s2"
    cap = _oracle_cap()
    _check_cap(nu, cap)  # before the formula, which can take far longer
    formula, method = _timed(timings, "formula", decompose, nu, args.method, inner)
    reference = _timed(timings, "oracle", _oracle, nu, inner, cap)
    diff = [
        (lam, formula[lam], reference[lam])
        for lam in sorted({*formula.support(), *reference.support()}, reverse=True)
        if formula[lam] != reference[lam]
    ]
    code = 1 if diff else 0
    if args.format == "json":
        return code, {
            "nu": list(nu),
            "inner": inner,
            "method": method,
            "agree": not diff,
            "formula_terms": _terms_payload(formula),
            "oracle_terms": _terms_payload(reference),
            "diff": [
                {"lambda": list(lam), "formula": a, "oracle": b}
                for lam, a, b in diff
            ],
        }
    return code, [
        f"nu: {format_partition(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        f"status: {'disagree' if diff else 'agree'}",
        *(["diff:"] if diff else []),
        *(f"  {format_partition(lam)}  formula={a}  oracle={b}" for lam, a, b in diff),
        f"constituents: {len(formula)}",
    ]


def _cmd_table(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    n, kind = args.n, args.kind
    nu = table_nu(kind, n)
    if n > _MAX_TABLE_N:
        raise ResourceBoundError(
            f"table n = {_clip_int(n)} exceeds the limit {_MAX_TABLE_N}"
        )
    mults = {
        lam: table_multiplicity(lam, kind, n) for lam in generate_partitions(2 * n)
    }
    rows = [
        {"lambda": list(lam), "mult": mult, "class": table_row_class(lam)}
        for lam, mult in mults.items()
        if mult
    ]
    payload: dict = {"n": n, "kind": kind, "nu": list(nu), "rows": rows}
    mismatches = []
    if args.verify:
        reference, _ = decompose(nu)
        mismatches = [
            {"lambda": list(lam), "table": got, "formula": reference[lam]}
            for lam, got in mults.items()
            if got != reference[lam]
        ]
        payload.update(verified=not mismatches, mismatches=mismatches)
    code = 1 if mismatches else 0
    if args.format == "json":
        return code, payload
    cells = [(format_partition(r["lambda"]), r["mult"], r["class"]) for r in rows]
    if args.format == "csv":
        header = "lambda;mult;table1_class" + (";verified" if args.verify else "")
        verified = (";check" if mismatches else ";ok") if args.verify else ""
        return code, [header] + [f"{lam};{m};{cls}{verified}" for lam, m, cls in cells]
    lines = [f"n: {n}", f"kind: {kind}", f"nu: {format_partition(nu)}", "rows:"]
    lines.extend(f"  {lam}  {m}  {cls}" for lam, m, cls in cells)
    if args.verify and not mismatches:
        lines.append(f"verified: {len(rows)}/{len(rows)}")
    elif args.verify:
        lines.append("verified: MISMATCH")
        lines.extend(
            f"  {format_partition(m['lambda'])}  table={m['table']}  "
            f"formula={m['formula']}"
            for m in mismatches
        )
    return code, lines


def _cmd_lr(args: argparse.Namespace, timings: dict) -> tuple[int, Output]:
    lam, mu, nu = (parse_partition(s) for s in (args.lam, args.mu, args.nu))
    value = lr_coefficient(lam, mu, nu)
    if args.format == "json":
        return 0, {
            "lambda": list(lam),
            "mu": list(mu),
            "nu": list(nu),
            "coefficient": value,
        }
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
    package's own errors are: the usage summary is left out, -h has it."""

    def error(self, message: str) -> NoReturn:
        message = message.replace("\n", "\\n")  # an argument echoed raw
        self.exit(2, f"{self.prog}: error: {message}\n")


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
    d.add_argument("--dual", action="store_true", help="expand s_nu(s_(1,1)) instead")
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
    c.add_argument("--dual", action="store_true")
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
    if isinstance(output, dict):
        import json  # only JSON output needs it; keeps start-up short

        text = json.dumps(output)
    else:
        text = "\n".join(output)
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
