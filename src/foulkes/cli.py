"""Command-line interface.

Subcommands: decompose (closed formulas), oracle (brute force),
compare (both, with a diff), table (classification table for the
depth-two shapes), lr (a single Littlewood-Richardson coefficient).
decompose, oracle and compare read the inner shape as args.inner,
which --dual sets to e2. compare and table --verify diff two
expansions through one function, _diff: the shapes of their
difference, with both values, as JSON entries and as text rows. One
row writer, _rows, writes every row of a text block (indented, cells
apart by two spaces) and every CSV row (cells apart by ';'): the
terms of decompose and oracle, the rows of table and the diff rows.
The subcommands and their arguments are declared once, in _COMMANDS.
main reads a well-formed argv with _read_argv, so a query loads no
argparse; -h, usage errors and the other spellings argparse accepts
go to the argparse parser _build_parser makes of the same table, in
foulkes._usage, which loads only then. Likewise table's handler
imports Table 1 (foulkes._table1), the oracle its strip engine
(foulkes._characters), a formula's first product the LR strip kernel
(foulkes._chains) and lr its filling count (foulkes._fillings), each on
first use, so importing this module compiles none of the five.
Each subcommand returns a JSON payload or its text or CSV lines, and
main prints them, a payload through _json, so no subcommand loads
json. Output is deterministic: identical invocations print identical
bytes. Timings, when requested, go to stderr.
A process enters at run, both under python -m foulkes.cli and as the
installed foulkes command: it exits with main's code and skips the
collections the interpreter would run over every loaded module at
shutdown. main alone leaves the collector as it found it, so callers
in the same process can call it again.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections.abc import Sequence
from functools import cache
from types import SimpleNamespace

from .errors import FoulkesError, PartitionParseError, ResourceBoundError
from .expansions import SchurExpansion, total_dimension
from .formulas import METHODS, TABLE_NU_KINDS, decompose, table_nu
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

# typing is not imported at run time; NoReturn is for type checkers.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

Output = dict | list[str]

# Largest n the table command builds. The table forms only the
# partitions of 2n in a row of Table 1: a whole table process takes
# about 0.17 s at 21 MB for n = 20 and 0.55-0.6 s at 40 MB for n = 25
# (--format json, Python 3.11.7, 2-core VM), and the count of rows
# grows about 1.3x with each step of n.
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


def _rows(rows, sep: str = "  ", lead: str = "  ") -> list[str]:
    """One line per row (lam, *cells): lead, then lam as _format writes
    it and each other cell, joined by sep. The defaults write the
    indented rows of a text block; sep=";" and lead="" write CSV rows."""
    return [lead + sep.join([_format(lam), *map(str, cells)]) for lam, *cells in rows]


def _diff(
    first: SchurExpansion, second: SchurExpansion, a: str, b: str
) -> tuple[list[dict], list[str]]:
    """The shapes where first and second differ, in canonical order, with
    both values: as JSON entries {"lambda", a, b} and as text rows
    lam  a=x  b=y. A shape on one side only has 0 on the other."""
    diff = [(lam, first[lam], second[lam]) for lam in first - second]
    entries = [{"lambda": lam, a: x, b: y} for lam, x, y in diff]
    return entries, _rows((lam, f"{a}={x}", f"{b}={y}") for lam, x, y in diff)


def _expansion_output(
    nu: Partition, inner: str, method: str, exp: SchurExpansion, fmt: str
) -> Output:
    """What decompose and oracle print for one expansion."""
    if fmt == "json":
        return {"nu": nu, "inner": inner, "terms": exp, "method": method}
    terms = exp.items()  # sorted once, for the rows
    if fmt == "csv":
        rows = _rows([(lam, mult, "") for lam, mult in terms], ";", "")
        return ["lambda;mult;table1_class", *rows]
    return [
        f"nu: {_format(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        "terms:",
        *_rows(terms),
        f"constituents: {len(terms)}",
        f"multiplicity: {sum(m for _, m in terms)}",
        f"dimension: {total_dimension(exp)}",
    ]


def _cmd_decompose(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    result, method = _timed(timings, "formula", decompose, nu, args.method, args.inner)
    return 0, _expansion_output(nu, args.inner, method, result, args.format)


def _cmd_oracle(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
    nu = parse_partition(args.nu)
    result = _timed(timings, "oracle", _oracle, nu, args.inner, _oracle_cap())
    return 0, _expansion_output(nu, args.inner, "oracle", result, args.format)


def _cmd_compare(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
    nu, inner = parse_partition(args.nu), args.inner
    cap = _oracle_cap()
    _check_cap(nu, cap)  # before the formula, which can take far longer
    formula, method = _timed(timings, "formula", decompose, nu, args.method, inner)
    reference = _timed(timings, "oracle", _oracle, nu, inner, cap)
    diff, rows = _diff(formula, reference, "formula", "oracle")
    code = 1 if diff else 0
    if args.format == "json":
        return code, {
            "nu": nu,
            "inner": inner,
            "method": method,
            "agree": not diff,
            "formula_terms": formula,
            "oracle_terms": reference,
            "diff": diff,
        }
    return code, [
        f"nu: {_format(nu)}",
        f"inner: {inner}",
        f"method: {method}",
        f"status: {'disagree' if diff else 'agree'}",
        *(["diff:"] if diff else []),
        *rows,
        f"constituents: {len(formula)}",
    ]


def _cmd_table(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
    n, kind = args.n, args.kind
    nu = table_nu(kind, n)
    if n > _MAX_TABLE_N:
        raise ResourceBoundError(
            f"table n = {_clip_int(n)} exceeds the limit {_MAX_TABLE_N}"
        )
    from ._table1 import _table

    table, classes = _table(kind, n)
    cells = [(lam, mult, classes[lam]) for lam, mult in table.items()]
    rows = [{"lambda": lam, "mult": m, "class": cls} for lam, m, cls in cells]
    payload: dict = {"n": n, "kind": kind, "nu": nu, "rows": rows}
    mismatches, diff = [], []
    if args.verify:
        mismatches, diff = _diff(table, decompose(nu)[0], "table", "formula")
        payload.update(verified=not mismatches, mismatches=mismatches)
    code = 1 if mismatches else 0
    if args.format == "json":
        return code, payload
    if args.format == "csv":
        header = "lambda;mult;table1_class" + (";verified" if args.verify else "")
        verified = ("check" if mismatches else "ok",) if args.verify else ()
        return code, [header, *_rows([(*row, *verified) for row in cells], ";", "")]
    lines = [f"n: {n}", f"kind: {kind}", f"nu: {_format(nu)}", "rows:", *_rows(cells)]
    if args.verify:
        size = len(cells)
        lines.append("verified: MISMATCH" if mismatches else f"verified: {size}/{size}")
    return code, lines + diff


def _cmd_lr(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
    lam, mu, nu = (parse_partition(s) for s in (args.lam, args.mu, args.nu))
    value = lr_coefficient(lam, mu, nu)
    if args.format == "json":
        return 0, {"lambda": lam, "mu": mu, "nu": nu, "coefficient": value}
    return 0, [str(value)]


def _with(argument: dict, **kwargs) -> dict:
    """A one-argument entry of _COMMANDS with more keyword arguments."""
    return {name: {**given, **kwargs} for name, given in argument.items()}


# The arguments more than one subcommand takes, each as {name: keyword
# arguments of argparse's add_argument}.
_NU = {"nu": {}}
_METHOD = {"--method": {"choices": METHODS, "default": "auto"}}
_DUAL = {
    "--dual": {"action": "store_const", "dest": "inner", "const": "e2", "default": "s2"}
}
_FORMAT = {"--format": {"choices": ("text", "json", "csv"), "default": "text"}}
_TEXT_OR_JSON = _with(_FORMAT, choices=("text", "json"))
_TIMINGS = {"--timings": {"action": "store_true"}}

# Every subcommand, once: its handler, its help, its positionals and its
# options, in the order -h lists them. _read_argv and _build_parser both
# read this table. table's n is read by _parse_digits.
_COMMANDS = {
    "decompose": (
        _cmd_decompose,
        "evaluate a closed formula for nu",
        _with(_NU, help="partition, e.g. 3,1 or 2^2,1 or - for empty"),
        {
            **_METHOD,
            **_with(_DUAL, help="expand s_nu(s_(1,1)) instead"),
            **_FORMAT,
            **_with(_TIMINGS, help="print timings to stderr"),
        },
    ),
    "oracle": (
        _cmd_oracle,
        "expand by brute force, no closed formula",
        _NU,
        {"--inner": {"choices": ("s2", "e2"), "default": "s2"}, **_FORMAT, **_TIMINGS},
    ),
    "compare": (
        _cmd_compare,
        "run formula and oracle, diff the results",
        _NU,
        {**_METHOD, **_DUAL, **_TEXT_OR_JSON, **_TIMINGS},
    ),
    "table": (
        _cmd_table,
        "closed multiplicity table for depth-two nu",
        {"n": {"type": _parse_digits}},
        {
            "--kind": {"choices": TABLE_NU_KINDS, "required": True},
            "--verify": {"action": "store_true", "help": "cross-check the formula"},
            **_FORMAT,
        },
    ),
    "lr": (
        _cmd_lr,
        "one Littlewood-Richardson coefficient",
        {"lam": {"metavar": "lambda"}, "mu": {}, **_NU},
        _TEXT_OR_JSON,
    ),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for argv, with the same
    attributes, when argv takes the one plain form read here; else None.

    That form is the subcommand, exactly its positionals, none starting
    with '-' but a lone '-', then options spelled in full, each value
    one of its choices, every required option given. Everything else
    (-h, usage errors, abbreviations, --option=value, options before
    positionals, '--') is left to argparse, so it prints what it prints.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    handler, _, positionals, options = command
    end = 1 + len(positionals)
    words = argv[1:end]
    if len(words) < len(positionals) or any(
        word.startswith("-") and word != "-" for word in words
    ):
        return None
    values = {"command": argv[0], "handler": handler}
    for option, kwargs in options.items():
        default = False if kwargs.get("action") == "store_true" else None
        values[kwargs.get("dest", option[2:])] = kwargs.get("default", default)
    given = set()
    rest = iter(argv[end:])
    for token in rest:
        kwargs = options.get(token)
        if kwargs is None:
            return None
        action = kwargs.get("action")
        if action is None:
            value = next(rest, None)
            if value not in kwargs["choices"]:
                return None
        else:
            value = kwargs["const"] if action == "store_const" else True
        values[kwargs.get("dest", token[2:])] = value
        given.add(token)
    if any(kw.get("required") and opt not in given for opt, kw in options.items()):
        return None
    for (name, kwargs), word in zip(positionals.items(), words):
        try:
            values[name] = kwargs.get("type", str)(word)
        except ValueError:
            return None
    return SimpleNamespace(**values)


@cache
def _build_parser():
    """The argparse parser of _COMMANDS (foulkes._usage), built for the
    first argv _read_argv leaves (-h, a usage error or another
    spelling)."""
    from ._usage import build_parser

    return build_parser(_COMMANDS)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The output goes to stdout in one write. If that write fails, main
    returns 1: quietly when the reader has gone (a broken pipe), and
    otherwise with the one stderr line `error: cannot write output:`
    and the system's reason, as for a full disk.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:  # -h, a usage error or a form only argparse reads
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
    except OSError as exc:
        # The reader went away, or stdout takes no more (a full disk).
        # Point stdout at devnull so the flush at interpreter shutdown
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 1
    if getattr(args, "timings", False):
        rendered = " ".join(f"{k}={v:.6f}s" for k, v in timings.items())
        print(f"timings: {rendered}", file=sys.stderr)
    return code


def run() -> NoReturn:
    """Exit the process with main's code, the entry of python -m
    foulkes.cli and of the installed foulkes command.

    However main ends, with a code, a SystemExit from argparse or an
    exception, every object is frozen first (gc.freeze), so the garbage
    collections at interpreter shutdown skip the reference cycles of
    every loaded module: about 4.5 ms of a one-shot process (Python
    3.11.7, 2-core VM). Stdout and stderr are still flushed, atexit
    handlers still run and the exit code is main's.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
