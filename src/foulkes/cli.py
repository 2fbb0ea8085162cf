"""Command-line interface.

Subcommands: decompose (closed formulas), oracle (brute force),
compare (both, with a diff), table (classification table for the
depth-two shapes), lr (a single Littlewood-Richardson coefficient).
decompose, oracle and compare read the inner shape as args.inner,
which --dual sets to e2. compare and table --verify diff two
expansions one way: the shapes of their difference, with both values.
The subcommands and their arguments are declared once, in _COMMANDS.
main reads a well-formed argv with _read_argv, so a query loads no
argparse; -h, usage errors and the other spellings argparse accepts
go to the argparse parser _build_parser makes of the same table.
Each subcommand returns a JSON payload or its text or CSV lines, and
main prints them, a payload through _json, so no subcommand loads
json. Output is deterministic: identical invocations print identical
bytes. Timings, when requested, go to stderr.
"""

from __future__ import annotations

import os
import sys
import time
from functools import cache
from types import SimpleNamespace
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


def _cmd_table(args: SimpleNamespace, timings: dict) -> tuple[int, Output]:
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
    """The argparse parser of _COMMANDS, built for the first argv
    _read_argv leaves (-h, a usage error or another spelling)."""
    import argparse

    def _table_n(text: str) -> int:
        """table's n: as type=int, in the digits 0-9 only and of any length."""
        try:
            return _parse_digits(text)
        except ValueError:
            msg = f"invalid 'int' value: {_clip(text)!r}"
            raise argparse.ArgumentTypeError(msg) from None

    class _Parser(argparse.ArgumentParser):
        """An argparse parser whose usage errors are one line, as the
        package's own errors are: the usage summary is left out (-h has
        it), each argument echoed shows as _clip shows it, and the line
        stays under 200 bytes however many arguments it echoes."""

        def parse_known_args(self, args=None, namespace=None):
            self._args = sys.argv[1:] if args is None else args  # for error
            return super().parse_known_args(args, namespace)

        def parse_args(self, args=None, namespace=None):
            namespace, extras = self.parse_known_args(args, namespace)
            if extras:  # argparse's own message joins them whole
                shown = " ".join(map(_clip, extras))
                self._exit_error("unrecognized arguments: " + shown)
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

    parser = _Parser(
        prog="foulkes",
        description=(
            "Decompose the plethysms s_nu(s_(2)) and s_nu(s_(1,1)) into "
            "Schur functions, exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for arg, kwargs in (*positionals.items(), *options.items()):
            if "type" in kwargs:  # table's n, whose usage error names int
                kwargs = {**kwargs, "type": _table_n}
            command.add_argument(arg, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
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
