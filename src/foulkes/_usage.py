"""The argparse parser of the command line, loaded on first use.

cli reads a well-formed argv itself (cli._read_argv), so this module,
and argparse with it, is loaded only for -h, a usage error or another
spelling argparse accepts. cli._build_parser builds the parser here
from the subcommand table it passes in. This module never imports
foulkes.cli: under python -m foulkes.cli that module is __main__, and
importing it by name would compile and run cli.py a second time.
"""

from __future__ import annotations

import argparse
import sys

from .partitions import _clip, _parse_digits

# typing is not imported at run time; NoReturn is for type checkers.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn


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


def build_parser(commands: dict) -> _Parser:
    """The parser of a subcommand table laid out as cli._COMMANDS:
    name -> (handler, help, positionals, options)."""
    parser = _Parser(
        prog="foulkes",
        description=(
            "Decompose the plethysms s_nu(s_(2)) and s_nu(s_(1,1)) into "
            "Schur functions, exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, positionals, options) in commands.items():
        command = sub.add_parser(name, help=summary)
        for arg, kwargs in (*positionals.items(), *options.items()):
            if "type" in kwargs:  # table's n, whose usage error names int
                kwargs = {**kwargs, "type": _table_n}
            command.add_argument(arg, **kwargs)
        command.set_defaults(handler=handler)
    return parser
