"""Correctness checks for every benchmark query.

Two checks, both made outside the package under test:

* the golden table: exit code and sha256 of stdout, keyed by argv,
  recorded once by ``record_golden.py`` (stdout must stay byte for byte
  the same);
* an invariant for every successful decompose/oracle output: every
  multiplicity is positive and sum mult * f^lam = f^nu * (2n)!/(2^n n!),
  with the dimensions f from this module's own hook-length formula.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, list]:
    """argv key -> [exit code, sha256 of stdout]."""
    with open(path) as fh:
        return json.load(fh)


def dimension(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the shape (hook lengths)."""
    n = sum(shape)
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0] if shape else 0)]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // hooks


def induced_degree(n: int) -> int:
    """Index of the wreath product S_2 wr S_n in S_2n: (2n)!/(2^n n!)."""
    return math.factorial(2 * n) // (2**n * math.factorial(n))


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    parts: list[int] = []
    for token in text.split(","):
        base, _, exp = token.partition("^")
        parts += [int(base)] * (int(exp) if exp else 1)
    return tuple(parts)


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def parse_terms(argv: list[str], stdout: str) -> list[tuple[tuple[int, ...], int]]:
    """(lambda, mult) pairs of a decompose or oracle output, any format."""
    form = _option(argv, "--format", "text")
    if form == "json":
        return [(tuple(t["lambda"]), t["mult"]) for t in json.loads(stdout)["terms"]]
    lines = stdout.splitlines()
    if form == "csv":
        rows = [line.split(";") for line in lines[1:]]
        return [(parse_partition(lam), int(mult)) for lam, mult, _ in rows]
    start = lines.index("terms:") + 1
    end = next(i for i, line in enumerate(lines) if line.startswith("constituents:"))
    pairs = [line.split() for line in lines[start:end]]
    return [(parse_partition(lam), int(mult)) for lam, mult in pairs]


def invariant_error(argv: list[str], stdout: str) -> str | None:
    """Why a decompose/oracle output breaks the invariant, or None."""
    nu = parse_partition(argv[1])
    terms = parse_terms(argv, stdout)
    bad = [lam for lam, mult in terms if mult <= 0]
    if bad:
        return f"non-positive multiplicity at {bad[0]}"
    n = sum(nu)
    got = sum(mult * dimension(lam) for lam, mult in terms)
    want = dimension(nu) * induced_degree(n)
    if got != want:
        return f"dimension {got} != f^nu * (2n)!/(2^n n!) = {want}"
    return None


def failure(
    argv: list[str], code: object, stdout: str, golden: dict[str, list]
) -> str | None:
    """Why one query's result is wrong, or None when it is correct."""
    expected = golden.get(key(argv))
    if expected is None:
        return "query missing from the golden table"
    if code != expected[0]:
        return f"exit code {code}, golden {expected[0]}"
    if digest(stdout) != expected[1]:
        return "stdout differs from the golden digest"
    if code == 0 and argv[0] in ("decompose", "oracle"):
        try:
            return invariant_error(argv, stdout)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            return f"unparsable output: {exc!r}"
    return None
