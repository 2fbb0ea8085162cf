"""Integer partitions: generation, constructions, and part statistics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0. Everything here is a pure
function on immutable values, so concurrent use is safe. Generation
results are memoized and must not be mutated by callers.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cache
from typing import Iterable

from .errors import (
    EmptyIncludeSetError,
    PartitionParseError,
    RepeatedPartsError,
    ResourceBoundError,
)

Partition = tuple[int, ...]

# Largest partition size parse_partition builds. Every route stops far
# below it (the oracle cap, the formulas' running time), except lr on
# one-row shapes, which is linear in the size (0.5 s at 10^6 on a 2-core
# VM, Python 3.11.7). It bounds the parsed list at 10^6 parts, about
# 8 MB, before an exponent token like '2^999999999' is expanded.
_MAX_PARSED_SIZE = 10**6

# Largest n the command line's table builds. The table runs over every
# partition of 2n: n = 20 takes 0.86 s at 39 MB, n = 25 4.1 s at 141 MB
# (Python 3.11.7), and the count grows about 1.4x with each step of n.
_MAX_TABLE_N = 25


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate *parts* and return it as a canonical partition tuple.

    Raises ValueError unless the parts are positive integers in weakly
    decreasing order. A part must be an integer type (anything
    operator.index accepts): floats and strings are rejected, not
    truncated or parsed.
    """
    items = iter(parts)  # a non-iterable is still a TypeError
    try:
        lam = tuple(map(operator.index, items))
    except TypeError as exc:
        raise ValueError(f"partition parts must be integers: {exc}") from None
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


@cache
def _bounded(n: int, cap: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@cache
def _bounded_distinct(n: int, cap: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _bounded_distinct(n - first, first - 1):
            out.append((first,) + rest)
    return tuple(out)


def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> generate_partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bounded(n, n)


def generate_distinct_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n with pairwise distinct parts, reverse-lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bounded_distinct(n, n)


def double(alpha: Iterable[int]) -> Partition:
    """Double every part: (3, 1) -> (6, 2)."""
    return tuple(2 * p for p in as_partition(alpha))


def double_hook(alpha: Iterable[int]) -> Partition:
    """The partition of 2n built from a distinct-part partition of n.

    Its i-th part is alpha_i + i and its i-th leading diagonal hook
    length is 2 * alpha_i; below the diagonal it is determined by the
    column heights alpha_i + i - 1. Raises RepeatedPartsError unless
    the parts of alpha are pairwise distinct.

    >>> double_hook((5, 2, 1))
    (6, 4, 4, 1, 1)
    """
    a = as_partition(alpha)
    if len(set(a)) != len(a):
        raise RepeatedPartsError(f"parts must be distinct, got {a}")
    k = len(a)
    if k == 0:
        return ()
    rows = [a[i] + i + 1 for i in range(k)]
    heights = [a[j] + j for j in range(k)]
    rows.extend(sum(1 for h in heights if h > r) for r in range(k, heights[0]))
    return tuple(rows)


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose the Young diagram: (4, 1, 1) -> (3, 1, 1, 1)."""
    return _conjugate(as_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """conjugate for a tuple already known to be a partition.

    Walks the columns left to right once: the height h of column j is
    the number of parts longer than j, and it only ever shrinks.
    """
    conj: list[int] = []
    h = len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[h - 1] <= j:
            h -= 1
        conj.append(h)
    return tuple(conj)


def distinct_part_count(lam: Iterable[int]) -> int:
    """Number of distinct part values."""
    return len(set(as_partition(lam)))


def repeated_part_count(lam: Iterable[int]) -> int:
    """Number of part values that occur at least twice."""
    return sum(1 for m in Counter(as_partition(lam)).values() if m >= 2)


def drop_count(gamma: Iterable[int]) -> int:
    """Number of indices i with gamma_i > gamma_{i+1} + 1.

    The part after the last one is taken to be 0, so a final part of at
    least 2 counts as a drop.

    >>> drop_count((5, 3, 1))
    2
    """
    gam = as_partition(gamma)
    count = 0
    for i, p in enumerate(gam):
        nxt = gam[i + 1] if i + 1 < len(gam) else 0
        if p > nxt + 1:
            count += 1
    return count


def count_even_shifts(
    lam: Iterable[int],
    include: Iterable[int],
    exclude: Iterable[int] = (),
) -> int:
    """Count k >= 0 such that every include value, shifted by 2k, is a
    part value of lam and no exclude value, shifted by 2k, is one.

    Membership is tested against the set of part values, so repeated
    parts count once. Raises EmptyIncludeSetError when include is empty
    (the count would be infinite).
    """
    lam = as_partition(lam)
    inc = {int(x) for x in include}
    exc = {int(y) for y in exclude}
    if not inc:
        raise EmptyIncludeSetError("include set must be nonempty for a finite count")
    values = set(lam)
    if not values:
        return 0
    top = (max(values) - min(inc)) // 2
    count = 0
    for k in range(top + 1):
        if all(x + 2 * k in values for x in inc) and not any(
            y + 2 * k in values for y in exc
        ):
            count += 1
    return count


def irreducible_dimension(lam: Iterable[int]) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    lam = as_partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return math.factorial(n) // denom


def centralizer_order(mu: Iterable[int]) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    mu = as_partition(mu)
    out = 1
    for value, mult in Counter(mu).items():
        out *= value**mult * math.factorial(mult)
    return out


# Python's int() and str() refuse numbers of more digits than
# sys.get_int_max_str_digits() allows (4300 by default, at least 640
# when set); _parse_digits and _clip_int work round that limit
_CHUNK = 600


def _parse_digits(text: str) -> int:
    """The int that text spells in ASCII digits, spaces around allowed.

    Reads every length the same way, past the digits int() takes.
    Raises ValueError on anything else: int() alone would also take
    '1_1', '+3' and digits of other scripts, such as Arabic-Indic or
    fullwidth ones.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number in the digits 0-9: {_clip(text)!r}")
    return _digits_value(digits)


def _digits_value(digits: str) -> int:
    """The int of a string of ASCII digits, split into halves down to
    _CHUNK digits, so the cost grows as fast as int multiplication."""
    if len(digits) <= _CHUNK:
        return int(digits)
    half = len(digits) // 2
    return _digits_value(digits[:-half]) * 10**half + _digits_value(digits[-half:])


def _clip(text: str) -> str:
    """text as an error line echoes it: the first 40 characters, and
    '...' when there are more."""
    return text if len(text) <= 40 else text[:40] + "..."


def _clip_int(n: int) -> str:
    """_clip of the decimal digits of n >= 0, however many there are."""
    # n has more than cut + 40 digits, so dropping cut of them keeps the
    # first 40 and the '...'
    cut = int(n.bit_length() * math.log10(2)) - 45
    return _clip(str(n // 10**cut if cut > 0 else n))


def parse_partition(text: str) -> Partition:
    """Parse the shared command-line syntax for partitions.

    Comma-separated positive integers in the digits 0-9, in weakly
    decreasing order, for example '6,4,4,1,1'. An exponent token like
    '4^2' repeats a part.
    The empty string and '-' both denote the empty partition. Raises
    PartitionParseError on anything else, and ResourceBoundError when
    the size is above _MAX_PARSED_SIZE, before any part is repeated.
    """
    s = text.strip()
    if s in ("", "-"):
        return ()
    runs: list[tuple[int, int]] = []
    for token in s.split(","):
        token = token.strip()
        base, sep, exp = token.partition("^")
        try:
            value = _parse_digits(base)
            count = _parse_digits(exp) if sep else 1
            if value < 1 or count < 1:
                raise ValueError
        except ValueError:
            bad = f"bad partition token {_clip(token)!r}"
            raise PartitionParseError(bad) from None
        runs.append((value, count))
    size = sum(value * count for value, count in runs)
    if size > _MAX_PARSED_SIZE:
        raise ResourceBoundError(
            f"partition size {_clip_int(size)} exceeds the parse limit "
            f"{_MAX_PARSED_SIZE}"
        )
    parts = [value for value, count in runs for _ in range(count)]
    try:
        return as_partition(parts)
    except ValueError as exc:
        raise PartitionParseError(str(exc)) from None


def format_partition(lam: Iterable[int]) -> str:
    """Render a partition in the same syntax parse_partition accepts.

    Parts are always written out in full; exponent shorthand is accepted
    on input but never emitted.
    """
    lam = as_partition(lam)
    if not lam:
        return "-"
    return ",".join(str(p) for p in lam)
