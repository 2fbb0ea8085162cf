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
from typing import Iterable, Sequence

from .errors import (
    EmptyIncludeSetError,
    InvalidShapeError,
    PartitionParseError,
    RepeatedPartsError,
    ResourceBoundError,
)

Partition = tuple[int, ...]

# Largest partition size parse_partition builds. Every route stops far
# below it (the oracle cap, the formulas' running time), except lr on
# one-row and one-column shapes, which is linear in the size (1.5 s and
# 3.0 s for lr_coefficient at 10^6 on a 2-core VM, Python 3.11.7). It
# bounds the parsed list at 10^6 parts, about 8 MB, before an exponent
# token like '2^999999999' is expanded.
_MAX_PARSED_SIZE = 10**6


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate *parts* and return it as a canonical partition tuple.

    Raises ValueError unless the parts are integers, every one positive
    and each at most the one before it, with one message that echoes
    the parts as _clip_parts shows them. A part must be an integer type
    (anything operator.index accepts): floats and strings are rejected,
    not truncated or parsed.
    """
    items = iter(parts)  # a non-iterable is still a TypeError
    try:
        lam = tuple(map(operator.index, items))
    except TypeError as exc:
        raise ValueError(f"partition parts must be integers: {exc}") from None
    if lam and (lam[-1] < 1 or any(map(operator.lt, lam, lam[1:]))):
        shown = _clip_parts(lam)
        raise ValueError(f"parts must be positive and weakly decreasing, got {shown}")
    return lam


def _as_size(value: int, name: str, least: int = 0) -> int:
    """Check a size or index argument and return it as an int.

    Like a part, it must be an integer type (operator.index): a float or
    a str raises TypeError. Below least it raises InvalidShapeError,
    whose one message names the argument and shows the value as
    _clip_int does. Public functions call this before any memo, since
    a memo keyed on 4 also answers 4.0.
    """
    n = operator.index(value)
    if n < least:
        raise InvalidShapeError(f"{name} must be at least {least}, got {_clip_int(n)}")
    return n


def _as_name(value: str, name: str, allowed: tuple[str, ...]) -> str:
    """Check a name argument against the names it may take.

    Anything else raises ValueError, whose message echoes a str value
    as _clip does, so its length stays bounded.
    """
    if value in allowed:
        return value
    shown = repr(_clip(value)) if isinstance(value, str) else type(value).__name__
    raise ValueError(f"{name} must be one of {allowed}, got {shown}")


@cache
def _bounded(n: int, cap: int, gap: int) -> tuple[Partition, ...]:
    """The partitions of n with every part at most cap, reverse-lex.

    Each part is at least gap more than the part after it: gap 0 gives
    every partition, gap 1 those with distinct parts. One memo holds
    both kinds, keyed on (n, cap, gap).
    """
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _bounded(n - first, first - gap, gap):
            out.append((first,) + rest)
    return tuple(out)


def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order.

    >>> generate_partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    n = _as_size(n, "n")
    return _bounded(n, n, 0)


def generate_distinct_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n with pairwise distinct parts, reverse-lex order."""
    n = _as_size(n, "n")
    return _bounded(n, n, 1)


def double(alpha: Iterable[int]) -> Partition:
    """Double every part: (3, 1) -> (6, 2)."""
    return tuple(2 * p for p in as_partition(alpha))


def double_hook(alpha: Iterable[int]) -> Partition:
    """The partition of 2n built from a distinct-part partition of n.

    Its i-th part is alpha_i + i and its i-th leading diagonal hook
    length is 2 * alpha_i. Its first len(alpha) columns have heights
    alpha_i + i - 1, so its rows below the first len(alpha) are those
    of the conjugate of these heights. Raises RepeatedPartsError unless
    the parts of alpha are pairwise distinct.

    >>> double_hook((5, 2, 1))
    (6, 4, 4, 1, 1)
    """
    a = as_partition(alpha)
    if len(set(a)) != len(a):
        raise RepeatedPartsError(f"parts must be distinct, got {_clip_parts(a)}")
    heights = tuple(p + j for j, p in enumerate(a))
    return tuple(h + 1 for h in heights) + _conjugate(heights)[len(a) :]


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
    parts count once. The values must be integer types, as parts are.
    Raises EmptyIncludeSetError when include is empty (the count would
    be infinite).

    A counted shift 2k moves min(include) onto a part value, so each
    distinct part names at most one shift to test: past reading lam,
    the cost grows with the number of distinct parts times that of the
    include and exclude values, not with the size of the parts.
    """
    lam = as_partition(lam)
    inc = set(map(operator.index, include))
    exc = set(map(operator.index, exclude))
    if not inc:
        raise EmptyIncludeSetError("include set must be nonempty for a finite count")
    values = set(lam)
    low = min(inc)
    count = 0
    for v in values:
        shift = v - low  # the one shift 2k that moves low onto v
        if shift >= 0 and shift % 2 == 0 and all(x + shift in values for x in inc):
            count += not any(y + shift in values for y in exc)
    return count


def irreducible_dimension(lam: Iterable[int]) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    return _dimension(as_partition(lam))


def _dimension(lam: Partition) -> int:
    """irreducible_dimension for a partition already checked."""
    conj = _conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return math.factorial(sum(lam)) // denom


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
    """_clip of the decimal digits of n, and its sign, however many
    digits there are."""
    # n has more than cut + 40 digits, so dropping cut of them keeps the
    # first 40 and the '...'
    cut = int(n.bit_length() * math.log10(2)) - 45
    return _clip("-" * (n < 0) + str(abs(n) // 10**cut if cut > 0 else abs(n)))


def _clip_parts(parts: Sequence[int]) -> str:
    """parts as an error line echoes a partition: format_partition's
    syntax from at most the first 40 parts, clipped like a token."""
    return _clip(",".join(map(_clip_int, parts[:40])) or "-")


def parse_partition(text: str) -> Partition:
    """Parse the shared command-line syntax for partitions.

    Comma-separated positive integers in the digits 0-9, in weakly
    decreasing order, for example '6,4,4,1,1'. An exponent token like
    '4^2' repeats a part.
    The empty string and '-' both denote the empty partition. Raises
    PartitionParseError on anything else, naming the first bad token,
    and ResourceBoundError when the size is above _MAX_PARSED_SIZE.
    Both checks read the tokens as written, before any part is
    repeated; the tuple is built once, and as_partition is not called.
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
        if runs and value > runs[-1][0]:
            bad = f"bad partition token {_clip(token)!r}: exceeds the part before it"
            raise PartitionParseError(bad)
        runs.append((value, count))
    size = sum(value * count for value, count in runs)
    if size > _MAX_PARSED_SIZE:
        raise ResourceBoundError(
            f"partition size {_clip_int(size)} exceeds the parse limit "
            f"{_MAX_PARSED_SIZE}"
        )
    return tuple(value for value, count in runs for _ in range(count))


def format_partition(lam: Iterable[int]) -> str:
    """Render a partition in the same syntax parse_partition accepts.

    Parts are always written out in full; exponent shorthand is accepted
    on input but never emitted.
    """
    return _format(as_partition(lam))


def _format(lam: Partition) -> str:
    """format_partition for a partition already checked, as the package
    builds them."""
    return ",".join(map(str, lam)) if lam else "-"
