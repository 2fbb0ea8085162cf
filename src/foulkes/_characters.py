"""The Murnaghan-Nakayama strip engine behind the oracle and the
power-sum basis change, loaded on first use.

The strips are kept in one table per (m, k), a list indexed by the
position of the shape in generate_partitions(m), whose rows
_add_strip_layer fills the first time a column or a sum reaches that
shape; it reads a row by index, so no shape is hashed per entry. A row
is filled on the abacus (James and Kerber, 2.7), with each shape one
int whose set bits are its beads (_beads, memoized per degree in
_masks): the beads that can move up k places are a few bit operations
on the mask, the sign of each strip is the parity of a bit count, and
the shape it makes is looked up by its mask in _index, which also
finds the position of the shape that mn_character or _class_sums is
given. s_nu in power sums is memoized on nu as integers over the
common denominator |nu|! (_class_sums). The bodies of the two basis
changes, schur_to_powersum and powersum_to_schur, live here too, and
_divide_exactly ends an integer basis change.

expansions keeps the column memo _chi, which imports the strip step
on a miss, and the public mn_character, powersum_to_schur and
schur_to_powersum, each of which imports this module when called and
runs its body here; the oracle imports _class_sums and _divide_exactly
the same way, and calls the public powersum_to_schur. So a process
that runs neither the oracle nor a character nor a basis change never
compiles this module. Like the oracle, it imports neither lr nor
formulas.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cache
from math import factorial, lcm

from .errors import DegreeMismatchError, NonIntegerCoefficientError
from .expansions import PowerSumExpansion, SchurExpansion, _check_basis, _chi
from .partitions import (
    Partition,
    _clip_parts,
    as_partition,
    centralizer_order,
    generate_partitions,
)


def _beads(lam: Partition, n: int) -> int:
    """The abacus of lam on n >= len(lam) beads as a bit mask: the bead
    of row j sits at place lam[j] - j + n - 1, so the empty rows past
    len(lam) fill places 0 .. n - len(lam) - 1."""
    mask = (1 << (n - len(lam))) - 1
    for j, part in enumerate(lam):
        mask |= 1 << (part - j + n - 1)
    return mask


@cache
def _masks(n: int) -> tuple[int, ...]:
    """The bead mask on n beads (_beads) of every partition of n, in
    the order of generate_partitions(n)."""
    return tuple([_beads(lam, n) for lam in generate_partitions(n)])


@cache
def _index(n: int) -> dict[int, int]:
    """Position in generate_partitions(n) of every partition of n, keyed
    by its bead mask on n beads."""
    return {mask: i for i, mask in enumerate(_masks(n))}


# The +1 positions, then the -1 positions, of one row of strips.
_StripRow = tuple[tuple[int, ...], tuple[int, ...]]


def _strip_row(mask: int, m: int, k: int) -> _StripRow:
    """The shapes rho plus a k-cell border strip, rho the partition of m
    whose bead mask on m beads is mask, as two tuples of positions in
    generate_partitions(m + k): those of sign +1, then those of sign -1.

    On the abacus of n = m + k beads, where the mask gains k empty
    rows at the bottom, a k-cell border strip added is a bead at place
    b moved up to the free place b + k: the beads that can move are the
    set bits of mask & ~(mask >> k). The sign is (-1) to the number of
    beads jumped, those at places b + 1 .. b + k - 1, and the new mask,
    which has n beads for a shape of n cells, is looked up in
    _index(n). The beads are walked from the highest place down, so
    each tuple lists its shapes by the row of the bead moved, top row
    first. Never empty: the bead of the first empty row can always move
    up.
    """
    n = m + k
    mask = mask << k | ((1 << k) - 1)
    index = _index(n)
    jumped = (1 << (k - 1)) - 1
    move = 1 | 1 << k
    rows: tuple[list[int], list[int]] = ([], [])
    free = mask & ~(mask >> k)
    while free:
        b = free.bit_length() - 1
        free ^= 1 << b
        odd = ((mask >> (b + 1)) & jumped).bit_count() & 1
        rows[odd].append(index[mask ^ move << b])
    return tuple(rows[0]), tuple(rows[1])


@cache
def _strip_table(m: int, k: int) -> list[_StripRow | None]:
    """Row j holds the _strip_row of generate_partitions(m)[j] and k,
    or None until _add_strip_layer first reaches shape j. Rows fill
    lazily: a full table of every shape would enumerate strips no column
    ever reaches."""
    return [None] * len(generate_partitions(m))


def _add_strip_layer(
    column: Iterable[tuple[int, int]], m: int, k: int, out: list[int]
) -> None:
    """The strip step shared by _chi and powersum_to_schur: for every
    non-zero (j, value) of column, a position j in
    generate_partitions(m), add value into out[i] for every i of the
    plus row of the _strip_row of generate_partitions(m)[j] and k and
    subtract it for every i of the minus row, filling that row of
    _strip_table(m, k) the first time it is met."""
    table = _strip_table(m, k)
    for j, value in column:
        if value:
            row = table[j]
            if row is None:
                row = table[j] = _strip_row(_masks(m)[j], m, k)
            plus, minus = row
            for i in plus:
                out[i] += value
            for i in minus:
                out[i] -= value


def _chi_at(mu: Partition, i: int) -> int:
    """chi^lam_mu for the lam at position i of generate_partitions(|mu|),
    bisected in the column's ascending positions."""
    positions, values = _chi(mu)
    at = bisect_left(positions, i)
    return values[at] if at < len(positions) and positions[at] == i else 0


def mn_character(lam: Iterable[int], mu: Iterable[int]) -> int:
    """The body of expansions.mn_character."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = sum(lam)
    if n != sum(mu):
        raise DegreeMismatchError(f"|{_clip_parts(lam)}| != |{_clip_parts(mu)}|")
    return _chi_at(mu, _index(n)[_beads(lam, n)])


@cache
def _class_sums(nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_nu in power sums over the common denominator |nu|!: every mu
    with chi^nu_mu != 0 and its numerator chi^nu_mu * |nu|! / z_mu, the
    character value times the size of the class mu."""
    n = sum(nu)
    i = _index(n)[_beads(nu, n)]
    denom = factorial(n)
    out = []
    for mu in generate_partitions(n):
        ch = _chi_at(mu, i)
        if ch:
            out.append((mu, ch * (denom // centralizer_order(mu))))
    return tuple(out)


def schur_to_powersum(nu: Iterable[int]) -> PowerSumExpansion:
    """The body of expansions.schur_to_powersum: _class_sums(nu) over
    |nu|!, as Fractions."""
    from fractions import Fraction

    nu = as_partition(nu)
    denom = factorial(sum(nu))
    return PowerSumExpansion._trusted(
        {mu: Fraction(c, denom) for mu, c in _class_sums(nu)}
    )


def powersum_to_schur(f: PowerSumExpansion) -> SchurExpansion:
    """The body of expansions.powersum_to_schur, which describes the
    integer totals and the grouping by largest part."""
    _check_basis(PowerSumExpansion, f)
    n = f.degree
    if n is None:
        return SchurExpansion()
    denom = lcm(*(c.denominator for c in f._terms.values()))
    totals = [0] * len(generate_partitions(n))
    groups: dict[int, dict[Partition, int]] = {}
    for mu, c in f._terms.items():
        coeff = c.numerator * (denom // c.denominator)
        if mu:
            groups.setdefault(mu[0], {})[mu[1:]] = coeff
        else:
            totals[0] = coeff
    for r, rests in groups.items():
        inner = [0] * len(_strip_table(n - r, r))
        for rest, coeff in rests.items():
            for j, ch in zip(*_chi(rest)):
                inner[j] += coeff * ch
        _add_strip_layer(enumerate(inner), n - r, r, totals)
    shapes = generate_partitions(n)
    if denom == 1:
        return SchurExpansion._trusted(
            {shapes[i]: total for i, total in enumerate(totals) if total}
        )
    return _divide_exactly(zip(shapes, totals), denom)


def _divide_exactly(
    totals: Iterable[tuple[Partition, int]], denom: int
) -> SchurExpansion:
    """The Schur expansion with coefficient total / denom for every
    (lam, total) in totals. Raises NonIntegerCoefficientError at the
    first lam, in the order of totals, whose division leaves a
    remainder."""
    out: dict[Partition, int] = {}
    for lam, total in totals:
        if total:
            quotient, remainder = divmod(total, denom)
            if remainder:
                from fractions import Fraction

                raise NonIntegerCoefficientError(
                    f"coefficient of s_{lam} is {Fraction(total, denom)}"
                )
            out[lam] = quotient
    return SchurExpansion._trusted(out)
