"""Table 1 of the paper and the closed forms read off it, loaded on
first use.

The (n-1, 1) closed form and the table for (n-2, 1, 1) and (n-2, 2)
are read off one per-row rule. The odd parts of lam, a partition of
2n, put lam in one row of the paper's Table 1 (_table_row), and
_row_multiplicity gives that row's multiplicity for each of the three
nu; _table builds the lam of each row directly from their odd parts,
skipping the rows a nu prices at 0 and never forming the other
partitions of 2n. The (2, 1^(n-2)) closed form lives here too.

formulas keeps the public entry points table_row_class,
table_multiplicity, phi_hook_depth1_closed and
phi_two_one_column_closed, and table_nu and TABLE_NU_KINDS, which the
command line reads at import. Each entry point checks its arguments,
then imports this module and calls it with the checked values: only
table_multiplicity and phi_two_one_column_closed run a body of the same
name here, phi_hook_depth1_closed reads _table and table_row_class
_table_row. The table command imports _table in its handler. So a
process that never asks for Table 1 or these closed forms never
compiles them, and this module imports nothing of formulas.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvalidShapeError
from .expansions import SchurExpansion
from .partitions import (
    Partition,
    _clip_int,
    _conjugate,
    count_even_shifts,
    distinct_part_count,
    double_hook,
    drop_count,
    generate_distinct_partitions,
    generate_partitions,
    repeated_part_count,
)


def _addable_pairs(t: Partition) -> set[Partition]:
    """Partitions obtained from t by adding two cells in distinct
    columns, skipping pairs that sit at the two ends of one leading
    diagonal hook of t (one extending the arm, the other the leg).

    One add-a-cell step applied twice reaches every such pair: added
    upper cell first, a pair passes through a partition."""
    conj = _conjugate(t)
    hook_ends = {
        frozenset(((i, t[i]), (conj[i], i))) for i in range(len(t)) if t[i] > i
    }

    def add_cell(shape: Partition):
        # every shape plus one cell, with that cell's (row, column)
        for r, c in enumerate(shape + (0,)):
            if r == 0 or shape[r - 1] > c:
                yield shape[:r] + (c + 1,) + shape[r + 1 :], (r, c)

    out: set[Partition] = set()
    for once, first in add_cell(t):
        for twice, second in add_cell(once):
            if first[1] != second[1] and frozenset((first, second)) not in hook_ends:
                out.add(twice)
    return out


def phi_two_one_column_closed(n: int) -> SchurExpansion:
    """The body of formulas.phi_two_one_column_closed, for an n it has
    checked."""
    acc: dict[Partition, int] = {}
    for gamma in generate_distinct_partitions(n):
        c = drop_count(gamma) - 1
        if c:
            lam = double_hook(gamma)
            acc[lam] = acc.get(lam, 0) + c
    targets: set[Partition] = set()
    for alpha in generate_distinct_partitions(n - 1):
        targets |= _addable_pairs(double_hook(alpha))
    for mu in targets:
        acc[mu] = acc.get(mu, 0) + 1
    return SchurExpansion._trusted(acc)


# Table 1's rows, keyed by how often each odd part value occurs in lam,
# sorted: (1, 1) is two odd parts of different values, (2,) two equal
# ones. Any other pattern is "other".
_TABLE_ROWS = {
    (): "all-even",
    (1, 1): "2-odd-distinct",
    (2,): "2-odd-equal",
    (1, 1, 1, 1): "4-odd-distinct",
    (1, 1, 2): "4-odd-one-pair",
    (2, 2): "4-odd-two-pairs",
}


def _table_row(lam: Partition) -> str:
    """The body of formulas.table_row_class, for a partition it has
    checked."""
    odd = [p for p in lam if p % 2]
    if len(odd) > 4:  # most partitions, and no row has more
        return "other"
    return _TABLE_ROWS.get(tuple(sorted(odd.count(v) for v in set(odd))), "other")


def table_multiplicity(lam: Partition, kind: str, n: int) -> int:
    """The body of formulas.table_multiplicity, for the partition lam,
    the kind and the size n of its nu that it has checked."""
    if sum(lam) != 2 * n:
        raise InvalidShapeError(
            f"lam must have size {_clip_int(2 * n)}, got {_clip_int(sum(lam))}"
        )
    return _row_multiplicity(lam, _table_row(lam), kind)


def _odd_parts(total: int, count: int, top: int) -> Iterable[Partition]:
    """The partitions into exactly count odd parts, each at most top,
    whose sum is at most total."""
    if not count:
        yield ()
        return
    largest = min(top, total - count + 1)
    for first in range(largest - 1 + largest % 2, 0, -2):
        for rest in _odd_parts(total - first, count - 1, first):
            yield (first,) + rest


def _table(kind: str, n: int) -> tuple[SchurExpansion, dict[Partition, str]]:
    """For a kind and n already checked, the expansion of the
    multiplicities _row_multiplicity gives, and the Table 1 row of each
    lam in it.

    Each row's lam are built directly: the row's 0, 2 or 4 odd parts,
    of sum s, merged with 2*mu for every partition mu of (2n - s) / 2.
    Only the rows in _PRICED_ROWS[kind] are built, so no partition of
    2n outside them is formed: at n = 25 that is 159,677 of the 204,226
    outside every row, and 28,601 more for 'n-1,1'.
    """
    mults: dict[Partition, int] = {}
    rows: dict[Partition, str] = {}
    for count in (0, 2, 4):
        for odd in _odd_parts(2 * n, count, 2 * n):
            row = _table_row(odd)
            if row not in _PRICED_ROWS[kind]:  # "other", or priced at 0
                continue
            for mu in generate_partitions(n - sum(odd) // 2):
                lam = tuple(sorted([*odd, *[2 * p for p in mu]], reverse=True))
                mult = _row_multiplicity(lam, row, kind)
                if mult:
                    mults[lam], rows[lam] = mult, row
    return SchurExpansion._trusted(mults), rows


# The Table 1 rows where a kind's multiplicity can be above 0; on the
# others (and "other") _row_multiplicity is 0 whatever lam is, so _table
# never builds their lam.
_PRICED_ROWS = {
    "n-1,1": {"all-even", "2-odd-distinct"},
    "n-2,1,1": set(_TABLE_ROWS.values()) - {"4-odd-two-pairs"},
    "n-2,2": set(_TABLE_ROWS.values()) - {"2-odd-equal"},
}


def _row_multiplicity(lam: Partition, row: str, kind: str) -> int:
    """The multiplicity of s_lam, lam a checked partition of 2n in the
    given Table 1 row, for nu = (n-2, 1, 1) (kind 'n-2,1,1'), (n-2, 2)
    ('n-2,2') or, by the paper's corollary, (n-1, 1) ('n-1,1')."""
    if row not in _PRICED_ROWS[kind]:
        return 0
    hook_kind = kind == "n-2,1,1"
    if row == "all-even":
        a = distinct_part_count(lam)
        if kind == "n-1,1":
            return a - 1
        if hook_kind:
            return a * (a - 1) // 2 - a + 1
        return a * (a - 2) + count_even_shifts(lam, {4}, {2}) + repeated_part_count(lam)
    if kind == "n-1,1":  # 2-odd-distinct
        return 1
    if row == "2-odd-distinct":
        if hook_kind:
            return (
                count_even_shifts(lam, {3}, {2})
                + 2 * count_even_shifts(lam, {2}, {1})
                + count_even_shifts(lam, {1, 2})
                - 1
            )
        return (
            2 * count_even_shifts(lam, {2}, {1})
            + count_even_shifts(lam, {1, 2})
            + count_even_shifts(lam, {3}, {1, 2})
            - 1
        )
    if row == "2-odd-equal":  # n-2,1,1
        return count_even_shifts(lam, {3}, {2}) + count_even_shifts(lam, {2}, {1})
    # the 4-odd rows: two pairs for n-2,2 only
    return 3 if row == "4-odd-distinct" else 1
