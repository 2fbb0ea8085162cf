"""Littlewood-Richardson coefficients and products in the Schur basis.

Two independent enumerations live here on purpose. lr_coefficient
counts fillings of a fixed skew shape straight from the definition,
visiting cells in reverse reading order (right to left within a row,
top row first) with an explicit stack, so the lattice-word constraint
can be checked exactly at every step and no recursion depth grows with
the number of cells. schur_multiply expands whole products through
chains of horizontal strips (_product_terms), which only ever visits
result partitions with a nonzero coefficient; the test suite
cross-checks the two engines against each other.

The strip enumeration costs more with every strip, so for each pair
of terms schur_multiply makes the factor with fewer rows the one whose
rows become strips. It then groups the pairs by that strip shape and
hands _product_terms each group whole: the other factors of the group
with their summed weights, so symmetric pairs merge. The strips are
added level by level: because the lattice condition links each strip
only to the one before it, chains that reach the same shape with the
same bounds for the next strip are merged and extended once, from
whichever source of the group they start (see _product_terms). Each
strip visits only its addable rows and bounds every row's count from
below by what the rows under it can still take. A strip after the
first starts below the top cell of the strip before, as the lattice
condition closes every row above, and a strip of one or two cells
after the first, most of all the states, is placed directly, without
a search.

The memo of _product_terms, keyed on the group, lives as long as the
process and holds most of the memory of the closed formulas, so each
entry is compact: a tuple of shapes and a parallel tuple of int
coefficients, where every shape is the one copy kept by _shape.
schur_multiply adds these shapes as they are, so its results share
them too. An in-process sweep of the formulas to |nu| = 12 stores
about 63k terms in 472 groups (110k terms in 2591 entries with one
entry per pair) and peaks at 18.6 MB RSS (Python 3.11).
"""

from __future__ import annotations

from functools import cache

from .expansions import SchurExpansion
from .partitions import Partition, as_partition


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def lr_coefficient(
    lam: "Partition | list[int]",
    mu: "Partition | list[int]",
    nu: "Partition | list[int]",
) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu, nu}.

    Counts semistandard fillings of the skew shape lam/mu with content
    nu whose reverse reading word is a lattice word. Returns 0 whenever
    the sizes do not satisfy |lam| = |mu| + |nu| or mu is not contained
    in lam.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    nu = as_partition(nu)
    if sum(lam) != sum(mu) + sum(nu) or not _contains(lam, mu):
        return 0
    if not nu:
        return 1
    k = len(nu)
    cells: list[tuple[int, int]] = []
    for r in range(len(lam)):
        inner = mu[r] if r < len(mu) else 0
        cells.extend((r, c) for c in range(lam[r] - 1, inner - 1, -1))
    counts = [0] * (k + 1)
    grid: dict[tuple[int, int], int] = {}

    def bounds(idx: int) -> tuple[int, int]:
        # entries weakly increase to the right, strictly down a column
        r, c = cells[idx]
        right = grid.get((r, c + 1))
        above = grid.get((r - 1, c)) if r else None
        return (
            above + 1 if above is not None else 1,
            right if right is not None else k,
        )

    # Depth-first over the cells with an explicit stack: next_entry[idx]
    # is the smallest entry still to try at cells[idx], high[idx] the
    # largest allowed there.
    last = len(cells) - 1
    next_entry = [0] * len(cells)
    high = [0] * len(cells)
    next_entry[0], high[0] = bounds(0)
    total = 0
    idx = 0
    while idx >= 0:
        for e in range(next_entry[idx], high[idx] + 1):
            # content nu, and the lattice word: after placing, count(e)
            # may not exceed count(e-1)
            if counts[e] < nu[e - 1] and (e == 1 or counts[e] < counts[e - 1]):
                break
        else:
            # nothing fits here: back up and take the previous entry out
            idx -= 1
            if idx >= 0:
                counts[grid.pop(cells[idx])] -= 1
            continue
        next_entry[idx] = e + 1
        if idx == last:  # a complete filling
            total += 1
            continue
        counts[e] += 1
        grid[cells[idx]] = e
        idx += 1
        next_entry[idx], high[idx] = bounds(idx)
    return total


@cache
def _shape(lam: Partition) -> Partition:
    """The one shared copy of the partition lam.

    Every shape _product_terms stores passes through here, so equal
    shapes in different memoized products, and the keys of the
    products built from them, are one tuple object.
    """
    return lam


@cache
def _product_terms(
    sources: tuple[tuple[Partition, int], ...], b: Partition
) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """Expansion of the sum of w * s_a * s_b over the (a, w) in sources,
    as parallel tuples (shapes, coefficients).

    sources is the group key: distinct shapes a with non-zero int
    weights w, sorted in reverse order. schur_multiply makes one group
    of every pair of its factors that share the strip shape b, so
    symmetric pairs and repeated sources cost one entry.

    The shapes are in canonical (reverse-lex) order, each with a
    non-zero coefficient, and each is the shared copy held by _shape:
    a fresh tuple per term would cost about 155 B of memo per term,
    the shared copy about 48 B (every group needed by the factor
    products with a + b <= 10).

    Counts chains a = k0 <= k1 <= ... where step i adds a horizontal
    strip of b_i cells, subject to the row-prefix lattice condition:
    through any row r, strip i may not contain more cells in rows 1..r
    than strip i-1 holds in rows 1..r-1. The coefficient of lam is the
    number of chains that end in lam, each chain counted with the
    weight of its source.

    The chains are merged level by level rather than walked one by
    one. The lattice condition links strip i+1 to strip i and to no
    earlier strip, so what can follow strip i depends on two things
    only: the shape k_i, and the bound strip i puts on each addable row
    of k_i (its cells strictly above that row, capped at b_{i+1}). One
    dict per level maps each such state to the weighted number of
    chains that reach it, and each state is extended once, however many
    chains share it and from whichever sources they start: the first
    level holds every source with its weight. The key holds the bounds
    as the top b_{i+1} cells of strip i, as (row, cells) pairs. Given
    the shape that is the same information: a row just under a row the
    strip touched is always addable, so every step of the bounds shows
    on an addable row.

    Each strip visits only the rows that can take a cell: the first
    row, every row below a strictly longer row, and the new row below
    the shape. A row's count runs down from its capacity (the gap to
    the row above, within the lattice bound) to the part of the strip
    that the addable rows below cannot absorb, read off a prefix sum of
    their capacities, so no branch dies at the bottom of the shape.
    Rows whose lattice bound is used up are passed over without a
    call, and a strip that is complete leaves the rows below alone.
    Skipping the other rows keeps the lattice check exact because the
    prefix of the previous strip never decreases. A strip after the
    first is not offered the row of the previous strip's top cell or
    any row above it at all: their bound is 0, and the row just below
    that cell is always addable, so the scan starts there. The work
    grows with the number of strips, which is why schur_multiply
    passes the factor with fewer rows as b.

    A strip of one or two cells after the first skips the search (in
    the formula_sweep pool 50,711 of the 61,053 states, 36,904 of them
    on the last strip). The bound through a row is 0 down to the
    previous strip's top cell, 1 down to its second cell and 2 below,
    so one cell goes on any addable row below the top cell; two cells
    go on one row below the second cell whose gap is at least 2, or one
    each on addable rows r1 < r2 with r1 below the top cell and r2
    below the second. A row below one that took a cell stays addable,
    and no two of these cells share a column. Such a strip is its own
    key for the next one, cut to its top cell when the next strip has
    one cell.
    """
    if not b:
        return tuple(_shape(a) for a, _ in sources), tuple(w for _, w in sources)
    # chains[(shape, seen)]: the weighted number of chains of the strips
    # so far that end in shape with seen as the last strip's top cells
    chains: dict[tuple[Partition, tuple[tuple[int, int], ...]], int] = {
        (a, ()): w for a, w in sources
    }
    counts: dict[Partition, int] = {}  # the chains of all the strips
    for entry, need in enumerate(b):
        # the next strip can use at most its own size of this strip's
        # lattice bound, so only that many top cells enter the key
        keep = b[entry + 1] if entry < len(b) - 1 else 0
        merged: dict[tuple[Partition, tuple[tuple[int, int], ...]], int] = {}
        direct = entry and need < 3
        for (shape, prev), count in chains.items():
            if direct:
                # a strip of one or two cells after the first, placed
                # without fill (see above): one cell on row r, and the
                # extra one, if any, on r or a later row r2; top and
                # second are the rows of prev's top and second cells
                top, second = prev[0][0], prev[-1][0]
                new = list(shape)
                new.append(0)
                rows = [r for r in range(top + 1, len(new)) if new[r - 1] > new[r]]
                extra = need - 1
                for i, r in enumerate(rows):
                    new[r] += 1
                    for r2 in rows[i:] if extra else (r,):
                        if extra and (r2 <= second or new[r2 - 1] == new[r2]):
                            continue
                        new[r2] += extra
                        lam = tuple(new) if new[-1] else tuple(new[:-1])
                        if keep:  # the strip's top keep cells
                            cells = ((r, keep),) if r2 == r else ((r, 1), (r2, 1))
                            key = (lam, cells[:keep])
                            merged[key] = merged.get(key, 0) + count
                        else:
                            counts[lam] = counts.get(lam, 0) + count
                        new[r2] -= extra
                    new[r] -= 1
                continue
            # One pass over the addable rows: the first row, every row
            # below a strictly longer one, and the new row under the
            # shape. caps[i] is what rows[i] can take and upto[i] what
            # the rows scanned up to rows[i] take together, row 0 aside.
            # lattice[i] is the most cells this strip may hold through
            # row rows[i]: the cells of prev above that row. prev holds
            # exactly need cells, so lattice[i] - placed never exceeds
            # the cells left to place. The first strip has no lattice
            # bound; for a later one the scan starts just below prev's
            # top cell, as the rows above are closed.
            if entry:
                start = prev[0][0] + 1
                rows, caps, upto, lattice = [], [], [], []
            else:
                start = 1
                rows, caps, upto, lattice = [0], [need], [0], [need]
            total = above = j = 0
            for r, (x, y) in enumerate(
                zip(shape[start - 1 :], shape[start:] + (0,)), start
            ):
                if x > y:
                    rows.append(r)
                    caps.append(x - y)
                    total += x - y
                    upto.append(total)
                    while j < len(prev) and prev[j][0] < r:
                        above += prev[j][1]
                        j += 1
                    lattice.append(above if entry else need)
            new = list(shape)
            new.append(0)
            seen: list[tuple[int, int]] = []

            def fill(i: int, remaining: int, placed: int) -> None:
                # rows the lattice bound already closes take no cell
                cap = lattice[i] - placed
                while cap <= 0:
                    if remaining + upto[i] > total:
                        return
                    i += 1
                    cap = lattice[i] - placed
                if caps[i] < cap:
                    cap = caps[i]
                # what the rows below rows[i] cannot absorb: they take
                # total - upto[i] cells at most
                low = remaining + upto[i] - total
                r = rows[i]
                visible = keep - placed
                for s in range(cap, low - 1 if low > 0 else 0, -1):
                    new[r] += s
                    if visible > 0:
                        seen.append((r, s if s < visible else visible))
                    if s == remaining:  # the strip is complete
                        lam = tuple(new) if new[-1] else tuple(new[:-1])
                        if keep:
                            key = (lam, tuple(seen))
                            merged[key] = merged.get(key, 0) + count
                        else:  # the last strip: the chain ends in lam
                            counts[lam] = counts.get(lam, 0) + count
                    else:
                        fill(i + 1, remaining - s, placed + s)
                    if visible > 0:
                        seen.pop()
                    new[r] -= s
                if low <= 0:
                    fill(i + 1, remaining, placed)

            fill(0, need, 0)
        chains = merged
    order = sorted((lam for lam, c in counts.items() if c), reverse=True)
    return tuple(map(_shape, order)), tuple(counts[lam] for lam in order)


def schur_multiply(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Product of two Schur expansions, expanded back into the basis.

    Bilinear: the coefficient of s_lam is the sum over (mu, nu) of
    f(mu) * g(nu) * c^lam_{mu, nu}.
    """
    if not isinstance(f, SchurExpansion) or not isinstance(g, SchurExpansion):
        raise TypeError("schur_multiply expects two SchurExpansion values")
    # the factor with fewer rows makes the strips, ties go one fixed
    # way; the pairs with one strip shape form one weighted group
    groups: dict[Partition, dict[Partition, int]] = {}
    for mu, cf in f._terms.items():
        for nu, cg in g._terms.items():
            if (len(nu), nu) <= (len(mu), mu):
                source, strips = mu, nu
            else:
                source, strips = nu, mu
            group = groups.setdefault(strips, {})
            group[source] = group.get(source, 0) + cf * cg
    acc: dict[Partition, int] = {}
    for strips, group in groups.items():
        sources = tuple(sorted(((a, w) for a, w in group.items() if w), reverse=True))
        if sources:
            for lam, c in zip(*_product_terms(sources, strips)):
                acc[lam] = acc.get(lam, 0) + c
    return SchurExpansion._trusted(acc)
