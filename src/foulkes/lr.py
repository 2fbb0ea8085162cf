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
added level by level under one lattice rule (Macdonald, Symmetric
Functions and Hall Polynomials, I.9): counting from the top, cell j of
a strip lies on a lower row than cell j of the strip before. As the
rule links each strip only to the one before it, chains that reach the
same shape with the same top cells in their last strip are merged and
extended once, from whichever source of the group they start (see
_product_terms). One loop places every strip, whatever its size: cell
by cell, top first, on the addable rows below the top cell of the strip
before, with an explicit stack, so no recursion depth grows with the
strip either.

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
    strip of b_i cells, subject to one lattice rule: counting from the
    top, cell j of strip i lies on a lower row than cell j of strip i-1.
    The first strip follows b_0 cells on a virtual row -1, which leave
    it free. The coefficient of lam is the number of chains that end in
    lam, each chain counted with the weight of its source.

    The chains are merged level by level rather than walked one by
    one. The rule links strip i+1 to strip i and to no earlier strip,
    and strip i+1 has b_{i+1} cells, so what can follow strip i depends
    on two things only: the shape k_i, and above, the rows of the top
    b_{i+1} cells of strip i, top first, as in (3, 3, 5). One dict per
    level maps each such state to the weighted number of chains that
    reach it, and each state is extended once, however many chains
    share it and from whichever sources they start: the first level
    holds every source with its weight. Through row r the rule lets a
    strip hold at most as many cells as above has entries on rows above
    r, so every row down to above[0] is closed and every strip scans
    from the row below it.

    One loop places every strip, cell by cell, top first, on the
    addable rows: row 0 (up to the whole strip), every row below a
    strictly longer row, and the new row below the shape. Cell j is
    tried on them in order, from the row of cell j - 1 down, and goes on
    one that lies below above[j], still has room (the gap to the row
    above) and leaves enough room on it and the rows below for the
    need - j - 1 cells still to come. That room check is the only
    pruning; once it fails it fails on every lower row too, so the loop
    takes cell j - 1 off and moves it one row down. Taking the rows in
    order gives every strip once, no branch dies at the bottom of the
    shape, and the rows down to above[0] are never visited. A placed
    strip costs about 2.6 steps of the loop when it has two cells and
    4-6 when it has four or more, so the work grows with the number and
    the size of the strips, which is why schur_multiply passes the
    factor with fewer rows as b.
    """
    if not b:
        return tuple(_shape(a) for a, _ in sources), tuple(w for _, w in sources)
    # chains[(shape, above)]: the weighted number of chains of the strips
    # so far that end in shape, with above the rows of the last strip's
    # top cells; the first strip follows one on the virtual row -1
    chains = {(a, (-1,) * b[0]): w for a, w in sources}
    counts: dict[Partition, int] = {}  # the chains of all the strips
    for i, need in enumerate(b):
        # the next strip is bounded by this one's top keep cells only
        keep = b[i + 1] if i + 1 < len(b) else 0
        merged: dict[tuple[Partition, tuple[int, ...]], int] = {}
        for (shape, above), count in chains.items():
            # the addable rows below above[0] and free[k], what rows[k] can
            # still take: row 0 the whole strip, any other the gap to the
            # row above; upto[k] is what rows[:k + 1] take together
            start = above[0] + 1
            tail = shape[start:] + (0,)
            x = shape[start - 1] if start else tail[0] + need
            rows, free, upto = [], [], []
            total = 0
            for r, y in enumerate(tail, start):
                if x > y:
                    rows.append(r)
                    free.append(x - y)
                    total += x - y
                    upto.append(total)
                x = y
            free.append(0)  # past the last row: no room
            upto.append(total)
            # cell j fits on rows[k] if free[k] and the rows below hold
            # need - j cells: free[k] + total - upto[k] >= need - j
            spare = total - need
            new = [*shape, 0]
            at = [0] * need  # at[j]: the index in rows of cell j
            top = [0] * need  # top[j]: the row of cell j
            j = k = 0
            while True:
                if free[k] + j + spare >= upto[k]:
                    r = rows[k]
                    new[r] += 1
                    top[j] = r
                    if j + 1 < need:
                        # the last cell is taken off at once, so only the
                        # others book their room; the next cell starts on
                        # this row if it has room left, and below
                        # above[j], as rows[-1] always is
                        free[k] -= 1
                        at[j] = k
                        j += 1
                        if not free[k]:
                            k += 1
                        while rows[k] <= above[j]:
                            k += 1
                        continue
                    lam = tuple(new) if new[-1] else tuple(new[:-1])
                    if keep:
                        key = (lam, tuple(top[:keep]))
                        merged[key] = merged.get(key, 0) + count
                    else:  # the last strip: the chain ends in lam
                        counts[lam] = counts.get(lam, 0) + count
                    new[r] -= 1
                elif j:
                    # no row left for cell j: move cell j - 1 down
                    j -= 1
                    k = at[j]
                    new[top[j]] -= 1
                    free[k] += 1
                else:
                    break
                k += 1
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
