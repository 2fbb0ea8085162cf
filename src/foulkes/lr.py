"""Littlewood-Richardson coefficients and products in the Schur basis.

Two independent enumerations live here on purpose. lr_coefficient
counts fillings of a fixed skew shape straight from the definition,
visiting cells in reverse reading order (right to left within a row,
top row first) with an explicit stack of entry ranges, one iterator
per filled cell and one for the cell being tried, so the lattice-word
constraint can be checked exactly at every step and no recursion depth
grows with the number of cells. schur_multiply expands whole products
through chains of horizontal strips (_product_terms), which only ever
visits result partitions with a nonzero coefficient; the test suite
cross-checks the two engines against each other.

The strip enumeration costs more with every strip, so for each pair
of terms schur_multiply makes the factor with fewer rows the one whose
rows become strips. It then groups the pairs by that strip shape, each
group holding the other factors with their summed weights, so
symmetric pairs merge, and hands _product_terms the whole product at
once. The strips are added under one lattice rule (Macdonald,
Symmetric Functions and Hall Polynomials, I.9): counting from the top,
cell j of a strip lies on a lower row than cell j of the strip before.
As the rule links each strip only to the one before it, chains that
have the same strips still to add and reach the same shape with the
same top cells in their last strip are merged and extended once, from
whichever source and strip shape they start (see _product_terms): the
chains of (4, 2, 2) and (2, 2, 2) share their tail (2, 2). A strip of
one cell goes straight onto each addable row below the top cell of the
strip before. One loop places every larger strip cell by cell, top
first, on those rows, with an explicit stack, so no recursion depth
grows with the strip either.

The memo of _product_terms, keyed on the whole product, lives as long
as the process, so each entry is compact: a tuple of shapes and a
parallel tuple of int coefficients, where every shape is the one copy
kept by _shape. schur_multiply wraps these shapes as they are, so its
results share them too. decompose of every covered nu to |nu| = 12,
both inners, in one process stores about 29k terms in 127 products and
peaks at 18.4 MB RSS (Python 3.11).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

from .expansions import SchurExpansion, _check_basis
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

    def entries(idx: int) -> Iterator[int]:
        # entries weakly increase to the right, strictly down a column,
        # and a lattice word's letter at position idx is at most idx + 1
        # (one more than the letters before it), so no cell scans past it
        r, c = cells[idx]
        high = min(grid.get((r, c + 1), k), idx + 1)
        return iter(range(grid.get((r - 1, c), 0) + 1, high + 1))

    # Depth-first over the cells with an explicit stack of entry ranges:
    # stack[idx] iterates over the entries still to try at cells[idx],
    # one per filled cell and one for the cell being tried, the last;
    # the for loop below picks each up where it stopped.
    last = len(cells) - 1
    stack = [entries(0)]
    total = 0
    while stack:
        idx = len(stack) - 1
        for e in stack[idx]:
            # content nu, and the lattice word: after placing, count(e)
            # may not exceed count(e-1)
            if counts[e] < nu[e - 1] and (e == 1 or counts[e] < counts[e - 1]):
                break
        else:
            # nothing fits here: back up and take the previous entry out
            stack.pop()
            if idx:
                counts[grid.pop(cells[idx - 1])] -= 1
            continue
        if idx == last:  # a complete filling
            total += 1
            continue
        counts[e] += 1
        grid[cells[idx]] = e
        stack.append(entries(idx + 1))
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
    groups: tuple[tuple[tuple[tuple[Partition, int], ...], Partition], ...]
) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """Expansion of the sum of w * s_a * s_b over every group (sources, b)
    in groups and every (a, w) in its sources, as parallel tuples
    (shapes, coefficients).

    groups is the product key that schur_multiply builds: one group per
    strip shape b, sorted on b, whose sources are distinct shapes a with
    non-zero int weights w, sorted in reverse order. So a product, and
    the same product with its factors swapped, is one entry, and
    symmetric pairs and repeated sources cost nothing more.

    The shapes are in canonical (reverse-lex) order, each with a
    non-zero coefficient, and each is the shared copy held by _shape:
    a fresh tuple per term would cost about 108 B of memo per term,
    the shared copy about 59 B (every factor product with a + b <= 10).

    For each group, counts chains a = k0 <= k1 <= ... where step i adds
    a horizontal strip of b_i cells, subject to one lattice rule:
    counting from the top, cell j of strip i lies on a lower row than
    cell j of strip i-1. The first strip follows b_0 cells on a virtual
    row -1, which leave it free. The coefficient of lam is the number of
    chains that end in lam, each chain counted with the weight of its
    source.

    The chains are merged rather than walked one by one. The rule links
    strip i+1 to strip i and to no earlier strip, and strip i+1 has
    b_{i+1} cells, so what can follow strip i depends on three things
    only: the strips still to add, the shape k_i, and above, the rows of
    the top b_{i+1} cells of strip i, top first, as in (3, 3, 5). One
    frontier, keyed by the strips still to add (a suffix of some b),
    maps each state (shape, above) to the weighted number of chains that
    reach it, and each state is extended once, however many chains share
    it and from whichever sources and groups they start: the suffix b
    itself holds every source of b's group with its weight. So the
    chains of different strip shapes merge once what they still have to
    add coincides: after one strip, the chains of (4, 2, 2) and of
    (2, 2, 2) both have (2, 2) to add. A suffix is extended after
    every longer one that ends in it, so every chain into a state is in
    before the state is extended. Through row r the rule lets a strip
    hold at most as many cells as above has entries on rows above r, so
    every row down to above[0] is closed and every strip scans from the
    row below it.

    The strip goes on the addable rows below above[0]: row 0 (up to
    the whole strip), every row below a strictly longer row, and the
    new row below the shape. A strip of one cell, which about a third
    of the states of a formula sweep add, takes one pass over these
    rows and puts its cell on each in turn. One loop places every
    larger strip, cell by cell, top first. Cell j is tried on the rows
    in order, from the row of cell j - 1 down, and goes on one that
    lies below above[j], still has room (the gap to the row above) and
    leaves enough room on it and the rows below for the need - j - 1
    cells still to come. That room check is the only pruning; once it
    fails it fails on every lower row too, so the loop takes cell j - 1
    off and moves it one row down. Taking the rows in order gives every
    strip once, no branch dies at the bottom of the shape, and the rows
    down to above[0] are never visited. A placed strip costs about 2.6
    steps of the loop when it has two cells and 4-6 when it has four or
    more, so the work grows with the number and the size of the strips,
    which is why schur_multiply passes the factor with fewer rows as b.
    """
    # frontier[rest]: the weighted chains that still have the strips
    # rest to add, keyed (shape, above), above the rows of the last
    # strip's top cells; a source follows a strip on the virtual row -1
    frontier: dict[Partition, dict[tuple[Partition, tuple[int, ...]], int]] = {}
    counts: dict[Partition, int] = {}  # the chains with no strip left
    for sources, b in groups:
        if b:
            for i in range(1, len(b)):
                frontier.setdefault(b[i:], {})
            frontier[b] = {(a, (-1,) * b[0]): w for a, w in sources}
        else:  # a group without strips is its own expansion
            counts.update(sources)
    # by the reversed strips, descending: a key comes after every longer
    # key that ends in it, so all chains into its states are in, and the
    # keys with one tail come together, so few part-filled frontiers are
    # held at once
    for rest in sorted(frontier, key=lambda rest: rest[::-1], reverse=True):
        chains, need = frontier.pop(rest), rest[0]
        # the next strip is bounded by this one's top keep cells only;
        # the chains go on in merged, or end in counts after the last
        keep = rest[1] if len(rest) > 1 else 0
        merged = frontier[rest[1:]] if keep else counts
        for (shape, above), count in chains.items():
            # the rows below above[0], x the length of the row above the
            # first of them: row 0 has room for the whole strip
            start = above[0] + 1
            tail = shape[start:] + (0,)
            x = shape[start - 1] if start else tail[0] + need
            if need == 1:
                # one cell: on each addable row of them in turn
                for r, y in enumerate(tail, start):
                    if x > y:
                        lam = shape[:r] + (y + 1,) + shape[r + 1 :]
                        if keep:
                            key = (lam, (r,))
                            merged[key] = merged.get(key, 0) + count
                        else:
                            counts[lam] = counts.get(lam, 0) + count
                    x = y
                continue
            # the addable rows and free[k], what rows[k] can still take:
            # the gap to the row above; upto[k] is what rows[:k + 1] take
            # together
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
    order = sorted((lam for lam, c in counts.items() if c), reverse=True)
    return tuple(map(_shape, order)), tuple(counts[lam] for lam in order)


def schur_multiply(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Product of two Schur expansions, expanded back into the basis.

    Bilinear: the coefficient of s_lam is the sum over (mu, nu) of
    f(mu) * g(nu) * c^lam_{mu, nu}. The pairs, each oriented and
    grouped by its strip shape, make one key of _product_terms, which
    runs every group's chains together.
    """
    _check_basis(SchurExpansion, f, g)
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
    key = []
    for strips, group in sorted(groups.items()):
        sources = tuple(sorted(((a, w) for a, w in group.items() if w), reverse=True))
        if sources:
            key.append((sources, strips))
    return SchurExpansion._trusted(dict(zip(*_product_terms(tuple(key)))))
