"""The Littlewood-Richardson strip kernel behind schur_multiply,
loaded on first use.

lr keeps the memo _product_terms, keyed on the whole product, and the
shared shape copies of _shape, through which it interns the shapes this
kernel hands back; _product_terms imports this module on a miss, so a
process that multiplies no Schur expansions (the oracle, a single lr
coefficient, Table 1 alone) never compiles it. The kernel imports
nothing of lr, nor of lr_coefficient's filling count
(foulkes._fillings): the test suite cross-checks the two engines
against each other, which means something only while they share no
code.
"""

from __future__ import annotations

from .partitions import Partition


def product_terms(
    groups: tuple[tuple[tuple[tuple[Partition, int], ...], Partition], ...]
) -> tuple[list[Partition], tuple[int, ...]]:
    """The body of lr._product_terms, which describes groups and the
    result: the shapes, still to be interned through lr._shape, and
    their coefficients.

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
    return order, tuple(counts[lam] for lam in order)
