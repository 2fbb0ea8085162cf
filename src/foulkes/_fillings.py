"""The Littlewood-Richardson filling count behind lr.lr_coefficient,
loaded on first use.

lr_coefficient counts the fillings of one skew shape straight from the
definition, so a process that asks for a single coefficient (the lr
subcommand) compiles this module and not the strip kernel
(foulkes._chains) that schur_multiply runs, and a process that only
multiplies never compiles this one. It imports nothing of lr's
product path: the test suite cross-checks the two engines against each
other, which means something only while they share no code.
"""

from __future__ import annotations

from collections.abc import Iterator

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
    """The body of lr.lr_coefficient."""
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
