"""Littlewood-Richardson coefficients and products in the Schur basis.

Two independent enumerations serve this module on purpose, each in a
private module that loads on first use. lr_coefficient counts fillings
of a fixed skew shape straight from the definition (foulkes._fillings),
visiting cells in reverse reading order (right to left within a row,
top row first) with an explicit stack of entry ranges, one iterator
per filled cell and one for the cell being tried, so the lattice-word
constraint can be checked exactly at every step and no recursion depth
grows with the number of cells. schur_multiply expands whole products
through chains of horizontal strips (foulkes._chains, behind
_product_terms), which only ever visits result partitions with a
nonzero coefficient; the test suite cross-checks the two engines
against each other. Neither module imports the other, and the entry
points here import each one when called, so an lr query never
compiles the strip kernel and a decompose query never compiles the
filling count.

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
whichever source and strip shape they start (see foulkes._chains): the
chains of (4, 2, 2) and (2, 2, 2) share their tail (2, 2). A strip of
one cell goes straight onto each addable row below the top cell of the
strip before. One loop places every larger strip cell by cell, top
first, on those rows, with an explicit stack, so no recursion depth
grows with the strip either.

The memo of _product_terms, keyed on the whole product, stays here and
lives as long as the process; only a miss imports the kernel. Each
entry is compact: a tuple of shapes and a parallel tuple of int
coefficients, where every shape is the one copy kept by _shape, through
which _product_terms interns the shapes the kernel hands back.
schur_multiply wraps these shapes as they are, so its results share
them too. decompose of every covered nu to |nu| = 12, both inners, in
one process stores about 29k terms in 127 products and peaks at
18.4 MB RSS (Python 3.11).
"""

from __future__ import annotations

from functools import cache

from .expansions import SchurExpansion, _check_basis
from .partitions import Partition


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
    from ._fillings import lr_coefficient

    return lr_coefficient(lam, mu, nu)


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

    The chains of horizontal strips that make the product are counted
    by foulkes._chains, which is imported on a miss.
    """
    from ._chains import product_terms

    shapes, coefficients = product_terms(groups)
    return tuple(map(_shape, shapes)), coefficients


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
