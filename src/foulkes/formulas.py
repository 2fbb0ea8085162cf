"""Closed formulas for twisted Foulkes characters.

phi(n, nu) denotes the character of the symmetric group on 2n points
obtained by inducing from the wreath product of S_2 with S_n, twisted
by the irreducible labeled nu; equivalently the plethysm s_nu(s_(2))
written in symmetric group language. The functions here decompose it
into irreducibles for nu with at most two rows, at most two columns, or
hook shape, plus dedicated closed forms for nu = (n-1, 1) and
nu = (2, 1^(n-2)) and a classification table for nu = (n-2, 1, 1) and
nu = (n-2, 2). decompose picks the formula that fits a given nu.

Plethysm by s_(2) is a ring map, so each of the two-row, two-column and
hook formulas is a list of signed terms (sign, a, b, kind), one per
factor product h_a[s_2]*h_b[s_2] (kind "hh"), e_a[s_2]*e_b[s_2] ("ee")
or h_a[s_2]*e_b[s_2] ("he") of the one-row (h_a[s_2]) and one-column
(e_a[s_2]) decompositions, and one evaluator, _signed_sum, adds them
up. The two-row and two-column lists are the 2x2 Jacobi-Trudi
determinant h_(n-r) h_r - h_(n-r+1) h_(r-1) and its dual in e
(Macdonald I.3), with h_b = e_b = 0 for b < 0; the hook lists are two
alternating sums over h*e. The bases and the products are memoized,
the products on (a, b, kind) with the factors of "hh" and "ee" in a
fixed order. So each product is computed once per process and shared:
by neighbouring r of one n (the second term of phi_two_row(n, r+1) is
the first of phi_two_row(n, r), and likewise for two columns), and by
every hook of one n in both variants. Each sum is memoized on its tuple
of terms, so decompose with either inner adds it up once (e2 only
applies omega). Like the other memos of the package these are
process-global and grow with the sizes asked for;
foulkes.clear_caches() empties them.

The (n-1, 1) closed form and the table for (n-2, 1, 1) and (n-2, 2)
are read off one per-row rule of the paper's Table 1. That rule, the
table and the (2, 1^(n-2)) closed form live in foulkes._table1.
phi_hook_depth1_closed, phi_two_one_column_closed, table_row_class and
table_multiplicity check their arguments here, then import it and pass
it the checked values, so a process that asks for none of them never
compiles it, and it needs nothing of this module. table_nu and
TABLE_NU_KINDS stay here, since the command line reads them at import.

Each alternating-sum method covers nu by one shape rule, kept in
_SHAPE_RULES: at most two rows, at most two columns, or a hook.
decompose checks a named method against its rule, and its 'auto'
method takes the first method whose rule nu meets.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import cache

from .errors import InvalidShapeError, UnsupportedShapeError
from .expansions import SchurExpansion, omega_schur
from .lr import schur_multiply
from .partitions import (
    Partition,
    _as_name,
    _as_size,
    _clip_int,
    _clip_parts,
    as_partition,
    double,
    double_hook,
    generate_distinct_partitions,
    generate_partitions,
)

# The two nu families the multiplicity table covers, keyed the same way
# the command line spells them.
TABLE_NU_KINDS = ("n-2,1,1", "n-2,2")

# The closed formulas decompose can apply; "auto" picks one by the
# shape of nu and "base" is the one-row or one-column case.
METHODS = ("auto", "two-row", "two-column", "hook-first", "hook-second", "base")


def phi_one_row(n: int) -> SchurExpansion:
    """Decomposition for nu = (n): one copy of s_lam for every doubled
    partition lam = 2 * alpha with alpha a partition of n."""
    return _base("h", _as_size(n, "n"))


def phi_one_column(n: int) -> SchurExpansion:
    """Decomposition for nu = (1^n): one copy of s_lam for every
    double hook lam built from a distinct-part partition of n."""
    return _base("e", _as_size(n, "n"))


@cache
def _base(kind: str, n: int) -> SchurExpansion:
    """The memo behind phi_one_row (kind "h") and phi_one_column (kind
    "e"), for an n they have checked."""
    if kind == "h":
        shapes = map(double, generate_partitions(n))
    else:
        shapes = map(double_hook, generate_distinct_partitions(n))
    return SchurExpansion._trusted(dict.fromkeys(shapes, 1))


@cache
def _factor_product(a: int, b: int, kind: str) -> SchurExpansion:
    """The product of the bases kind[0]_a and kind[1]_b, h for the one
    row and e for the one column. The sums here pass a >= b to the
    symmetric kinds "hh" and "ee", so each such product has one entry."""
    return schur_multiply(_base(kind[0], a), _base(kind[1], b))


def induce_product(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Combine two decomposed characters of smaller symmetric groups
    into the induced product on the union of the points.

    The multiplicities multiply through Littlewood-Richardson
    coefficients of the labels, so this is exactly the Schur-basis
    product of the two expansions.
    """
    return schur_multiply(f, g)


@cache
def _signed_sum(terms: tuple[tuple[int, int, int, str], ...]) -> SchurExpansion:
    """Sum of sign * _factor_product(a, b, kind) over the terms
    (sign, a, b, kind) of one degree, memoized on the tuple of terms, so
    decompose's e2 takes omega of the s2 sum instead of adding it again.
    A term with b < 0 is zero, since h_b = e_b = 0 there, and is never
    evaluated. The rest accumulate in one dict that starts as a copy of
    the first product when its sign is +1, as it is in every sum here."""
    acc: dict[Partition, int] = {}
    for sign, a, b, kind in terms:
        if b < 0:
            continue
        f = _factor_product(a, b, kind)._terms
        if acc or sign != 1:
            for lam, c in f.items():
                acc[lam] = acc.get(lam, 0) + sign * c
        else:
            acc = dict(f)
    return SchurExpansion._trusted(acc)


def _two_by_two(n: int, r: int, kind: str) -> SchurExpansion:
    """The 2x2 Jacobi-Trudi determinant h_(n-r) h_r - h_(n-r+1) h_(r-1)
    of the plethysm bases (kind "hh"), or its dual in e (kind "ee"), for
    n >= 1 and 0 <= 2r <= n."""
    n, r = _as_size(n, "n", 1), operator.index(r)
    if r < 0 or 2 * r > n:
        raise InvalidShapeError(
            f"need 0 <= 2r <= n, got n={_clip_int(n)}, r={_clip_int(r)}"
        )
    return _signed_sum(((1, n - r, r, kind), (-1, n - r + 1, r - 1, kind)))


def phi_two_row(n: int, r: int) -> SchurExpansion:
    """Decomposition for nu = (n-r, r), requiring 0 <= r <= n-r.

    Products of one-row decompositions for the split (n-r, r) minus the
    products for the split (n-r+1, r-1).
    """
    return _two_by_two(n, r, "hh")


def phi_two_column(n: int, r: int) -> SchurExpansion:
    """Decomposition for nu = (2^r, 1^(n-2r)), requiring 0 <= 2r <= n.

    Same telescoping difference as phi_two_row with the one-column
    decompositions in place of the one-row ones.
    """
    return _two_by_two(n, r, "ee")


def phi_hook(n: int, r: int, variant: str = "first") -> SchurExpansion:
    """Decomposition for the hook nu = (n-r, 1^r), 0 <= r <= n-1.

    Two alternating sums evaluate to the same answer. The first runs
    j = 0..r over products of the one-row decomposition of n-r+j with
    the one-column decomposition of r-j, signed (-1)^j. The second runs
    j = 1..n-r over products for n-r-j and r+j, signed (-1)^(j-1).
    """
    n, r = _as_size(n, "n", 1), operator.index(r)
    if r < 0 or r > n - 1:
        raise InvalidShapeError(
            f"need 0 <= r <= n-1, got n={_clip_int(n)}, r={_clip_int(r)}"
        )
    if _as_name(variant, "variant", ("first", "second")) == "first":
        terms = (((-1) ** j, n - r + j, r - j, "he") for j in range(r + 1))
    else:
        terms = (((-1) ** (j - 1), n - r - j, r + j, "he") for j in range(1, n - r + 1))
    return _signed_sum(tuple(terms))


def phi_hook_depth1_closed(n: int) -> SchurExpansion:
    """Closed form for nu = (n-1, 1), n >= 2, with no alternating sum.

    Every doubled partition 2*gamma contributes its number of distinct
    parts minus one, and every partition of 2n with exactly two odd
    parts of different values contributes once: the all-even and
    2-odd-distinct rows of Table 1, read off the same pass as the table.
    """
    n = _as_size(n, "n", 2)
    from ._table1 import _table

    return _table("n-1,1", n)[0]


def phi_two_one_column_closed(n: int) -> SchurExpansion:
    """Closed form for nu = (2, 1^(n-2)), n >= 2, with no alternating sum.

    Double hooks of distinct-part partitions gamma of n contribute their
    drop count minus one, and each partition reachable from some double
    hook of a distinct-part partition of n-1 by adding two cells in
    distinct columns (not at the two ends of one diagonal hook)
    contributes once, counted once no matter how many ways it arises.
    """
    n = _as_size(n, "n", 2)
    from ._table1 import phi_two_one_column_closed

    return phi_two_one_column_closed(n)


def table_row_class(lam: Iterable[int]) -> str:
    """Classification label used by the multiplicity table: the odd
    parts of lam decide the row."""
    lam = as_partition(lam)
    from ._table1 import _table_row

    return _table_row(lam)


def table_nu(kind: str, n: int) -> Partition:
    """The nu a table kind stands for: (n-2, 1, 1) for kind 'n-2,1,1',
    n >= 3, and (n-2, 2) for kind 'n-2,2', n >= 4."""
    hook_kind = _as_name(kind, "kind", TABLE_NU_KINDS) == "n-2,1,1"
    n = _as_size(n, f"n for kind {kind!r}", 3 if hook_kind else 4)
    return (n - 2, 1, 1) if hook_kind else (n - 2, 2)


def table_multiplicity(lam: Iterable[int], kind: str, n: int) -> int:
    """Multiplicity of s_lam in the decomposition for nu = (n-2, 1, 1)
    (kind 'n-2,1,1', n >= 3) or nu = (n-2, 2) (kind 'n-2,2', n >= 4),
    read off a classification of the odd parts of lam.

    lam must be a partition of 2n. Partitions outside every listed
    class have multiplicity 0.
    """
    lam = as_partition(lam)
    n = sum(table_nu(kind, n))  # checks kind and n; nu has size n
    from ._table1 import table_multiplicity

    return table_multiplicity(lam, kind, n)


def omega_dual(f: SchurExpansion) -> SchurExpansion:
    """Pass from s_nu(s_(2)) to s_nu(s_(1,1)): conjugate every label."""
    return omega_schur(f)


def decompose(
    nu: Iterable[int], method: str = "auto", inner: str = "s2"
) -> tuple[SchurExpansion, str]:
    """Decompose s_nu(s_(2)) (inner 's2') or s_nu(s_(1,1)) (inner 'e2')
    by the closed formula named by method, one of METHODS.

    Returns the expansion and the name of the formula applied: 'auto'
    takes two-row for at most two rows, else two-column for at most two
    columns, else hook-first for a hook. The empty nu takes the one-row
    base case under every method. Raises UnsupportedShapeError when no
    formula, or not the one named, covers nu, and ValueError for an
    unknown method or inner.
    """
    nu = as_partition(nu)
    method = _as_name(method, "method", METHODS)
    inner = _as_name(inner, "inner", ("s2", "e2"))
    result, method = _closed_formula(nu, method)
    return (omega_schur(result) if inner == "e2" else result), method


# The shape rule of each alternating-sum method: whether it covers a
# nonempty nu, and what the error says of an nu it does not cover.
# hook-second shares hook-first's rule, so auto, which takes the first
# method whose rule nu meets, never picks it.
_SHAPE_RULES = {
    "two-row": (lambda nu: len(nu) <= 2, "has more than two rows"),
    "two-column": (lambda nu: nu[0] <= 2, "has more than two columns"),
    "hook-first": (lambda nu: len(nu) < 2 or nu[1] <= 1, "is not a hook"),
}
_SHAPE_RULES["hook-second"] = _SHAPE_RULES["hook-first"]


def _closed_formula(nu: Partition, method: str) -> tuple[SchurExpansion, str]:
    n = sum(nu)
    if not nu or method == "base":
        if len(nu) <= 1:
            return phi_one_row(n), "one-row"
        if nu[0] == 1:
            return phi_one_column(n), "one-column"
        raise UnsupportedShapeError(
            f"base form needs a single row or column, got {_clip_parts(nu)}"
        )
    if method == "auto":
        for method, (covers, _) in _SHAPE_RULES.items():
            if covers(nu):
                break
        else:
            raise UnsupportedShapeError(
                f"{_clip_parts(nu)} has more than two rows, more than two "
                "columns, and is not a hook"
            )
    else:
        covers, fault = _SHAPE_RULES[method]
        if not covers(nu):
            raise UnsupportedShapeError(f"{_clip_parts(nu)} {fault}")
    if method == "two-row":
        return phi_two_row(n, nu[1] if len(nu) == 2 else 0), method
    if method == "two-column":
        return phi_two_column(n, nu.count(2)), method
    return phi_hook(n, len(nu) - 1, method.removeprefix("hook-")), method
