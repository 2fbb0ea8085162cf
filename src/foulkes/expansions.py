"""Exact expansions in the Schur and power-sum bases.

SchurExpansion carries integer multiplicities, PowerSumExpansion exact
rational coefficients (fractions.Fraction; the oracle also hands
powersum_to_schur int-valued ones). Both are one class body,
_Expansion: immutable, homogeneous (every index partition has one
common size) and free of zero coefficients. The subclasses differ only
in _coerce, the coefficient rule, plus the power-sum product; results
of their arithmetic skip revalidation through _trusted.

Symmetric group character values come from the Murnaghan-Nakayama rule
run forwards: the column chi^lam_mu over every lam, which is the Schur
expansion of p_mu, is p_mu[0] times the column of mu[1:], each shape in
it growing by every mu[0]-cell border strip. That strip step is one
function, _add_strip_layer, which adds or subtracts each value along
the +1 and the -1 shapes of a strip row, with no multiply.
powersum_to_schur calls it once per largest part instead of once per
term: it sums the columns of the rests of every mu with that largest
part and adds the strips to that sum, so it never builds a column of
the full degree.

Columns are memoized on the cycle type mu alone. s_nu in power sums is
memoized on nu as integers over the common denominator |nu|!
(_class_sums); schur_to_powersum divides them out into Fractions and
the oracle uses them as they are. The strips are kept in one table per
(m, k), a list indexed by the position of the shape in
generate_partitions(m), whose rows _add_strip_layer fills the first
time a column or a sum reaches that shape; it reads a row by index, so
no shape is hashed per entry. The memos are process-global,
foulkes.clear_caches() empties them, and a concurrent duplicate
computation is harmless.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import cache
from math import factorial, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import DegreeMismatchError, NonIntegerCoefficientError
from .partitions import (
    Partition,
    _clip_int,
    _clip_parts,
    _conjugate,
    _dimension,
    as_partition,
    centralizer_order,
    generate_partitions,
)

if TYPE_CHECKING:
    from fractions import Fraction


# fractions (and the decimal and numbers modules it loads) is imported
# where a power-sum coefficient is made, so the Schur-only routes and
# the command line start without it. Fraction() would also parse a str
# and take a float or Decimal; only a Rational is exact by type.
def _as_fraction(value) -> Fraction:
    from fractions import Fraction
    from numbers import Rational

    if not isinstance(value, Rational):
        raise TypeError("power-sum coefficients must be exact (int or Fraction)")
    return Fraction(value)


class _Expansion:
    """An immutable finite combination of one basis, indexed by
    partitions of one common size, with no zero coefficients.

    The two bases share this body and differ only in _coerce, the rule
    that turns a constructor coefficient or a scalar into a stored one.
    The constructor validates every index partition, every coefficient
    and the common degree. Results built from values that are already
    valid skip that: +, -, unary -, scaling and the power-sum product
    go through _trusted, which keeps the dict it is given when it holds
    no zero coefficient. + and - still raise DegreeMismatchError on
    operands of two different degrees, and TypeError on operands of two
    different bases.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[Partition, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for lam, coeff in items:
            lam = as_partition(lam)
            data[lam] = data.get(lam, 0) + self._coerce(coeff)
        self._terms = {lam: c for lam, c in data.items() if c}
        sizes = {sum(lam) for lam in self._terms}
        if len(sizes) > 1:
            raise DegreeMismatchError(f"mixed degrees {_clip_parts(sorted(sizes))}")

    @classmethod
    def _trusted(cls, terms: dict[Partition, object]):
        """Wrap a dict whose keys are partitions of one size and whose
        values are already of the basis' coefficient type, checking
        nothing.

        The expansion keeps terms itself, not a copy. Only a dict that
        holds a zero coefficient is copied, less its zeros: deleting
        them in place would keep the table at its full size, and the
        alternating sums, whose memo holds them, cancel about a fifth
        of their terms. So terms must be a dict that nothing else holds
        or touches again, as at every call: _combine's copy of self's
        terms, the comprehensions of unary -, scaling, schur_to_powersum
        and omega_schur, the dict literals of oracle._multiply_out, and
        the dicts that the power-sum product, _divide_exactly,
        lr.schur_multiply, oracle._oracle and the four builders in
        formulas (_base, _signed_sum, phi_two_one_column_closed and
        _table) fill.
        """
        if not all(terms.values()):
            terms = {lam: c for lam, c in terms.items() if c}
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @property
    def degree(self) -> int | None:
        """Common size of the index partitions, or None when zero."""
        for lam in self._terms:
            return sum(lam)
        return None

    def coefficient(self, lam: Iterable[int]):
        return self._terms.get(as_partition(lam), self._coerce(0))

    def __getitem__(self, lam: Iterable[int]):
        return self.coefficient(lam)

    def __contains__(self, lam) -> bool:
        return as_partition(lam) in self._terms

    def items(self) -> tuple[tuple[Partition, object], ...]:
        """(partition, coefficient) pairs in canonical (reverse-lex) order."""
        terms = self._terms
        # sorting the keys alone compares each pair of shapes once
        return tuple([(lam, terms[lam]) for lam in sorted(terms, reverse=True)])

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._terms == other._terms
        return NotImplemented

    def _combine(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.degree, other.degree
        if a is not None and b is not None and a != b:
            raise DegreeMismatchError(
                f"cannot combine degrees {_clip_int(a)} and {_clip_int(b)}"
            )
        data = dict(self._terms)
        for lam, c in other._terms.items():
            data[lam] = data.get(lam, 0) + sign * c
        return self._trusted(data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._trusted({lam: -c for lam, c in self._terms.items()})

    def __mul__(self, scalar):
        k = self._coerce(scalar)
        return self._trusted({lam: k * c for lam, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(f"{lam}: {c}" for lam, c in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class SchurExpansion(_Expansion):
    """A finite integer combination of Schur functions of one degree.

    Coefficients and scalars must be integers (operator.index). Besides
    the arithmetic, omega_schur, powersum_to_schur and
    lr.schur_multiply build theirs through _trusted.
    """

    __slots__ = ()
    _coerce = staticmethod(operator.index)


class PowerSumExpansion(_Expansion):
    """A finite rational combination of power sums of one degree.

    Coefficients and scalars become Fractions, and a float is rejected.
    Besides the arithmetic, schur_to_powersum builds its Fraction-valued
    ones through _trusted, and the oracle int-valued ones: brackets it
    multiplies together, which keeps the coefficients ints, and sums it
    passes to powersum_to_schur, which reads any coefficient through its
    numerator and denominator. Two power-sum expansions multiply as
    p_mu * p_nu = p_(mu union nu); the degrees add.
    """

    __slots__ = ()
    _coerce = staticmethod(_as_fraction)

    def __mul__(self, other):
        if not isinstance(other, PowerSumExpansion):
            return super().__mul__(other)
        data: dict[Partition, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                data[key] = data.get(key, 0) + c1 * c2
        return self._trusted(data)


def _check_basis(basis: type, *values) -> None:
    """Raise TypeError unless every value is an expansion of basis: read
    in the other basis, its coefficients give wrong numbers silently."""
    for f in values:
        if not isinstance(f, basis):
            raise TypeError(f"expected a {basis.__name__}, got {type(f).__name__}")


@cache
def _position(n: int) -> dict[Partition, int]:
    """Index of every partition of n in generate_partitions(n)."""
    return {lam: i for i, lam in enumerate(generate_partitions(n))}


# The +1 positions, then the -1 positions, of one row of strips.
_StripRow = tuple[tuple[int, ...], tuple[int, ...]]


def _add_strips(rho: Partition, k: int) -> _StripRow:
    """The shapes rho plus a k-cell border strip, as two tuples of
    positions: those of sign +1, then those of sign -1.

    On beta numbers (here rho[j] - j, strictly decreasing, over rho
    padded with k zeros) a strip added is a bead moved up by k onto a
    free place. The bead of row idx lands at row t, the number of beads
    above its new place: rows t..idx-1 each gain a cell, row t holds the
    moved bead, and the sign is (-1)^(idx - t), the beads jumped.
    Positions index generate_partitions(|rho| + k). Never empty: the
    bead of the first padded row can always move up.
    """
    padded = rho + (0,) * k
    beads = [part - j for j, part in enumerate(padded)]
    position = _position(sum(rho) + k)
    rows: tuple[list[int], list[int]] = ([], [])
    for idx, bead in enumerate(beads):
        top = bead + k
        t = idx
        while t and beads[t - 1] < top:
            t -= 1
        if t and beads[t - 1] == top:
            continue
        lam = (
            rho[:t]
            + (top + t,)
            + tuple(part + 1 for part in padded[t:idx])
            + rho[idx + 1 :]
        )
        rows[(idx - t) % 2].append(position[lam])
    return tuple(rows[0]), tuple(rows[1])


@cache
def _strip_table(m: int, k: int) -> list[_StripRow | None]:
    """Row j holds _add_strips(generate_partitions(m)[j], k), or None
    until _add_strip_layer first reaches shape j. Rows fill lazily: a
    full table of every shape would enumerate strips no column ever
    reaches."""
    return [None] * len(generate_partitions(m))


def _add_strip_layer(
    column: Iterable[tuple[int, int]], m: int, k: int, out: list[int]
) -> None:
    """The strip step shared by _chi and powersum_to_schur: for every
    non-zero (j, value) of column, a position j in
    generate_partitions(m), add value into out[i] for every i of the
    plus row of _add_strips(generate_partitions(m)[j], k) and subtract
    it for every i of the minus row, filling that row of
    _strip_table(m, k) the first time it is met."""
    table = _strip_table(m, k)
    for j, value in column:
        if value:
            row = table[j]
            if row is None:
                row = table[j] = _add_strips(generate_partitions(m)[j], k)
            plus, minus = row
            for i in plus:
                out[i] += value
            for i in minus:
                out[i] -= value


@cache
def _chi(mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The column chi^lam_mu over every lam of |mu|, i.e. the Schur
    expansion of p_mu, as the positions in generate_partitions(|mu|) of
    the lam with a non-zero value, ascending, and those values."""
    if not mu:
        return (0,), (1,)
    column = [0] * len(generate_partitions(sum(mu)))
    _add_strip_layer(zip(*_chi(mu[1:])), sum(mu[1:]), mu[0], column)
    nonzero = [i for i, value in enumerate(column) if value]
    return tuple(nonzero), tuple(column[i] for i in nonzero)


def _chi_at(mu: Partition, i: int) -> int:
    """chi^lam_mu for the lam at position i of generate_partitions(|mu|),
    bisected in the column's ascending positions."""
    positions, values = _chi(mu)
    at = bisect_left(positions, i)
    return values[at] if at < len(positions) and positions[at] == i else 0


def mn_character(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Value of the irreducible character chi^lam on cycle type mu.

    Murnaghan-Nakayama rule; raises DegreeMismatchError unless both
    partitions have the same size. The first value for a new cycle
    type of size n computes its whole column, which enumerates the
    partitions of n.

    >>> mn_character((2, 1), (1, 1, 1)), mn_character((2, 1), (3,))
    (2, -1)
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = sum(lam)
    if n != sum(mu):
        raise DegreeMismatchError(f"|{_clip_parts(lam)}| != |{_clip_parts(mu)}|")
    return _chi_at(mu, _position(n)[lam])


def schur_to_powersum(nu: Iterable[int]) -> PowerSumExpansion:
    """s_nu as a rational combination of power sums.

    The coefficient of p_mu is chi^nu_mu divided by the centralizer
    order of mu. The first call for a size n computes the character
    column of every cycle type of n, which enumerates the partitions
    of n. The integer numerators are memoized per nu (_class_sums), so
    the s2 and e2 oracles of one nu share them.

    >>> schur_to_powersum((2, 1))
    PowerSumExpansion({(3,): -1/3, (1, 1, 1): 1/3})
    """
    from fractions import Fraction

    nu = as_partition(nu)
    denom = factorial(sum(nu))
    return PowerSumExpansion._trusted(
        {mu: Fraction(c, denom) for mu, c in _class_sums(nu)}
    )


@cache
def _class_sums(nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """s_nu in power sums over the common denominator |nu|!: every mu
    with chi^nu_mu != 0 and its numerator chi^nu_mu * |nu|! / z_mu, the
    character value times the size of the class mu."""
    n = sum(nu)
    i = _position(n)[nu]
    denom = factorial(n)
    out = []
    for mu in generate_partitions(n):
        ch = _chi_at(mu, i)
        if ch:
            out.append((mu, ch * (denom // centralizer_order(mu))))
    return tuple(out)


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


def powersum_to_schur(f: PowerSumExpansion) -> SchurExpansion:
    """Convert a power-sum expansion to the Schur basis.

    The coefficient of s_lam is the sum of f(mu) * chi^lam_mu. It is
    computed in integers: every f(mu) is scaled by the lcm D of their
    denominators and one exact division by D ends each integer total.
    An f whose coefficients are ints, as the oracle passes, has D = 1.
    Since p_mu = p_mu[0] * p_mu[1:], the terms are grouped by their
    largest part r: the scaled columns of their rests mu[1:] (degree
    n - r) are summed first, and every non-zero entry of that sum then
    gets its r-cell border strips once, so no degree-n column is built.
    Raises NonIntegerCoefficientError at the first s_lam in reverse-lex
    order whose division leaves a remainder, which means f was not an
    integral Schur combination to begin with.

    >>> powersum_to_schur(PowerSumExpansion({(1, 1): 1}))
    SchurExpansion({(2,): 1, (1, 1): 1})
    """
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
    return _divide_exactly(zip(generate_partitions(n), totals), denom)


# Conjugates of the shapes omega_schur has met. It fills lazily: a table
# of every partition of a degree would enumerate about 10^6 of them for
# decompose 30 --method base --dual.
_conjugate_memo = cache(_conjugate)


def omega_schur(f: SchurExpansion) -> SchurExpansion:
    """Apply the omega involution: conjugate every index partition.

    Each conjugate comes from _conjugate_memo, a process-global memo of
    the shapes met so far; clear_caches() empties it.
    """
    _check_basis(SchurExpansion, f)
    return SchurExpansion._trusted(
        {_conjugate_memo(lam): c for lam, c in f._terms.items()}
    )


def total_dimension(f: SchurExpansion) -> int:
    """Dimension of the character f expands, i.e. sum of mult * dim.
    A sum needs no order, so the terms are read unsorted."""
    _check_basis(SchurExpansion, f)
    return sum(c * _dimension(lam) for lam, c in f._terms.items())
