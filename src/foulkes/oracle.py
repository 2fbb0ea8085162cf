"""Brute-force plethysm oracle, independent of the closed formulas.

Expands s_nu(s_(2)) and s_nu(s_(1,1)) from first principles: write
s_nu in the power-sum basis, substitute each p_r by its plethysm with
the inner function, multiply out, and convert back to the Schur basis.
All of it runs in integers: s_nu's power sums over |nu|! and the
brackets (p_r p_r +- p_2r) / 2 over 2^|nu|, multiplied out by the
public power-sum product of int-valued PowerSumExpansions, so the
public powersum_to_schur gets |nu|! 2^|nu| times the plethysm with int
coefficients, and one exact division per s_lam ends it.
The only shared code with the formula side is the basic partition and
expansion types; in particular nothing here touches the
Littlewood-Richardson engine, and the s_(1,1) route is computed
directly rather than through the omega involution so that the duality
relation stays testable.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable

from .errors import ResourceBoundError
from .expansions import (
    PowerSumExpansion,
    SchurExpansion,
    _class_sums,
    _divide_exactly,
    powersum_to_schur,
)
from .partitions import Partition, _as_size, _clip_int, as_partition

# Cap on |nu| for oracle runs. The first call at a size n fills the
# character columns it needs, those of the power-sum terms of 2n with
# the largest part taken out, about 1.4-3.4x the time and 1.2-1.6x the
# memory per step (cold s_(n)[s_2]: 34 ms at n = 9, 56 ms at 10, 0.19 s
# at 11, 0.26 s at 12, and 29 MB max RSS for s2 then e2 at 12, on a
# 2-core VM whose speed drifts by up to 2x, Python 3.11.7); a later
# call of that size adds the columns it still lacks. The bench golden
# table pins exit 3 for the oracle queries at |nu| = 10, so the cap
# stays at 9. Callers can raise it explicitly (the CLI reads
# FOULKES_MAX_N).
DEFAULT_MAX_WEIGHT = 9


def _check_cap(nu: Partition, max_weight: int | None) -> None:
    cap = DEFAULT_MAX_WEIGHT if max_weight is None else max_weight
    cap = _as_size(cap, "max_weight")
    if sum(nu) > cap:
        raise ResourceBoundError(
            f"|nu| = {_clip_int(sum(nu))} exceeds the oracle cap {_clip_int(cap)}; "
            "raise max_weight (or FOULKES_MAX_N for the CLI) to override"
        )


@cache
def _multiply_out(mu: Partition, sign: int) -> tuple[tuple[Partition, int], ...]:
    """prod_r (p_r p_r + sign * p_2r) over the parts r of mu, as integer
    coefficients keyed by the sorted parts of each power-sum product.

    Each bracket is an int-valued PowerSumExpansion, and the public
    power-sum product multiplies them out, in ints."""
    acc = PowerSumExpansion._trusted({(): 1})
    for r in mu:
        acc = acc * PowerSumExpansion._trusted({(r, r): 1, (2 * r,): sign})
    return tuple(acc._terms.items())


def _oracle(nu: Partition, inner: str) -> SchurExpansion:
    # s_nu is the sum of c_mu p_mu / n! (_class_sums), and each p_r
    # becomes (p_r p_r +- p_2r) / 2. Weighting the brackets of mu by
    # c_mu 2^(n - len(mu)) gives n! 2^n times the plethysm in integer
    # power sums, whose Schur coefficients are integers too.
    sign = 1 if inner == "s2" else -1
    n = sum(nu)
    acc: dict[Partition, int] = {}
    for mu, c in _class_sums(nu):
        weight = c << (n - len(mu))
        for key, m in _multiply_out(mu, sign):
            acc[key] = acc.get(key, 0) + weight * m
    scaled = powersum_to_schur(PowerSumExpansion._trusted(acc))
    return _divide_exactly(scaled._terms.items(), factorial(n) << n)


def oracle_plethysm_s2(
    nu: Iterable[int], max_weight: int | None = None
) -> SchurExpansion:
    """Schur expansion of s_nu(s_(2)), computed by brute force.

    Each call computes the expansion again from the memoized character
    columns and power-sum terms. Raises ResourceBoundError when |nu|
    exceeds the cap (DEFAULT_MAX_WEIGHT unless max_weight says
    otherwise), InvalidShapeError when max_weight is negative, and
    TypeError when it is not an integer.
    """
    nu = as_partition(nu)
    _check_cap(nu, max_weight)
    return _oracle(nu, "s2")


def oracle_plethysm_e2(
    nu: Iterable[int], max_weight: int | None = None
) -> SchurExpansion:
    """Schur expansion of s_nu(s_(1,1)), computed by brute force."""
    nu = as_partition(nu)
    _check_cap(nu, max_weight)
    return _oracle(nu, "e2")
