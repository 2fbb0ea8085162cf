"""Query pools for the three benchmark workloads.

Every query is an argv list for ``foulkes.cli.main``. The pools are
fixed; ``--seed`` only chooses the order of a sweep session and the
draw of one-shot queries. Partitions are enumerated here by the
benchmark's own generator so that the pools do not depend on the
package under test.
"""

from __future__ import annotations

import random
from functools import cache

# |nu| range of the formula sweep. At 12 the hook-first alternating sums
# dominate (0.9-1.2 s cold for r = 7..9), which is where the choice of
# hook variant and the strip enumerator show.
FORMULA_SIZES = range(1, 13)

# The oracle sweep uses every partition of one size, inside the oracle's
# default cap of 9 so FOULKES_MAX_N is never needed.
ORACLE_SIZE = 8

_FORMATS = ("text", "json", "csv")


@cache
def partitions(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most cap, reverse-lex order."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    )


def fmt(nu: tuple[int, ...]) -> str:
    return ",".join(map(str, nu)) if nu else "-"


def is_hook(nu: tuple[int, ...]) -> bool:
    return len(nu) < 2 or nu[1] == 1


def auto_supported(nu: tuple[int, ...]) -> bool:
    """Shapes the CLI's auto dispatch handles: at most two rows, at most
    two columns, or a hook."""
    return len(nu) <= 2 or nu[0] <= 2 or is_hook(nu)


def formula_sweep() -> list[list[str]]:
    """decompose and decompose --dual, JSON, for every auto-supported nu."""
    out = []
    for n in FORMULA_SIZES:
        for nu in partitions(n):
            if auto_supported(nu):
                out.append(["decompose", fmt(nu), "--format", "json"])
                out.append(["decompose", fmt(nu), "--dual", "--format", "json"])
    return out


def oracle_sweep() -> list[list[str]]:
    """oracle with both inner shapes, JSON, for every nu of ORACLE_SIZE."""
    return [
        ["oracle", fmt(nu), "--inner", inner, "--format", "json"]
        for nu in partitions(ORACLE_SIZE)
        for inner in ("s2", "e2")
    ]


def _methods(nu: tuple[int, ...]) -> list[str]:
    out = ["auto"]
    if not nu:
        return out
    if len(nu) <= 2:
        out.append("two-row")
    if nu[0] <= 2:
        out.append("two-column")
    if is_hook(nu):
        out += ["hook-first", "hook-second"]
    if len(nu) == 1 or nu[0] == 1:
        out.append("base")
    return out


def _decompose_pool() -> list[list[str]]:
    # Each (nu, method) pair appears once; dual and format are cycled so
    # every combination of the two occurs.
    out = []
    k = 0
    for n in range(9):
        for nu in partitions(n):
            for method in _methods(nu):
                argv = ["decompose", fmt(nu), "--method", method]
                if k % 2:
                    argv.append("--dual")
                argv += ["--format", _FORMATS[k % 3]]
                out.append(argv)
                k += 1
    return out


def _oracle_pool() -> list[list[str]]:
    out = []
    k = 0
    for n in range(7):
        for nu in partitions(n):
            for inner in ("s2", "e2"):
                out.append(
                    ["oracle", fmt(nu), "--inner", inner, "--format", _FORMATS[k % 3]]
                )
                k += 1
    return out


def _compare_pool() -> list[list[str]]:
    out = []
    k = 0
    for n in range(1, 7):
        for nu in partitions(n):
            if not auto_supported(nu):
                continue
            for dual in (False, True):
                argv = ["compare", fmt(nu)]
                if dual:
                    argv.append("--dual")
                argv += ["--format", ("text", "json")[k % 2]]
                out.append(argv)
                k += 1
    return out


def _table_pool() -> list[list[str]]:
    out = []
    k = 0
    for kind, first in (("n-2,1,1", 3), ("n-2,2", 4)):
        for n in range(first, 11):
            for verify in (False, True):
                argv = ["table", str(n), "--kind", kind]
                if verify:
                    argv.append("--verify")
                argv += ["--format", _FORMATS[k % 3]]
                out.append(argv)
                k += 1
    return out


def _lr_pool() -> list[list[str]]:
    # A spread of lambda of size 2..12 against splits of its size; some
    # triples have mu outside lambda and so a zero coefficient.
    out = []
    k = 0
    for s in range(2, 13, 2):
        lams = partitions(s)[:: max(1, len(partitions(s)) // 4)]
        a = s // 2
        for lam in lams:
            for mu in partitions(a)[:: max(1, len(partitions(a)) // 3)]:
                nus = partitions(s - a)
                nu = nus[k % len(nus)]
                argv = ["lr", fmt(lam), fmt(mu), fmt(nu)]
                argv += ["--format", ("text", "json")[k % 2]]
                out.append(argv)
                k += 1
    return out


# Queries that must fail with a defined exit code: 2 for a shape or
# parse error, 3 for an oracle query over the default cap.
_ERRORS = [
    ["decompose", "3,2,1"],
    ["decompose", "4,3,2,1", "--format", "json"],
    ["decompose", "2,2,1", "--method", "two-row"],
    ["decompose", "3,2", "--method", "hook-first"],
    ["decompose", "3,x"],
    ["decompose", "1,2"],
    ["oracle", "2,,1"],
    ["lr", "2,3", "1", "1"],
    ["compare", "3,2,1"],
    ["table", "3", "--kind", "n-2,2"],
    ["oracle", "10"],
    ["oracle", "5,5", "--inner", "e2"],
    ["oracle", "4,3,2,1", "--format", "json"],
    ["compare", "10"],
]


def oneshot_pool() -> list[list[str]]:
    """Every one-shot query, all five subcommands and the expected errors."""
    return (
        _decompose_pool()
        + _oracle_pool()
        + _compare_pool()
        + _table_pool()
        + _lr_pool()
        + [list(q) for q in _ERRORS]
    )


def all_queries() -> list[list[str]]:
    """Every query any workload can generate (the golden table's keys)."""
    return formula_sweep() + oracle_sweep() + oneshot_pool()


def session_order(
    queries: list[list[str]], workload: str, seed: int, session: int
) -> list[list[str]]:
    """The queries of one sweep session, shuffled by seed and session.

    Sessions come in pairs: the second of a pair runs the first's order
    backwards, so a query that met cold memos in one meets warm ones in
    the other, and a run's latency percentiles depend less on the draw.
    """
    order = list(queries)
    random.Random(f"{workload}:{seed}:{session // 2}").shuffle(order)
    return order[::-1] if session % 2 else order


def oneshot_draw(seed: int):
    """Endless stream of one-shot queries: the pool in an order shuffled
    by seed, shuffled again each time it runs out. Every query is equally
    likely, and a run's mix stays closer to the pool's than with
    independent draws."""
    pool = oneshot_pool()
    rng = random.Random(f"cli_oneshot:{seed}")
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order
