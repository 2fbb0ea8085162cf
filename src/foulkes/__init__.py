"""Exact decomposition of the plethysms s_nu(s_(2)) and s_nu(s_(1,1)).

Closed formulas live in :mod:`foulkes.formulas`, together with the
formula dispatcher :func:`decompose` that picks one for a given nu; a
slow but independent brute-force expansion lives in
:mod:`foulkes.oracle`.  Everything is integer or Fraction arithmetic,
nothing is floating point.  Intermediate results are memoized for the
life of the process; :func:`clear_caches` empties every memo.

The top level carries what a caller of the paper's results needs: the
closed formulas and Table 1, :func:`decompose`, the oracle, the
expansion types with their basis changes and the LR products, the
partition I/O and utilities, and the errors these raise.  The helpers
behind Table 1 and the characters (``double_hook``,
``count_even_shifts``, ``centralizer_order`` and the like), the two
errors only they raise, and the aliases ``omega_dual`` and
``induce_product`` stay importable from :mod:`foulkes.partitions`,
:mod:`foulkes.errors` and :mod:`foulkes.formulas`.
"""

import sys

from .errors import (
    DegreeMismatchError,
    FoulkesError,
    InvalidShapeError,
    NonIntegerCoefficientError,
    PartitionParseError,
    ResourceBoundError,
    UnsupportedShapeError,
)
from .expansions import (
    PowerSumExpansion,
    SchurExpansion,
    mn_character,
    omega_schur,
    powersum_to_schur,
    schur_to_powersum,
    total_dimension,
)
from .formulas import (
    METHODS,
    TABLE_NU_KINDS,
    decompose,
    phi_hook,
    phi_hook_depth1_closed,
    phi_one_column,
    phi_one_row,
    phi_two_column,
    phi_two_one_column_closed,
    phi_two_row,
    table_multiplicity,
    table_nu,
    table_row_class,
)
from .lr import lr_coefficient, schur_multiply
from .oracle import (
    DEFAULT_MAX_WEIGHT,
    oracle_plethysm_e2,
    oracle_plethysm_s2,
)
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    format_partition,
    generate_distinct_partitions,
    generate_partitions,
    irreducible_dimension,
    parse_partition,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every functools.cache memo of the package's loaded modules.

    That is the partition lists, the character columns, the bead
    masks with their index and the border strip tables, the integer
    power sums of s_nu, the power-sum brackets of the oracle, the
    Littlewood-Richardson products and the shared copies of their
    shapes, the one-row and one-column bases, their factor products
    and the alternating sums over them, the conjugates omega_schur has
    met, and the command line's JSON term heads and argparse parser
    (_build_parser, built only for an argv its own reader leaves). The
    memos of a module that loads on first use (the strip engine in
    foulkes._characters) are among them once it has loaded. The memos
    are process-global and grow with the sizes asked for; clearing
    them frees that memory and changes no result, the next call only
    computes again.
    """
    for name, module in list(sys.modules.items()):
        if module is not None and (name == __name__ or name.startswith(__name__ + ".")):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


__all__ = [
    "DEFAULT_MAX_WEIGHT",
    "DegreeMismatchError",
    "FoulkesError",
    "InvalidShapeError",
    "METHODS",
    "NonIntegerCoefficientError",
    "Partition",
    "PartitionParseError",
    "PowerSumExpansion",
    "ResourceBoundError",
    "SchurExpansion",
    "TABLE_NU_KINDS",
    "UnsupportedShapeError",
    "as_partition",
    "clear_caches",
    "conjugate",
    "decompose",
    "format_partition",
    "generate_distinct_partitions",
    "generate_partitions",
    "irreducible_dimension",
    "lr_coefficient",
    "mn_character",
    "omega_schur",
    "oracle_plethysm_e2",
    "oracle_plethysm_s2",
    "parse_partition",
    "phi_hook",
    "phi_hook_depth1_closed",
    "phi_one_column",
    "phi_one_row",
    "phi_two_column",
    "phi_two_one_column_closed",
    "phi_two_row",
    "powersum_to_schur",
    "schur_multiply",
    "schur_to_powersum",
    "table_multiplicity",
    "table_nu",
    "table_row_class",
    "total_dimension",
]
