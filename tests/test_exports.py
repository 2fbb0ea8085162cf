"""The public surface of the package: `foulkes.__all__`."""

import foulkes
from foulkes import expansions

PUBLIC = [
    "DEFAULT_MAX_WEIGHT",
    "DegreeMismatchError",
    "EmptyIncludeSetError",
    "FoulkesError",
    "InvalidShapeError",
    "METHODS",
    "NonIntegerCoefficientError",
    "Partition",
    "PartitionParseError",
    "PowerSumExpansion",
    "RepeatedPartsError",
    "ResourceBoundError",
    "SchurExpansion",
    "TABLE_NU_KINDS",
    "UnsupportedShapeError",
    "as_partition",
    "centralizer_order",
    "clear_caches",
    "conjugate",
    "count_even_shifts",
    "decompose",
    "distinct_part_count",
    "double",
    "double_hook",
    "drop_count",
    "format_partition",
    "generate_distinct_partitions",
    "generate_partitions",
    "induce_product",
    "irreducible_dimension",
    "lr_coefficient",
    "mn_character",
    "omega_dual",
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
    "repeated_part_count",
    "schur_multiply",
    "schur_to_powersum",
    "table_multiplicity",
    "table_nu",
    "table_row_class",
    "total_dimension",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 52
    assert foulkes.__all__ == PUBLIC


def test_every_export_resolves():
    for name in foulkes.__all__:
        assert hasattr(foulkes, name), name


def test_shared_expansion_body_stays_private():
    base = expansions._Expansion
    assert "_Expansion" not in foulkes.__all__
    assert not hasattr(foulkes, "_Expansion")
    assert issubclass(foulkes.SchurExpansion, base)
    assert issubclass(foulkes.PowerSumExpansion, base)
    assert not issubclass(foulkes.SchurExpansion, foulkes.PowerSumExpansion)
    assert not issubclass(foulkes.PowerSumExpansion, foulkes.SchurExpansion)
