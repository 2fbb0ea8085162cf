"""The public surface of the package: `foulkes.__all__`."""

import importlib

import pytest

import foulkes
from foulkes import expansions

PUBLIC = [
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

# Helpers of Table 1 and the characters, the errors only they raise and
# two aliases: off the top level, each importable from its own module.
MOVED = {
    "omega_dual": "formulas",
    "induce_product": "formulas",
    "count_even_shifts": "partitions",
    "distinct_part_count": "partitions",
    "repeated_part_count": "partitions",
    "drop_count": "partitions",
    "double": "partitions",
    "double_hook": "partitions",
    "centralizer_order": "partitions",
    "RepeatedPartsError": "errors",
    "EmptyIncludeSetError": "errors",
}


def test_all_is_pinned():
    assert len(PUBLIC) == 41
    assert foulkes.__all__ == PUBLIC
    assert len(MOVED) == 11


def test_every_export_resolves():
    for name in foulkes.__all__:
        assert hasattr(foulkes, name), name


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_name_lives_in_its_module(name):
    assert not hasattr(foulkes, name)
    assert name not in foulkes.__all__
    module = importlib.import_module(f"foulkes.{MOVED[name]}")
    assert getattr(module, name).__module__ == module.__name__


def test_shared_expansion_body_stays_private():
    base = expansions._Expansion
    assert "_Expansion" not in foulkes.__all__
    assert not hasattr(foulkes, "_Expansion")
    assert issubclass(foulkes.SchurExpansion, base)
    assert issubclass(foulkes.PowerSumExpansion, base)
    assert not issubclass(foulkes.SchurExpansion, foulkes.PowerSumExpansion)
    assert not issubclass(foulkes.PowerSumExpansion, foulkes.SchurExpansion)
