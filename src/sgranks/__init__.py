"""Rank computations for finite semigroups.

Builds Brandt semigroups B_n and their endomorphism monoids End(B_n), computes
the five subset ranks r1..r5 with machine-checkable witness certificates, and
searches for independent sets larger than the known size-(n+2) family.
"""

from .brandt import THETA, brandt_add, build_brandt, element_to_id, id_to_element
from .core import (
    ResourceLimitError,
    SemigroupTable,
    ValidationReport,
    closure,
    format_table_text,
    idempotents,
    is_band,
    is_generating,
    is_independent,
    is_prime_subset,
    parse_table_text,
    restrict,
    validate,
    write_table_text,
)
from .endo import (
    AUTOMORPHISM,
    NONZERO_CONSTANT,
    ZERO_CONSTANT,
    Endomorphism,
    EndoMonoid,
    classify,
    compose,
    constant_map,
    enumerate_endomorphisms_oracle,
    enumerate_endomorphisms_structural,
    from_image,
    phi_of_perm,
)
from .ranks import (
    Budget,
    ConjectureReport,
    RankReport,
    SearchOutcome,
    intermediate_rank,
    large_rank,
    lower_rank,
    rank_report,
    small_rank,
    smallest_prime_subset,
    upper_rank,
    verify_conjecture,
)

__version__ = "0.1.0"
