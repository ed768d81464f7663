"""Exact involution/cyclic-subgroup invariants of finite groups.

For a finite group G presented as a multiplication table, the package
counts i(G) = |{x : x^2 = e}| and c(G) = |{cyclic subgroups}| exactly,
verifies the classification of groups with small r(G) = c(G) - i(G) by
exhaustive enumeration, and realizes beta(G) = i(G)/c(G) targets with
greedy products of dihedral groups.
"""

from .arith import (
    DEFAULT_PRIME_CAP,
    MAX_PRIME_CAP,
    euler_phi,
    is_unit_involution,
    iter_odd_primes,
    odd_primes,
    rational_from_decimal,
    tau,
    unit_involutions,
)
from .catalog import CatalogEntry, builtin_catalog, catalog_group
from .classify import (
    VerificationReport,
    check_lemma31a,
    check_lemma31b,
    check_lemma41,
    check_lemma42,
    check_unique_cyclic_normality,
    order12_case_f_report,
    r_value,
    theorem1_families,
    verify_c_order_deficit,
    verify_involution_threshold,
    verify_lemmas,
    verify_semidirect_dichotomy,
    verify_theorem1,
)
from .density import PrimeSelection, TooLarge, approximate_beta, materialize, selection_beta
from .enumeration import (
    DEFAULT_ENUM_CAP,
    EnumerationResult,
    all_groups_upto,
    enumerate_groups,
    known_census,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidGroupError,
    InvariantViolationError,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    ParseError,
    ResourceLimitError,
)
from .expr import GroupExpr, evaluate, parse_group_expr
from .groups import (
    DEFAULT_TABLE_CAP,
    CyclicSubgroupSet,
    FiniteGroup,
    GroupInvariants,
    cyclic_subgroups,
    dihedral_product,
    direct_product,
    element_order,
    element_orders,
    invariants,
    involution_count,
    is_elementary_abelian_2,
    is_normal_subgroup,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian_2,
    semidirect_zn_z2,
    verify_axioms,
)
from .iso import IsoFingerprint, IsoWitness, are_isomorphic, fingerprint, identify

__version__ = "0.1.0"
