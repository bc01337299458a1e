"""Exact certificates for balanced geometry on inner-type non-compact simple
Lie algebras: root systems, the compactness catalog, admissible orderings,
balanced metrics, pluriclosed obstructions and Chern scalar curvature.

All arithmetic is exact rational; one invariant complex structure on the
toral part is fixed once and for all and plays no role in any implemented
quantity, so it is never represented.
"""

__version__ = "0.1.0"

from .balanced import (
    BalancedMetric,
    InfeasibleOrdering,
    assemble_system,
    family_metric,
    scan_binvariant,
    solve_constructive,
    solve_for_pair,
    solve_so1_2n,
    verify_balanced,
)
from .chern import (
    chern_report,
    chern_scalar,
    ricci_value,
    weyl_delta,
)
from .ordering import (
    decompose_over,
    find_admissible_ordering,
    noncompact_witness,
    make_ordering,
    satisfies_partner_property,
    standard_ordering,
)
from .pairs import (
    CatalogError,
    CompactnessGrading,
    InnerPair,
    catalog,
    compactness,
    infer_grading,
    pair_by_name,
    split_positive,
)
from .pluriclosed import (
    build_certificate,
    epsilon,
    find_noncompact_interacting_pair,
    instantiate_relation,
    verify_certificate,
)
from .rootsys import (
    InvariantViolation,
    RootSystem,
    RootSystemError,
    RootVector,
    SimpleSystem,
    all_simple_systems,
    build_root_system,
    reflect,
    root_vector,
)
