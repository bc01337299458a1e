"""Exact certificates for balanced geometry on inner-type non-compact simple
Lie algebras: root systems, the compactness catalog, admissible orderings,
balanced metrics, pluriclosed obstructions and Chern scalar curvature.

All arithmetic is exact rational; one invariant complex structure on the
toral part is fixed once and for all and plays no role in any implemented
quantity, so it is never represented.
"""

__version__ = "0.1.0"

from .balanced import (
    InfeasibleOrdering,
    assemble_system,
    scan_binvariant,
    solve_constructive,
    solve_for_pair,
    solve_so1_2n,
    verify_balanced,
)
from .chern import chern_report, weyl_delta
from .ordering import find_admissible_ordering, standard_ordering
from .pairs import catalog, pair_by_name
from .pluriclosed import build_certificate, verify_certificate
from .rootsys import RootSystemError, reflect
