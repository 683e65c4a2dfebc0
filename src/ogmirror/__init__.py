"""Canonical Landau-Ginzburg mirror superpotentials for OG(n+1, 2n+2).

Exact construction of the superpotential in diagram-indexed Plücker
variables, plus machine verification of its torus-restriction identities
through an independent path-sum computation over the weight poset.
"""

from .diagrams import (
    Diagram,
    DiagramPair,
    LabeledBox,
    StructuralError,
    add_box,
    add_unique_box,
    addable_positions,
    all_diagrams,
    box_count,
    box_label,
    box_moves,
    diagram,
    empty_diagram,
    format_diagram,
    full_columns,
    hasse_edges,
    is_valid,
    parse_diagram,
    remove_box,
    removable_positions,
    staircase,
    staircase_prefix,
)
from .polynomials import (
    QUANTUM,
    Polynomial,
    RationalExpression,
    plucker_var,
    torus_var,
)
from .potential import (
    SuperpotentialTerm,
    box_derivation,
    denominator_pair_levels,
    numerator_pair_levels,
    potential_term,
    signed_pair_sum,
    superpotential,
)
from .torus import (
    laurent_potential,
    predicted_denominator_restriction,
    reduced_word,
    restrict_all,
    restrict_plucker,
    restrict_polynomial,
    restricted_term_sum,
    restriction_residuals,
    term_restriction_factor,
    term_restriction_residual,
    verify_term_restriction,
)
from .checks import CheckResult, all_passed, restriction_checks, run_checks

__version__ = "0.1.0"
