"""Canonical Landau-Ginzburg mirror superpotentials for OG(n+1, 2n+2).

Exact construction of the superpotential in diagram-indexed Plücker
variables, plus machine verification of its torus-restriction identities
through an independent path-sum computation over the weight poset.

The names below are loaded on first use, each from its module, so a
command imports only the layers it reads.
"""

import importlib

_EXPORTS = {
    "diagrams": (
        "Diagram",
        "DiagramPair",
        "LabeledBox",
        "StructuralError",
        "add_box",
        "add_unique_box",
        "addable_positions",
        "all_diagrams",
        "box_count",
        "box_label",
        "box_moves",
        "diagram",
        "empty_diagram",
        "format_diagram",
        "full_columns",
        "hasse_edges",
        "is_valid",
        "parse_diagram",
        "remove_box",
        "removable_positions",
        "staircase",
        "staircase_prefix",
    ),
    "polynomials": (
        "QUANTUM",
        "Polynomial",
        "RationalExpression",
        "plucker_var",
        "torus_var",
    ),
    "potential": (
        "SuperpotentialTerm",
        "box_derivation",
        "denominator_pair_levels",
        "numerator_pair_levels",
        "potential_term",
        "signed_pair_sum",
        "superpotential",
    ),
    "torus": (
        "laurent_potential",
        "predicted_denominator_restriction",
        "reduced_word",
        "restrict_all",
        "restrict_plucker",
        "restrict_polynomial",
        "restricted_term_sum",
        "restriction_residuals",
        "term_restriction_factor",
        "term_restriction_residual",
        "verify_term_restriction",
    ),
    "checks": ("CheckResult", "all_passed", "restriction_checks", "run_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
