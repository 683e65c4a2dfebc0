"""The package loads each layer on first use.

`import ogmirror.cli` loads only the box calculus; the potential, torus and
check layers load when a command or a caller first reads them.  Every name
the package exported when it imported all its layers up front still
resolves, to the very object its module holds.
"""

import importlib
import os
import subprocess
import sys

import pytest

import ogmirror

EXPORTS = {
    "diagrams": (
        "Diagram", "DiagramPair", "LabeledBox", "StructuralError", "add_box",
        "add_unique_box", "addable_positions", "all_diagrams", "box_count",
        "box_label", "box_moves", "diagram", "empty_diagram", "format_diagram",
        "full_columns", "hasse_edges", "is_valid", "parse_diagram", "remove_box",
        "removable_positions", "staircase", "staircase_prefix",
    ),
    "polynomials": (
        "QUANTUM", "Polynomial", "RationalExpression", "plucker_var", "torus_var",
    ),
    "potential": (
        "SuperpotentialTerm", "box_derivation", "denominator_pair_levels",
        "numerator_pair_levels", "potential_term", "signed_pair_sum",
        "superpotential",
    ),
    "torus": (
        "laurent_potential", "predicted_denominator_restriction", "reduced_word",
        "restrict_all", "restrict_plucker", "restrict_polynomial",
        "restricted_term_sum", "restriction_residuals", "term_restriction_factor",
        "term_restriction_residual", "verify_term_restriction",
    ),
    "checks": ("CheckResult", "all_passed", "restriction_checks", "run_checks"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _fresh(code):
    """stdout of `code` run in a new interpreter importing this ogmirror."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ogmirror.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_cli_import_loads_only_the_box_calculus():
    loaded = _fresh(
        "import ogmirror.cli, sys;"
        " print(' '.join(sorted(m for m in sys.modules if m.startswith('ogmirror'))))"
    )
    assert loaded.split() == ["ogmirror", "ogmirror.cli", "ogmirror.diagrams"]


def test_a_command_runs_on_the_standard_library_alone():
    # click, and dataclasses with the inspect module it imports, cost more
    # start-up time than a small verify takes to run
    printed = _fresh(
        "import sys, ogmirror.cli\n"
        "try:\n"
        "    ogmirror.cli.main(['verify', '--n', '2'], prog_name='ogmirror')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code\n"
        "print('loaded:', *(m for m in ('click', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    assert printed.splitlines()[-2:] == ["VERIFIED n=2", "loaded:"]


def test_a_submodule_loads_on_attribute_access():
    assert _fresh("import ogmirror; print(ogmirror.torus.__name__)") == "ogmirror.torus\n"


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_name_is_the_module_attribute(module, name):
    namespace = {}
    exec(f"from ogmirror import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"ogmirror.{module}"), name)
    assert getattr(ogmirror, name) is namespace[name]


def test_dir_lists_every_export():
    listed = set(dir(ogmirror))
    assert {name for _, name in NAMES} <= listed
    assert set(EXPORTS) <= listed
    assert set(ogmirror.__all__) == {name for _, name in NAMES}
    assert ogmirror.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ogmirror.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ogmirror import no_such_name", {})
