"""Every name the benchmark's tracer wraps still exists in ogmirror.

perfbench/spans.py looks each traced attribute up with ``vars(owner)[attr]``,
so renaming or deleting one breaks ``perfbench/run.py --trace 1``.  The
tracer module is loaded from its file (it imports only the standard
library) and is not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ogmirror.checks
from ogmirror.polynomials import Polynomial, RationalExpression

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist(spans):
    for layer, attrs in spans.TRACED.items():
        module = sys.modules[f"ogmirror.{layer}"]
        missing = [attr for attr in attrs if attr not in vars(module)]
        assert not missing, f"ogmirror.{layer} lacks {missing}"


def test_traced_check_builders_exist(spans):
    missing = [
        name for name in spans.CHECK_NAMES if f"_{name}" not in vars(ogmirror.checks)
    ]
    assert not missing


@pytest.mark.parametrize(
    "owner, table",
    ((Polynomial, "POLYNOMIAL_METHODS"), (RationalExpression, "RATIONAL_METHODS")),
)
def test_traced_methods_exist(spans, owner, table):
    missing = [attr for attr in getattr(spans, table) if attr not in vars(owner)]
    assert not missing
