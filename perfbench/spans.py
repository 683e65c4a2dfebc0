"""Spans around calls into each ogmirror module, and the per-layer table.

The traced child wraps the public functions of every layer (and the named
checks) from outside: each module-level reference to a function, including
the ones other modules imported with ``from .x import y``, is replaced by a
wrapper that records a span.  A span has a name ``<layer>.<function>``, a
start, an end and a parent; spans stay in memory and are written once, at
exit, as a JSON header line followed by the span columns as raw arrays.

``summarize`` turns such a document into the per-layer metrics: self time
per layer (a span's duration minus the time its child spans cover),
inclusive time per function family (outermost spans only, so recursion
through the same family is not counted twice), call counts, and the work
counters the hooks gathered.
"""

import contextlib
import functools
import json
import statistics
import sys
import time
from array import array

LAYERS = ("startup", "cli", "checks", "torus", "potential", "diagrams", "polynomials")

CHECK_NAMES = (
    "diagram_count",
    "unique_positions",
    "pair_recursion",
    "numerator_seed",
    "derivation_identity",
    "degree_sum",
    "denominator_restriction",
    "term_restriction",
    "laurent_assembly",
)

RENDER_SPANS = (
    "polynomials.to_text",
    "polynomials.to_latex",
    "polynomials.to_json_terms",
)

# Inclusive-time metrics: metric name -> span names whose outermost
# occurrences are summed.
FAMILIES = {
    "torus.restrict_all_s": ("torus.restrict_all",),
    "torus.restrict_polynomial_s": ("torus.restrict_polynomial",),
    "torus.laurent_s": ("torus.laurent_potential", "torus.restricted_term_sum"),
    **{f"checks.{name}_s": (f"checks.{name}",) for name in CHECK_NAMES},
    "polynomials.eq_s": ("polynomials.eq", "polynomials.rational_eq"),
    "polynomials.mul_s": ("polynomials.mul",),
    "polynomials.add_s": ("polynomials.add", "polynomials.sub"),
    "polynomials.render_s": RENDER_SPANS,
    "diagrams.add_box_s": ("diagrams.add_box",),
    "diagrams.enumerate_s": ("diagrams.all_diagrams", "diagrams.hasse_edges"),
    "potential.pair_levels_s": (
        "potential.denominator_pair_levels",
        "potential.numerator_pair_levels",
    ),
}

# Call-count metrics: metric name -> span name.
CALLS = {
    "torus.restrict_polynomial_calls": "torus.restrict_polynomial",
    "polynomials.mul_calls": "polynomials.mul",
    "diagrams.add_box_calls": "diagrams.add_box",
}

# Work counters gathered by hooks in the traced child.
COUNTERS = (
    "torus.restriction_terms",
    "polynomials.monomial_products",
    "polynomials.max_terms",
    "potential.pairs",
    "potential.terms",
    "diagrams.hasse_edges",
)

# Spans a CLI command spends producing output rather than results: the
# polynomial renderers and the JSON/LaTeX assembly of the potential.
CLI_RENDER_SPANS = RENDER_SPANS + (
    "potential.potential_to_json",
    "potential.potential_to_latex",
    "diagrams.format_diagram",
)

# Layer functions wrapped in the traced child.  Small helpers called only
# from inside their own layer (is_valid, box_label, addable_positions, ...)
# stay unwrapped: their time is self time of the enclosing span.
TRACED = {
    "diagrams": ("add_box", "box_moves", "add_unique_box", "all_diagrams",
                 "hasse_edges", "format_diagram", "parse_diagram"),
    "potential": ("denominator_pair_levels", "numerator_pair_levels",
                  "signed_pair_sum", "box_derivation", "potential_term",
                  "superpotential", "potential_to_json", "potential_to_latex"),
    "torus": ("reduced_word", "restrict_all", "restrict_plucker",
              "restrict_polynomial", "predicted_denominator_restriction",
              "term_restriction_factor", "term_restriction_residual",
              "coordinate_sum", "laurent_potential", "restricted_term_sum"),
    "checks": ("run_checks",),
}

POLYNOMIAL_METHODS = {
    "__mul__": "mul", "__add__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__pow__": "pow", "__eq__": "eq", "substitute": "substitute",
    "to_text": "to_text", "to_latex": "to_latex", "to_json_terms": "to_json_terms",
}

RATIONAL_METHODS = {"__eq__": "rational_eq", "__add__": "rational_add",
                    "__mul__": "rational_mul"}


class Tracer:
    """In-memory span recorder with hookable function wrappers.

    ``before(*args)`` and ``after(args, result)`` hooks run outside the span,
    so their cost shows as tracing overhead, not as layer time.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, before=None, after=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, path, meta):
        """One JSON header line, then the four columns as raw native arrays."""
        columns = {"name": self.name, "parent": self.parent,
                   "start": self.start, "end": self.end}
        header = {
            "meta": meta,
            "names": self.names,
            "counters": self.counters,
            "count": len(self.end),
            "columns": [[key, column.typecode] for key, column in columns.items()],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns.values():
                column.tofile(handle)


def span_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to a plain call, measured in this process.

    Times a wrapped and an unwrapped no-op; the median over a few repeats
    absorbs short stalls.  ``spans * span_cost()`` estimates the tracing
    overhead without the run-to-run noise of comparing two wall times.
    """
    def noop():
        return None

    traced = Tracer().wrap("bench.noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        costs.append(((end - middle) - (middle - start)) / calls)
    return max(statistics.median(costs), 0.0)


def load(path):
    """Read a spans file back; columns come back as arrays under their names."""
    with open(path, "rb") as handle:
        document = json.loads(handle.readline())
        for key, typecode in document["columns"]:
            column = array(typecode)
            column.fromfile(handle, document["count"])
            document[key] = column
    return document


def _replace_everywhere(namespaces, original, replacement):
    for namespace in namespaces:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, replacement)


def instrument(tracer):
    """Wrap the traced functions of the imported ogmirror in spans.

    Returns a function to call once after the work: it folds the per-rank
    results the hooks kept into the tracer's counters.
    """
    import ogmirror.checks
    import ogmirror.cli
    from ogmirror.polynomials import Polynomial, RationalExpression

    counters = tracer.counters
    restrictions = {}
    hasse = {}

    def count_products(left, right):
        right_terms = right.term_count() if isinstance(right, Polynomial) else int(right != 0)
        counters["polynomials.monomial_products"] += left.term_count() * right_terms

    def record_size(_args, result):
        if isinstance(result, Polynomial):
            counters["polynomials.max_terms"] = max(counters["polynomials.max_terms"],
                                                    result.term_count())

    def count_pairs(_args, levels):
        counters["potential.pairs"] += sum(len(level) for level in levels)

    def count_terms(_args, term):
        counters["potential.terms"] += (term.numerator.term_count()
                                        + term.denominator.term_count())

    def finish():
        counters["torus.restriction_terms"] = sum(
            poly.term_count() for table in restrictions.values() for poly in table.values()
        )
        counters["diagrams.hasse_edges"] = sum(hasse.values())

    hooks = {
        "torus.restrict_all": {"after": lambda args, table: restrictions.update({args[0]: table})},
        "diagrams.hasse_edges": {"after": lambda args, edges: hasse.update({args[0]: len(edges)})},
        "potential.denominator_pair_levels": {"after": count_pairs},
        "potential.numerator_pair_levels": {"after": count_pairs},
        "potential.potential_term": {"after": count_terms},
        "polynomials.mul": {"before": count_products, "after": record_size},
        "polynomials.add": {"after": record_size},
    }
    modules = [m for key, m in sys.modules.items()
               if key == "ogmirror" or key.startswith("ogmirror.")]

    def patch(owner, attr, name, namespaces):
        original = vars(owner)[attr]
        traced = tracer.wrap(name, original, **hooks.get(name, {}))
        _replace_everywhere(namespaces, original, traced)

    for layer, attrs in TRACED.items():
        for attr in attrs:
            patch(sys.modules[f"ogmirror.{layer}"], attr, f"{layer}.{attr}", modules)
    for check in CHECK_NAMES:
        patch(ogmirror.checks, f"_{check}", f"checks.{check}", modules)
    for cls, methods in ((Polynomial, POLYNOMIAL_METHODS),
                         (RationalExpression, RATIONAL_METHODS)):
        for attr, short in methods.items():
            patch(cls, attr, f"polynomials.{short}", [cls])
    for command in ogmirror.cli.main.commands.values():
        command.callback = tracer.wrap(f"cli.{command.name}", command.callback)
    return finish


def summarize(document, spawn, wall):
    """Per-layer metrics from one spans document.

    ``spawn`` is the parent's clock reading when it started the traced
    interpreter and ``wall`` the interpreter's whole lifetime; both use the
    same monotonic clock as the spans, so interpreter start-up before the
    first span is charged to the startup layer.
    """
    names = document["names"]
    name = document["name"]
    parent = document["parent"]
    start = document["start"]
    end = document["end"]
    count = len(name)

    family_of = {}
    for metric, members in FAMILIES.items():
        for member in members:
            family_of[member] = metric
    family_ids = {metric: k for k, metric in enumerate(FAMILIES)}
    family_bit = [1 << family_ids[family_of[n]] if n in family_of else 0 for n in names]
    layer_of = [n.split(".", 1)[0] for n in names]
    render_id = {k for k, n in enumerate(names) if n in CLI_RENDER_SPANS}
    command_id = {k for k, n in enumerate(names) if n.startswith("cli.") and n != "cli.main"}

    duration = [end[i] - start[i] for i in range(count)]
    children = [0.0] * count
    compute_children = [0.0] * count
    ancestors = [0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            children[p] += duration[i]
            if name[i] not in render_id:
                compute_children[p] += duration[i]
            ancestors[i] = ancestors[p] | family_bit[name[p]]

    self_time = dict.fromkeys(LAYERS, 0.0)
    inclusive = dict.fromkeys(FAMILIES, 0.0)
    calls = [0] * len(names)
    cli_render = 0.0
    for i in range(count):
        k = name[i]
        calls[k] += 1
        self_time[layer_of[k]] += duration[i] - children[i]
        bit = family_bit[k]
        if bit and not ancestors[i] & bit:
            inclusive[family_of[names[k]]] += duration[i]
        if k in command_id:
            cli_render += duration[i] - compute_children[i]

    self_time["startup"] += document["meta"]["t0"] - spawn
    metrics = dict(inclusive)
    for metric, span_name in CALLS.items():
        metrics[metric] = calls[names.index(span_name)] if span_name in names else 0
    metrics.update(document["counters"])
    metrics["cli.render_s"] = cli_render
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    attributed = sum(self_time.values())
    metrics["trace.spans"] = count
    metrics["trace.unattributed_s"] = wall - attributed
    return metrics


def _units():
    units = {}
    for layer in LAYERS:
        for name in FAMILIES:
            if name.startswith(layer + "."):
                units[name] = "s"
        for name in (*CALLS, *COUNTERS):
            if name.startswith(layer + "."):
                units[name] = "count"
        if layer == "cli":
            units["cli.render_s"] = "s"
            units["cli.output_bytes"] = "bytes"
        units[f"{layer}.self_s"] = "s"
    for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.span_cost_s", "trace.unattributed_s"):
        units[name] = "s"
    units["trace.spans"] = "count"
    return units


# Every per-layer metric a traced run reports, with its unit, in table order.
PER_LAYER_UNITS = _units()
