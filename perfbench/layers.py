"""Per-layer tracing for the benchmark's traced passes.

``install`` wraps the public functions of each qgroth layer from outside the
program.  A wrapper replaces the function under every name that refers to
it, in the defining module and in each module that imported it (for example
``qgroth.qcluster.exact_left_divide`` and ``qgroth.compat.f_form``), and in
the criterion lists of ``qgroth.verify``.  Each call of a wrapped function
records a span (name, parent, start, end) in memory; the hot helpers
``f_form`` and ``lambda_of`` only count calls.  ``layer_metrics`` derives
call counts, inclusive and self times and the division counters from the
spans, and ``Tracer.dump`` writes the spans out when the pass ends.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Inclusive times count only the outermost span of a name, so a
nested call of the same layer is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import VERIFY_CRITERIA

_clock = time.perf_counter_ns

# Span index fields.
NAME, PARENT, START, END = range(4)

# (metric, unit, how it is derived, from which span, counter or field):
#   calls - call count of a span or counted function
#   incl  - time of the outermost spans of that name, callees included
#   self  - time of the spans minus their direct child spans
#   max   - largest value of a per-division counter
#   steps - star products issued inside a division span
#   term_pairs - sum over star products of |a| * |b|
#   pair  - measured by run.py from a traced and an untraced pass
METRICS = [
    ("cartan.f_form.calls", "count", "calls", "cartan.f_form"),
    ("quiver.build_slice.s", "s", "incl", "quiver.build_slice"),
    ("quiver.mutate_matrix.calls", "count", "calls", "quiver.mutate_matrix"),
    ("quiver.mutate_matrix.s", "s", "incl", "quiver.mutate_matrix"),
    ("compat.build_lambda.s", "s", "incl", "compat.build_lambda"),
    ("compat.mutate_lambda.calls", "count", "calls", "compat.mutate_lambda"),
    ("compat.mutate_lambda.s", "s", "incl", "compat.mutate_lambda"),
    ("compat.check_compatible.s", "s", "incl", "compat.check_compatible"),
    ("qtorus.star.calls", "count", "calls", "qtorus.star"),
    ("qtorus.star.s", "s", "self", "qtorus.star"),
    ("qtorus.star.term_pairs", "count", "term_pairs", None),
    ("qtorus.lambda_of.calls", "count", "calls", "qtorus.lambda_of"),
    ("qtorus.lead_trail.calls", "count", "calls", "qtorus.lead_trail"),
    ("qtorus.lead_trail.s", "s", "incl", "qtorus.lead_trail"),
    ("qtorus.divide.calls", "count", "calls", "qtorus.divide"),
    ("qtorus.divide.s", "s", "self", "qtorus.divide"),
    ("qtorus.divide.steps", "count", "steps", None),
    ("qtorus.divide.num_terms_max", "count", "max", "num_terms"),
    ("qtorus.divide.den_terms_max", "count", "max", "den_terms"),
    ("qtorus.divide.quot_terms_max", "count", "max", "quot_terms"),
    ("qtorus.divide.coeff_bits_max", "bits", "max", "coeff_bits"),
    ("qtorus.bar.s", "s", "incl", "qtorus.bar"),
    ("qcluster.mutate.calls", "count", "calls", "qcluster.mutate"),
    ("qcluster.mutate.s", "s", "self", "qcluster.mutate"),
    ("qcluster.exchange.s", "s", "incl", "qcluster.exchange"),
    ("qcluster.classical.s", "s", "incl", "qcluster.classical"),
    ("qcluster.classical_div.s", "s", "incl", "qcluster.classical_div"),
    ("repchar.fund_char.s", "s", "incl", "repchar.fund_char"),
    ("repchar.oracle.s", "s", "incl", "repchar.oracle"),
    *[(f"verify.crit_{n}.s", "s", "incl", f"verify.crit_{n}") for n in range(1, VERIFY_CRITERIA + 1)],
    ("cli.self.s", "s", "self", "cli.main"),
    ("trace_overhead_ratio", "ratio", "pair", None),
]
PER_LAYER_METRICS = [(name, unit) for name, unit, _how, _src in METRICS]


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start ns, end ns]
        self.attrs: dict[int, dict] = {}  # per-span counters of divisions
        self.counts: dict[str, list[int]] = {}
        self.term_pairs = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, enter=None, leave=None):
        """Wrap fn so each call records a span; enter(idx, args) runs at the
        start and leave(idx, result) after a normal return."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, _clock(), None])
            stack.append(idx)
            if enter is not None:
                enter(idx, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = _clock()
                stack.pop()
            if leave is not None:
                leave(idx, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def close_open(self) -> None:
        """End every span left open by an interrupted call (a missed
        deadline), so the partial trace stays consistent."""
        now = _clock()
        for s in self.spans:
            if s[END] is None:
                s[END] = now
        self._stack.clear()

    def dump(self, path, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        obj = {
            "meta": meta,
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "names": names,
            "spans": [[ids[n], p, a - t0, b - t0] for n, p, a, b in self.spans],
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(obj, fh)


def _coeff_bits(el) -> int:
    return max(
        (abs(c).bit_length() for coeff in el.terms.values() for c in coeff.values()),
        default=0,
    )


def _replace_everywhere(orig, wrapped) -> None:
    """Rebind every module-level name, and criterion-list entry, that refers
    to orig inside the qgroth package."""
    for name, mod in list(sys.modules.items()):
        if name != "qgroth" and not name.startswith("qgroth."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)
    verify = sys.modules["qgroth.verify"]
    for lst in (verify.ALL_CRITERIA, verify.QUICK_CRITERIA):
        lst[:] = [wrapped if f is orig else f for f in lst]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported qgroth package."""
    import qgroth.cli  # noqa: F401 - loads every layer module
    from qgroth import cartan, cli, compat, qcluster, qtorus, quiver, repchar, verify

    def span_fn(name, mod, attr, **hooks):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, tracer.span(name, orig, **hooks))

    def count_fn(name, mod, attr):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, tracer.counter(name, orig))

    count_fn("cartan.f_form", cartan, "f_form")
    count_fn("qtorus.lambda_of", qtorus, "lambda_of")
    span_fn("quiver.build_slice", quiver, "build_slice")
    span_fn("quiver.mutate_matrix", quiver, "mutate_matrix")
    span_fn("compat.build_lambda", compat, "build_lambda")
    span_fn("compat.mutate_lambda", compat, "mutate_lambda")
    span_fn("compat.check_compatible", compat, "check_compatible")

    def divide_enter(idx, args):
        num, den = args[0], args[1]
        tracer.attrs[idx] = {"num_terms": len(num.terms), "den_terms": len(den.terms),
                             "coeff_bits": max(_coeff_bits(num), _coeff_bits(den))}

    def divide_leave(idx, quot):
        rec = tracer.attrs[idx]
        rec["quot_terms"] = len(quot.terms)
        rec["coeff_bits"] = max(rec["coeff_bits"], _coeff_bits(quot))

    span_fn("qtorus.divide", qtorus, "exact_left_divide",
            enter=divide_enter, leave=divide_leave)

    def star_enter(idx, args):
        tracer.term_pairs += len(args[0].terms) * len(args[1].terms)

    te = qtorus.TorusElement
    te.__mul__ = tracer.span("qtorus.star", te.__mul__, enter=star_enter)
    te.bar = tracer.span("qtorus.bar", te.bar)
    te.lead_key = tracer.span("qtorus.lead_trail", te.lead_key)
    te.trail_key = tracer.span("qtorus.lead_trail", te.trail_key)

    span_fn("qcluster.mutate", qcluster, "mutate")
    span_fn("qcluster.exchange", qcluster, "_frame_monomial")
    span_fn("qcluster.classical", qcluster, "classical_mutate_along")
    span_fn("qcluster.classical_div", qcluster, "cp_exact_div")
    span_fn("repchar.fund_char", repchar, "fundamental_qt_character")
    span_fn("repchar.oracle", repchar, "classical_fm_qchar")
    span_fn("repchar.oracle", repchar, "fm_qchar_embedded")
    for crit in list(verify.ALL_CRITERIA):  # named crit_<n>_<what>
        span_fn(f"verify.crit_{crit.__name__.split('_')[1]}", verify, crit.__name__)
    span_fn("cli.main", cli, "main")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, all but trace_overhead_ratio."""
    spans = tracer.spans
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0] * n
    in_divide = [False] * n
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    self_t: dict[str, int] = {}
    steps = 0
    for i, (name, parent, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += dur[i]
            in_divide[i] = in_divide[parent] or spans[parent][NAME] == "qtorus.divide"
        if name == "qtorus.star" and in_divide[i]:
            steps += 1
        p = parent
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            incl[name] = incl.get(name, 0) + dur[i]
    for i, (name, *_rest) in enumerate(spans):
        self_t[name] = self_t.get(name, 0) + dur[i] - child[i]

    divs = tracer.attrs.values()
    derive = {
        "calls": lambda src: (tracer.counts[src][0] if src in tracer.counts
                              else calls.get(src, 0)),
        "incl": lambda src: incl.get(src, 0) / 1e9,
        "self": lambda src: self_t.get(src, 0) / 1e9,
        "max": lambda src: max((rec.get(src, 0) for rec in divs), default=0),
        "steps": lambda src: steps,
        "term_pairs": lambda src: tracer.term_pairs,
    }
    return {name: derive[how](src) for name, _unit, how, src in METRICS if how != "pair"}


def largest_division(tracer: Tracer) -> dict | None:
    """The division span with the largest numerator, with its counters."""
    if not tracer.attrs:
        return None
    idx, rec = max(tracer.attrs.items(), key=lambda kv: kv[1]["num_terms"])
    s = tracer.spans[idx]
    return {"span": idx, "seconds": (s[END] - s[START]) / 1e9, **rec}
