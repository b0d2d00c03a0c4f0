"""Spans and counters around qlbn's public functions, for the traced run only.

Tracer.install() rebinds each traced function at every loaded qlbn module
attribute that holds it, including names one module imported from another
(qlbn.scenarios.infer, qlbn.heuristic.completion_magnitudes, ...). Calls the
package makes internally therefore pass through the wrappers and nest into
parent/child spans, and the package itself is not edited. uninstall() puts
the original functions back.

Functions run once per completion (full_joint, amplitude_product) are only
counted: a span each would cost more than the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

RENDERERS = (
    "render_report_table", "render_report_csv", "render_table3", "render_table3_csv",
    "render_observed_vs_predicted_csv", "render_model_comparison_csv",
)

# module -> {function name -> span name}
SPANNED = {
    "qlbn.cli": {"main": "cli.main"},
    "qlbn.scenarios": {
        "predict_unknown": "scenarios.predict_unknown",
        "scenario_to_network": "scenarios.scenario_to_network",
        "run_comparison": "scenarios.run_comparison",
        "run_reproduction": "scenarios.run_reproduction",
        "load_scenarios": "scenarios.load_scenarios",
        **{name: "scenarios.render" for name in RENDERERS},
    },
    "qlbn.heuristic": {
        "degree_for_query": "heuristic.degree_for_query",
        "extract_outcome_vectors": "heuristic.extract_outcome_vectors",
        "belief_distance": "heuristic.belief_distance",
        "belief_degree": "heuristic.belief_degree",
    },
    "qlbn.quantum": {
        "amplitudes_from_network": "quantum.amplitudes_from_network",
        "completion_magnitudes": "quantum.completion_magnitudes",
        "interference_sum": "quantum.interference_sum",
        "quantum_infer": "quantum.quantum_infer",
    },
    "qlbn.bayesnet": {
        "load_network": "bayesnet.load_network",
        "network_from_dict": "bayesnet.network_from_dict",
        "infer": "bayesnet.infer",
    },
}

COUNTED = {
    "qlbn.bayesnet": {"full_joint": "bayesnet.full_joint.calls"},
    "qlbn.quantum": {"amplitude_product": "quantum.amplitude_product.calls"},
}

SPAN_NAMES = tuple(dict.fromkeys(n for names in SPANNED.values() for n in names.values()))


def _completions(net, query, evidence) -> int:
    """outcomes(query) x product of the unobserved variables' outcome counts."""
    total = 1
    for v in net.variables:
        if v.name == query or v.name not in evidence:
            total *= len(v.outcomes)
    return total


class Tracer:
    """Collects spans for the operation numbered `op`, plus per-pass counts.

    A span is (op, parent index, name, start ns, end ns). Spans of a pass stay
    in memory until take_pass(), which the benchmark calls between passes.
    """

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for module_name, names in SPANNED.items():
            module = sys.modules.get(module_name)
            for attr, span_name in names.items():
                if module is not None:
                    fn = getattr(module, attr)
                    replacements[id(fn)] = (fn, self._spanned(span_name, fn))
        for module_name, names in COUNTED.items():
            module = sys.modules.get(module_name)
            for attr, counter in names.items():
                if module is not None:
                    fn = getattr(module, attr)
                    replacements[id(fn)] = (fn, self._counted(counter, fn))
        for name, module in list(sys.modules.items()):
            if name != "qlbn" and not name.startswith("qlbn."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _counted(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        observe = self._observer(name)
        layer = name.split(".", 1)[0]

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count each error once, in the layer whose function raised it first.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counts[f"{layer}.{type(exc).__name__}.count"] += 1
                raise
            finally:
                spans[index] = (self.op, parent, name, start, clock())
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _observer(self, name: str):
        counts = self.counts
        if name in ("bayesnet.infer", "quantum.completion_magnitudes"):
            def observe(args, result):
                net = getattr(args[0], "net", args[0])
                counts["bayesnet.completions.count"] += _completions(net, args[1], args[2])
        elif name == "quantum.interference_sum":
            def observe(args, result):
                k = len(args[0])
                counts["quantum.pairs.count"] += k * (k - 1) // 2
        elif name == "heuristic.degree_for_query":
            def observe(args, result):
                counts["heuristic.degrees"] += 1
                counts["heuristic.clamped"] += result.clamped
        elif name == "quantum.quantum_infer":
            def observe(args, result):
                counts["quantum.outcomes"] += len(result.outcomes)
                counts["quantum.clamped"] += sum(om.clamped for om in result.outcomes)
        else:
            observe = None
        return observe

    # -- per-pass collection -------------------------------------------------

    def take_pass(self) -> tuple[list[tuple], Counter]:
        """Hand over this pass's spans and counts and start the next pass empty."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


class SpanStats:
    """Inclusive and self time per span name, overall and per operation tag."""

    def __init__(self) -> None:
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.by_tag: dict[object, Counter] = defaultdict(Counter)

    def add_pass(self, spans: list[tuple], tag_of_op) -> None:
        children_ns = [0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                children_ns[parent] += end - start
        for index, (op, _, name, start, end) in enumerate(spans):
            duration = end - start
            self.inclusive_ns[name] += duration
            self.self_ns[name] += duration - children_ns[index]
            self.calls[name] += 1
            self.by_tag[tag_of_op(op)][name] += duration
