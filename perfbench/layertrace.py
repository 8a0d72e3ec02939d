"""Traced runs: time the calls into each qsymx module from outside the
package, without changing any file under src/.

``Tracer.installed()`` wraps every public function (the module's
``__all__``) of each layer module, plus ``TruncatedCharacter.value`` and
the CLI's ``main``, ``decompose`` and ``verify`` commands, and binds each
wrapper under every name a qsymx module (or the CLI's command table) holds
for the original, so that calls between modules are seen too.

Each wrapped call records a span: name, start, end and parent span.  Spans
stay in memory and are written out when the traced pass ends; self time is
derived from them.  The helpers in ``AGGREGATED`` are called up to 10^6
times per pass, and a span per call would more than double the run time,
so they only add to a per-name call count, total time and self time.
"""

import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

from workloads import max_bits

LAYERS = (
    "exactnum",
    "compositions",
    "permutations",
    "qsym",
    "characters",
    "identities",
    "cli",
)

# Helpers counted and timed in aggregate instead of one span per call: every
# traced function with more than 5,000 calls in one pass of some workload
# when the benchmark was defined.
AGGREGATED = frozenset(
    {
        "compositions.composition",
        "compositions.to_index",
        "compositions.from_index",
        "compositions.stats",
        "compositions.p_minus",
        "compositions.p_plus",
        "compositions.refinements",
        "compositions.delannoy_paths",
        "compositions.quasi_shuffle",
        "permutations.augmented_peaks",
        "permutations.interior_peaks",
        "exactnum.as_fraction",
        "exactnum.binomial",
        "exactnum.central_binomial",
        "exactnum.catalan",
        "exactnum.bivariate_catalan",
        "qsym.qsym_basis",
        "characters.value",
        "characters.eval_M",
    }
)

# Per-layer metrics besides <layer>.self_s and <layer>.calls.  ".s" is the
# time inside the function (outermost calls only, children included);
# ".calls" a call count.
INCLUSIVE = (
    "characters.decompose",
    "characters.inverse",
    "characters.convolve",
    "characters.bar",
    "characters.restrict",
    "characters.eval_M",
    "characters.eval_F",
    "qsym.multiply_M",
    "qsym.multiply_F",
    "qsym.multiply_tensor",
    "qsym.coproduct",
    "qsym.antipode",
    "qsym.to_F",
    "qsym.to_M",
    "qsym.descent_map",
    "compositions.all_compositions",
    "permutations.shuffles",
    "permutations.multiply_ssym",
    "exactnum.bivariate_catalan",
)
CALLS = (
    "characters.value",
    "compositions.delannoy_paths",
    "compositions.quasi_shuffle",
    "compositions.refinements",
    "compositions.coarsenings",
    "compositions.stats",
    "exactnum.bivariate_catalan",
)
# The CLI commands are reported by self time: argument handling, the
# closed-form comparison loop and JSON output.
SELF = ("cli.decompose", "cli.verify")


def _span_namer(name):
    """Span names that depend on the arguments: products are split by
    basis, registry checks by id."""
    if name == "qsym.multiply":
        return lambda args, kwargs: "qsym.multiply_" + (args[0] if args else kwargs["x"]).basis
    if name == "identities.verify":
        return lambda args, kwargs: "identities." + (args[0] if args else kwargs["check_id"])
    return None


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, seconds covered by children)
        self.spans = []
        self.stack = []  # one [child seconds] frame per open wrapped call
        self.current = -1  # index of the innermost open span
        self.aggregates = {}  # name -> [calls, total seconds, self seconds]
        self.terms = 0  # terms in the results of qsym.multiply
        self.decomposed = []  # results of characters.decompose

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        namer = _span_namer(name)
        is_multiply = name == "qsym.multiply"
        is_decompose = name == "characters.decompose"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            parent = tracer.current
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.current = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.current = parent
                label = namer(args, kwargs) if namer else name
                tracer.spans[index] = (label, start, end, parent, frame[0])
                if stack:
                    stack[-1][0] += end - start
            if is_multiply:
                tracer.terms += len(result.coeffs)
            elif is_decompose:
                tracer.decomposed.extend(result)
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        tracer = self
        tally = self.aggregates.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tally[0] += 1
                tally[1] += elapsed
                tally[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _wrap(self, fn, name):
        if name in AGGREGATED:
            return self._aggregate_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    # -- installation -------------------------------------------------------

    def _originals(self):
        """(name, function) for every traced function."""
        import qsymx.characters
        import qsymx.cli

        out = []
        for layer in LAYERS:
            module = sys.modules["qsymx." + layer]
            for attr in getattr(module, "__all__", ()):
                value = getattr(module, attr)
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    out.append(("%s.%s" % (layer, attr), value))
        out.append(("characters.value", qsymx.characters.TruncatedCharacter.value))
        out.append(("cli.main", qsymx.cli.main))
        out.append(("cli.decompose", qsymx.cli._cmd_decompose))
        out.append(("cli.verify", qsymx.cli._cmd_verify))
        return out

    @contextmanager
    def installed(self):
        """Bind wrappers for the duration of the block, then restore every
        original binding."""
        import qsymx.characters
        import qsymx.cli

        wrappers = {id(fn): (fn, self._wrap(fn, name)) for name, fn in self._originals()}
        restore = []
        namespaces = [
            vars(module)
            for name, module in sys.modules.items()
            if name == "qsymx" or name.startswith("qsymx.")
        ]
        namespaces.append(qsymx.cli._COMMANDS)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    restore.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)][1]
        value_fn, value_wrapper = wrappers[id(qsymx.characters.TruncatedCharacter.value)]
        qsymx.characters.TruncatedCharacter.value = value_wrapper
        try:
            yield self
        finally:
            qsymx.characters.TruncatedCharacter.value = value_fn
            for namespace, key, value in restore:
                namespace[key] = value

    # -- metrics of the traced pass ---------------------------------------

    def pass_metrics(self, registry_ids) -> dict:
        """Per-layer metrics of the calls traced so far."""
        calls, inclusive, self_s = {}, {}, {}
        for name, (count, total, own) in self.aggregates.items():
            calls[name] = count
            inclusive[name] = total
            self_s[name] = own
        spans = self.spans
        for index, (name, start, end, parent, covered) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:  # outermost call of this name
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)

        metrics = {}
        for layer in LAYERS:
            prefix = layer + "."
            metrics[layer + ".self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(prefix)
            )
            metrics[layer + ".calls"] = sum(
                v for k, v in calls.items() if k.startswith(prefix)
            )
        for name in INCLUSIVE:
            metrics[name + ".s"] = inclusive.get(name, 0.0)
        for name in CALLS:
            metrics[name + ".calls"] = calls.get(name, 0)
        for name in SELF:
            metrics[name + ".s"] = self_s.get(name, 0.0)
        metrics["characters.entries"] = sum(
            len(row) for t in self.decomposed for row in t.tables
        )
        metrics["characters.max_bits"] = (
            max_bits(self.decomposed) if self.decomposed else 0
        )
        metrics["qsym.multiply.terms"] = self.terms
        metrics["permutations.peaks.calls"] = calls.get(
            "permutations.interior_peaks", 0
        ) + calls.get("permutations.augmented_peaks", 0)
        for check_id in registry_ids:
            metrics["identities.%s.s" % check_id] = inclusive.get(
                "identities." + check_id, 0.0
            )
        return metrics

    def call_counts(self) -> dict:
        """Calls per traced name, spans and aggregates."""
        counts = {name: tally[0] for name, tally in self.aggregates.items()}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def write(self, path, number: int):
        """Append every span to the file at `path` as traced pass `number`,
        one per line: pass, index and parent index within the pass, name,
        start and end in seconds, and seconds covered by children."""
        new = not os.path.exists(path)
        with open(path, "a") as out:
            if new:
                out.write("pass\tindex\tparent\tname\tstart_s\tend_s\tchildren_s\n")
            for index, (name, start, end, parent, covered) in enumerate(self.spans):
                out.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\n"
                    % (number, index, parent, name, start, end, covered)
                )
