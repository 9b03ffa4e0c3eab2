"""Per-layer tracing of qmatalg from outside the package.

`Tracer.install()` replaces every public function of each qmatalg module
with a wrapper, under every name that function is bound to in any loaded
qmatalg module (``invariants`` imports ``nullspace`` and ``multiply`` by
name, so patching ``exactla.nullspace`` alone would miss their calls).
It also patches a few methods for counts: ``LaurentInt.__mul__`` and
``__rmul__``, and ``_Context.word_image`` for the memo hit ratio.
`Tracer.uninstall()` puts every original back.

Each wrapped call is a span whose parent is the span open when it
started.  Spans are folded into per-function totals as they close: a
span's self time is its duration minus the durations of its child spans,
added to the function and to its module (the layer).  Laurent arithmetic
is counted but not timed, since a span per multiplication would cost more
than the multiplication; its time stays in the calling span.
"""

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import qmatalg.cli  # noqa: F401  (every layer must be loaded before install)
from qmatalg import invariants, laurent

# rmat_hecke is left out: no workload reaches it
LAYERS = ("laurent", "exactla", "hookcomb", "qalgebra", "uqaction", "invariants", "cli")
# laurent functions run millions of times inside elimination: count only
COUNT_ONLY_LAYERS = ("laurent",)


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def qmatalg_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qmatalg" or name.startswith("qmatalg."))]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._open = []          # child-time accumulator of each open span
        self._patched = []       # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _span(self, fn, key):
        open_spans = self._open
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += d
                calls[key] += 1
                self_s[key] += d - child[0]

        return traced

    def _counter(self, fn, key):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _untimed(self, work, *args):
        """Run trace bookkeeping without charging it to the open span."""
        t0 = perf_counter()
        work(*args)
        if self._open:
            self._open[-1][0] += perf_counter() - t0

    # -- counters fed from call arguments and results --------------------

    def _matrix_stats(self, matrix):
        rows = matrix.rows
        self.counts["exactla.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        self.counts["exactla.nnz"] += sum(1 for r in rows for e in r if e)

    def _kernel_stats(self, vectors):
        for v in vectors:
            terms = [e.terms for e in v.entries if e]
            if not terms:
                continue
            coeff = max(max(map(abs, t.values())) for t in terms)
            span = max(max(t) for t in terms) - min(min(t) for t in terms)
            self.maxima["exactla.kernel_coeff_bits_max"] = max(
                self.maxima["exactla.kernel_coeff_bits_max"], coeff.bit_length())
            self.maxima["exactla.kernel_exp_span_max"] = max(
                self.maxima["exactla.kernel_exp_span_max"], span)

    def _wrap_exactla(self, name, fn):
        """exactla wrappers that also read matrices and kernels for counters."""
        key = "exactla." + name
        span = self._span(fn, key)
        if name == "rank":
            def rank(matrix):
                self._untimed(self._matrix_stats, matrix)
                return span(matrix)
            return rank
        if name == "nullspace":
            def nullspace(matrix):
                self._untimed(self._matrix_stats, matrix)
                basis = span(matrix)
                self._untimed(self._kernel_stats, basis)
                return basis
            return nullspace
        return span

    def _wrap_normal_form_stats(self, fn):
        span = self._span(fn, "qalgebra.normal_form_stats")
        counts = self.counts

        def normal_form_stats(e, pres):
            result = span(e, pres)
            counts["qalgebra.rewrite_steps"] += result[1]
            return result

        return normal_form_stats

    def _wrap_word_image(self, fn):
        span = self._span(fn, "invariants.word_image")
        counts = self.counts

        def word_image(ctx, word):
            if word in ctx._images:
                counts["invariants.word_image.hits"] += 1
            return span(ctx, word)

        return word_image

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = qmatalg_modules()
        replacement = {}
        for layer in LAYERS:
            module = sys.modules["qmatalg." + layer]
            for name, fn in _public_functions(module).items():
                key = f"{layer}.{name}"
                if layer in COUNT_ONLY_LAYERS:
                    new = self._counter(fn, key)
                elif layer == "exactla":
                    new = self._wrap_exactla(name, fn)
                elif key == "qalgebra.normal_form_stats":
                    new = self._wrap_normal_form_stats(fn)
                else:
                    new = self._span(fn, key)
                replacement[id(fn)] = (fn, new)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        self._set(laurent.LaurentInt, "__mul__",
                  self._counter(laurent.LaurentInt.__mul__, "laurent.mul"))
        self._set(laurent.LaurentInt, "__rmul__",
                  self._counter(laurent.LaurentInt.__rmul__, "laurent.mul"))
        self._set(invariants._Context, "word_image",
                  self._wrap_word_image(invariants._Context.word_image))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS if layer not in COUNT_ONLY_LAYERS}
        for key, t in self.self_s.items():
            out[key.split(".", 1)[0]] += t
        return out

    def metrics(self, wall_s):
        """Per-layer metric values, keyed by benchmark metric name."""
        calls, self_s = self.calls, self.self_s
        layers = self.layer_self_s()
        word_calls = calls["invariants.word_image"]
        values = {
            "laurent.mul_calls": calls["laurent.mul"],
            "laurent.div_exact_calls": calls["laurent.lau_div_exact"],
            "exactla.nullspace.calls": calls["exactla.nullspace"],
            "exactla.nullspace.self_s": self_s["exactla.nullspace"],
            "exactla.kernel_coeff_bits_max": self.maxima["exactla.kernel_coeff_bits_max"],
            "exactla.kernel_exp_span_max": self.maxima["exactla.kernel_exp_span_max"],
            "exactla.rank.calls": calls["exactla.rank"],
            "exactla.rank.self_s": self_s["exactla.rank"],
            "exactla.cells": self.counts["exactla.cells"],
            "exactla.nnz": self.counts["exactla.nnz"],
            "qalgebra.normal_form.calls": calls["qalgebra.normal_form"],
            "qalgebra.normal_form.self_s": (self_s["qalgebra.normal_form"]
                                            + self_s["qalgebra.normal_form_stats"]),
            "qalgebra.rewrite_steps": self.counts["qalgebra.rewrite_steps"],
            "qalgebra.multiply.calls": calls["qalgebra.multiply"],
            "qalgebra.graded_basis.self_s": self_s["qalgebra.graded_basis"],
            "uqaction.act.calls": calls["uqaction.act"],
            "uqaction.act.self_s": self_s["uqaction.act"],
            "uqaction.is_invariant.calls": calls["uqaction.is_invariant"],
            "uqaction.invariant_subspace.self_s": self_s["uqaction.invariant_subspace"],
            "invariants.word_image.calls": word_calls,
            "invariants.word_image.hit_ratio": (
                self.counts["invariants.word_image.hits"] / word_calls if word_calls else 0.0),
        }
        for layer, t in layers.items():
            values[f"{layer}.self_s"] = t
        values["unattributed_s"] = wall_s - sum(layers.values())
        return values
