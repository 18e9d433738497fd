"""Per-layer tracing from outside the program.

``Tracer.install()`` rebinds the program's functions to timing wrappers:
class attributes (``Poly.__mul__``, ``QuotientRing.normal_form``, ...) and
module globals (``moycalc.reduce.exclude_variable``, ...).  A module global
is replaced in every ``moycalc`` module that holds the same function
object, so internal and recursive calls, which look the name up in their
own module, are caught too.  ``uninstall()`` puts the originals back.

Each wrapped call belongs to a layer, the program module it lives in.  Per
name the tracer keeps the call count, the inclusive time and the self time
of outermost calls (a recursive call adds to the count only).  Self time is
the duration minus the time spent in traced calls of *other* layers, so
that ``graded_homology``'s self time keeps its explicit-homology work and
drops the ``Poly`` arithmetic underneath.  Calls of low frequency are also
kept as spans (id, name, start, end, parent span id, item); everything
stays in memory until ``write()``.
"""

import itertools
import json
import sys
import time

from moycalc import (diagram, homology, laurent, mf, moybracket, poly,
                     quotient, reduce)

_clock = time.perf_counter


class _Stat:
    __slots__ = ("calls", "active", "incl", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.active = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counts = {"diagram.glue_rows": 0, "mf.explicit_entries": 0,
                       "reduce.steps": 0, "reduce.kept_exclusions": 0,
                       "reduce.residual_rows": 0,
                       "homology.fallback_reduce_calls": 0,
                       "moybracket.resolutions": 0, "moybracket.stuck": 0}
        self.spans = []
        self.item = None
        self._stack = []          # frames: [layer, foreign seconds, span id]
        self._ids = itertools.count()
        self._restore = []

    # -- rebinding ---------------------------------------------------------

    def install(self):
        c = self.counts
        stat = self._stat

        def glued(result):
            c["diagram.glue_rows"] += len(result.rows)

        def explicit(result):
            c["mf.explicit_entries"] += (len(result.d0.entries)
                                         + len(result.d1.entries))

        def reduced(result):
            summands, trace = result
            c["reduce.steps"] += len(trace.steps)
            c["reduce.kept_exclusions"] += sum(
                1 for kind, _ in trace.steps if kind == "exclude")
            c["reduce.residual_rows"] += sum(len(s.rows) for s in summands)
            if stat("homology.graded_homology").active:
                c["homology.fallback_reduce_calls"] += 1

        def expanded(result):
            c["moybracket.resolutions"] += len(result)

        def stuck(exc):
            if (isinstance(exc, moybracket.StuckGraph)
                    and stat("moybracket.bracket").active == 1):
                c["moybracket.stuck"] += 1

        for name, layer, owner, attr, span, hooks in (
                ("diagram.parse", "diagram", diagram, "parse_diagram",
                 False, {}),
                ("diagram.glue", "diagram", diagram, "glue", True,
                 {"result": glued}),
                ("symm", "symm", diagram, "power_sum_at", True, {}),
                ("symm", "symm", diagram, "pi_poly", True, {}),
                ("symm", "symm", diagram, "uv_polys", True, {}),
                ("poly.mul", "poly", poly.Poly, "__mul__", False, {}),
                ("poly.add", "poly", poly.Poly, "__add__", False, {}),
                ("quotient.normal_form", "quotient", quotient.QuotientRing,
                 "normal_form", False, {}),
                ("quotient.with_rule", "quotient", quotient.QuotientRing,
                 "with_rule", False, {}),
                ("mf.potential", "mf", mf.KoszulMF, "potential", False, {}),
                ("mf.to_explicit", "mf", mf.KoszulMF, "to_explicit", True,
                 {"result": explicit}),
                ("mf.verify", "mf", mf, "verify_factorization", True, {}),
                ("reduce.auto_reduce", "reduce", reduce, "auto_reduce", True,
                 {"result": reduced}),
                ("reduce.exclude", "reduce", reduce, "exclude_variable", True,
                 {}),
                ("homology.graded_homology", "homology", homology,
                 "graded_homology", True, {}),
                ("homology.explicit", "homology", homology,
                 "_explicit_homology", True, {}),
                ("moybracket.expand", "moybracket", moybracket,
                 "expand_crossings", False, {"result": expanded}),
                ("moybracket.from_diagram", "moybracket", moybracket.MOYGraph,
                 "from_diagram", False, {}),
                ("moybracket.bracket", "moybracket", moybracket, "bracket",
                 False, {"error": stuck}),
                ("laurent.mul", "laurent", laurent.LaurentPoly, "__mul__",
                 False, {})):
            self._rebind(owner, attr, self.wrap(name, layer, span, **hooks))
        return self

    def _rebind(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
            holders = [owner]
        elif isinstance(owner, type):
            wrapped = make(raw)
            holders = [owner]
        elif raw.__module__ != owner.__name__:
            # a function imported into owner: trace only the owner's calls
            wrapped = make(raw)
            holders = [owner]
        else:
            wrapped = make(raw)
            holders = [m for name, m in sys.modules.items()
                       if name.partition(".")[0] == "moycalc"
                       and m is not None and m.__dict__.get(attr) is raw]
        for holder in holders:
            for key, value in list(holder.__dict__.items()):
                if value is raw:    # aliases such as __rmul__ = __mul__
                    self._restore.append((holder, key, value))
                    setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def _stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = _Stat()
        return s

    def wrap(self, name, layer, span=False, result=None, error=None):
        """A factory that wraps one function as the traced call ``name``."""
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                span_id = (next(ids) if span
                           else parent[2] if parent else None)
                frame = [layer, 0.0, span_id]
                stack.append(frame)
                stat.active += 1
                start = _clock()
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    stat.raised += 1
                    if error is not None:
                        error(exc)
                    raise
                finally:
                    end = _clock()
                    stack.pop()
                    stat.active -= 1
                    stat.calls += 1
                    elapsed = end - start
                    if not stat.active:
                        stat.incl += elapsed
                        stat.self_s += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += (elapsed if parent[0] != layer
                                      else frame[1])
                    if span:
                        spans.append((span_id, name, start, end,
                                      parent[2] if parent else None,
                                      tracer.item))
                if result is not None:
                    result(out)
                return out
            traced.__wrapped__ = fn
            return traced
        return make

    # -- report ------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        s = self._stat
        c = self.counts
        excl = s("reduce.exclude")
        return {
            "diagram.parse_calls": (s("diagram.parse").calls, "count"),
            "diagram.parse_s": (s("diagram.parse").incl, "s"),
            "diagram.glue_s": (s("diagram.glue").self_s, "s"),
            "diagram.glue_rows": (c["diagram.glue_rows"], "rows"),
            "symm.s": (s("symm").incl, "s"),
            "poly.mul_calls": (s("poly.mul").calls, "count"),
            "poly.mul_s": (s("poly.mul").incl, "s"),
            "poly.add_calls": (s("poly.add").calls, "count"),
            "poly.add_s": (s("poly.add").incl, "s"),
            "quotient.normal_form_calls":
                (s("quotient.normal_form").calls, "count"),
            "quotient.normal_form_s":
                (s("quotient.normal_form").self_s, "s"),
            "quotient.with_rule_calls":
                (s("quotient.with_rule").calls, "count"),
            "mf.to_explicit_s": (s("mf.to_explicit").incl, "s"),
            "mf.verify_s": (s("mf.verify").incl, "s"),
            "mf.explicit_entries": (c["mf.explicit_entries"], "count"),
            "mf.potential_calls": (s("mf.potential").calls, "count"),
            "mf.potential_s": (s("mf.potential").incl, "s"),
            "reduce.auto_reduce_s": (s("reduce.auto_reduce").self_s, "s"),
            "reduce.steps": (c["reduce.steps"], "count"),
            "reduce.exclude_calls": (excl.calls, "count"),
            "reduce.exclude_raised": (excl.raised, "count"),
            "reduce.exclude_kept_ratio":
                (c["reduce.kept_exclusions"] / excl.calls if excl.calls
                 else 0.0, "ratio"),
            "reduce.residual_rows": (c["reduce.residual_rows"], "rows"),
            "homology.graded_homology_s":
                (s("homology.graded_homology").self_s, "s"),
            "homology.fallback_reduce_calls":
                (c["homology.fallback_reduce_calls"], "count"),
            "homology.explicit_summands":
                (s("homology.explicit").calls, "count"),
            "moybracket.resolutions": (c["moybracket.resolutions"], "count"),
            "moybracket.rewrites": (s("moybracket.bracket").calls, "count"),
            "moybracket.bracket_s": (s("moybracket.bracket").self_s, "s"),
            "moybracket.from_diagram_s":
                (s("moybracket.from_diagram").incl, "s"),
            "moybracket.stuck": (c["moybracket.stuck"], "count"),
            "laurent.mul_calls": (s("laurent.mul").calls, "count"),
            "laurent.mul_s": (s("laurent.mul").incl, "s"),
        }

    def write(self, path, header):
        """Write spans and counters once, as one JSON document."""
        doc = dict(header)
        doc["calls"] = {name: {"calls": st.calls, "incl_s": st.incl,
                               "self_s": st.self_s, "raised": st.raised}
                        for name, st in sorted(self.stats.items())}
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "item"]
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

