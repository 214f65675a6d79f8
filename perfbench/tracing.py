"""Span tracing around the calls `pbfem solve` makes into each layer.

Nothing inside ``src/pbfem`` is edited.  While a :class:`Tracer` is
installed, the names the CLI and the solver look up at call time are
swapped for timing wrappers and restored on exit:

- ``pbfem.cli.build`` returns the spec with its ``DynamicProblem``
  callables ``f``/``c``/``b`` wrapped (``dataclasses.replace``): ``ad.eval``;
- ``pbfem.cli.TranscribedNLP`` / ``pbfem.cli.transcribe_collocation`` are
  the per-stage NLP constructions of the solver's factory:
  ``transcription.build``.  The returned NLP gets its ``merit``
  (``transcription.merit``) and ``newton_system``
  (``transcription.newton_system``) wrapped, and every Newton-system object
  that ``newton_system`` returns gets its ``solve`` wrapped
  (``transcription.factor``);
- ``pbfem.cli.solve`` (``solver.solve``), ``pbfem.cli.initial_guess``
  (``mesh.initial_guess``) and ``pbfem.solver.feasibility_residual_exact``
  (``problem.oracle``).

Spans are kept in memory as ``[name, start, end, parent, error]`` and
reduced to per-name self times (duration minus the time of the spans it
caused) when the traced solve has ended.  Spans nest on one stack, so the
self times inside a span add up to its duration by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import pbfem.cli
import pbfem.solver

_NAME, _START, _END, _PARENT, _ERROR = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        cli = pbfem.cli
        build, initial_guess = cli.build, cli.initial_guess
        fe_nlp, colloc_nlp = cli.TranscribedNLP, cli.transcribe_collocation

        def traced_build(name):
            spec = build(name)
            p = spec.problem
            problem = dataclasses.replace(
                p, f=self.wrap("ad.eval", p.f), c=self.wrap("ad.eval", p.c),
                b=self.wrap("ad.eval", p.b))
            return dataclasses.replace(spec, problem=problem)

        def nlp_builder(make):
            timed_make = self.wrap("transcription.build", make)

            def build_nlp(*args, **kwargs):
                return self._instrument_nlp(timed_make(*args, **kwargs))
            return build_nlp

        self._patch(cli, "build", self.wrap("benchmarks.build", traced_build))
        self._patch(cli, "initial_guess", self.wrap("mesh.initial_guess", initial_guess))
        self._patch(cli, "solve", self.wrap("solver.solve", cli.solve))
        self._patch(cli, "TranscribedNLP", nlp_builder(fe_nlp))
        self._patch(cli, "transcribe_collocation", nlp_builder(colloc_nlp))
        self._patch(pbfem.solver, "feasibility_residual_exact",
                    self.wrap("problem.oracle", pbfem.solver.feasibility_residual_exact))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False

    def _instrument_nlp(self, nlp):
        newton_system = self.wrap("transcription.newton_system", nlp.newton_system)

        def traced_newton_system(x):
            g, system = newton_system(x)
            system.solve = self.wrap("transcription.factor", system.solve)
            return g, system

        nlp.merit = self.wrap("transcription.merit", nlp.merit)
        nlp.newton_system = traced_newton_system
        return nlp

    # -- reduction -------------------------------------------------------
    def _self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, covered)]

    def summary(self):
        """Per span name: call count, inclusive seconds, self seconds and
        the calls that raised, counted by exception name."""
        out = {}
        for span, self_s in zip(self.spans, self._self_times()):
            row = out.setdefault(span[_NAME], {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "errors": {}})
            row["calls"] += 1
            row["total_s"] += span[_END] - span[_START]
            row["self_s"] += self_s
            if span[_ERROR] is not None:
                row["errors"][span[_ERROR]] = row["errors"].get(span[_ERROR], 0) + 1
        return out


def span_cost_s(n=50_000):
    """Seconds a span adds to one call: an empty function called ``n``
    times through :meth:`Tracer.wrap`, less the same calls made bare."""
    def nop():
        return None

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    return per_call(Tracer().wrap("nop", nop)) - per_call(nop)
