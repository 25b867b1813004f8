"""Spans and counts recorded around the package's public functions.

The recorder wraps functions and planner constructors of
``exposure_bandits`` from outside the package, by rebinding every module
attribute that refers to them.  A wrapped call opens a span (name, start,
end, parent span) kept in memory; a few boundaries also record a count
(simulated rounds, table cells).  A layer's self time is its span's
duration less the time covered by its child spans.

Two sets of wrappers exist.  ``install_timers`` wraps only what the
end-to-end metrics need: the planner constructors, ``dp_star`` and
``run_episode``, a handful of calls per operation.  ``install_layers``
adds one span per layer function (``doalg``, ``mer_table``, sampling,
accounting, ...), and ``uninstall_layers`` takes them out again, so a
traced run can run each operation with and without them and report the
difference as the tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PLAN_SPANS = frozenset(
    {"dp.DpPolicy", "dp.dp_star", "lcb.LcbPolicy", "lcb.AlcbPolicy", "lmatch.LlcbPolicy"}
)
LCB_POLICY_SPANS = frozenset({"lcb.LcbPolicy", "lcb.AlcbPolicy"})


class Span:
    __slots__ = ("name", "parent", "start", "end", "rounds", "cells", "states")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.rounds = self.cells = self.states = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store.  Spans are kept only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layers_from: int | None = None

    # -- recording ---------------------------------------------------------

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _spanned(self, name, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = Span(name, rec._stack[-1] if rec._stack else -1)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active:
                rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every package module attribute bound to ``original`` at
        ``wrapper``, so calls made inside the package go through it too."""
        found = False
        for name, mod in list(sys.modules.items()):
            if name != "exposure_bandits" and not name.startswith("exposure_bandits."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    found = True
        if not found:
            raise RuntimeError(f"{original!r} is bound in no package module")

    def _wrap_function(self, module, attr, name, on_result=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._spanned(name, original, on_result))

    def _wrap_init(self, cls, name) -> None:
        original = cls.__dict__["__init__"]
        cls.__init__ = self._spanned(name, original)
        self._undo.append((cls, "__init__", original))

    def install_timers(self, eb) -> None:
        """Spans the end-to-end metrics are computed from."""
        self._wrap_init(eb.DpPolicy, "dp.DpPolicy")
        self._wrap_init(eb.LcbPolicy, "lcb.LcbPolicy")
        self._wrap_init(eb.AlcbPolicy, "lcb.AlcbPolicy")
        self._wrap_init(eb.LlcbPolicy, "lmatch.LlcbPolicy")
        self._wrap_function(eb.dp, "dp_star", "dp.dp_star")
        self._wrap_function(eb.env, "run_episode", "env.run_episode", _note_rounds)

    def install_layers(self, eb, cli) -> None:
        """One span per layer function, for the traced operations."""
        self._layers_from = len(self._undo)
        mods = sys.modules
        self._wrap_function(eb.env, "sample_arrivals", "env.sample_arrivals")
        self._wrap_function(
            eb.env, "recompute_expected_reward", "env.recompute_expected_reward"
        )
        self._wrap_function(eb.dp, "mer_table", "dp.mer_table", _note_table)
        self._wrap_function(eb.matching, "doalg", "matching.doalg")
        self._wrap_function(eb.lcb, "lcb_star", "lcb.lcb_star")
        greedy = eb.lcb.greedy_subset
        rec = self

        @functools.wraps(greedy)
        def greedy_counting_oracle(instance, oracle):
            return greedy(instance, rec._counted("lcb.oracle_calls", oracle))

        self._rebind(greedy, self._spanned("lcb.greedy_subset", greedy_counting_oracle))
        self._wrap_function(mods["exposure_bandits.lmatch"], "lmatch", "lmatch.lmatch")
        explore = eb.learn.explore_phase_step
        self._rebind(explore, self._counted("learn.explore_rounds", explore))
        self._wrap_function(cli, "main", "cli.main")

    def _undo_to(self, mark: int) -> None:
        for obj, attr, original in reversed(self._undo[mark:]):
            setattr(obj, attr, original)
        del self._undo[mark:]

    def uninstall_layers(self) -> None:
        """Take out what ``install_layers`` put in; the timers stay."""
        if self._layers_from is not None:
            self._undo_to(self._layers_from)
            self._layers_from = None

    def uninstall(self) -> None:
        self._undo_to(0)
        self._layers_from = None

    # -- metrics -----------------------------------------------------------

    def _has_ancestor(self, span: Span, names) -> bool:
        i = span.parent
        while i >= 0:
            if self.spans[i].name in names:
                return True
            i = self.spans[i].parent
        return False

    def _outer_plans(self, spans):
        return [
            s for s in spans
            if s.name in PLAN_SPANS and not self._has_ancestor(s, PLAN_SPANS)
        ]

    def end_to_end(self, first: int = 0) -> dict:
        """Planner time, simulation time and simulated rounds of the spans
        recorded since span ``first``."""
        spans = self.spans[first:]
        plans = self._outer_plans(spans)
        episodes = [s for s in spans if s.name == "env.run_episode"]
        in_episode = sum(
            s.duration for s in plans if self._has_ancestor(s, {"env.run_episode"})
        )
        return {
            "plan_s": sum(s.duration for s in plans),
            "sim_s": sum(s.duration for s in episodes) - in_episode,
            "rounds": sum(s.rounds for s in episodes),
        }

    def layers(self) -> dict:
        """Per-layer metrics of the spans recorded since the last ``clear``."""
        total: Counter = Counter()
        calls: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for s in self.spans:
            total[s.name] += s.duration
            calls[s.name] += 1
            if s.parent >= 0:
                child[s.parent] += s.duration

        def self_time(name):
            return sum(
                s.duration - child[i] for i, s in enumerate(self.spans) if s.name == name
            )

        def per(part, whole, scale):
            return part / whole * scale if whole else 0.0

        tables = [s for s in self.spans if s.name == "dp.mer_table"]
        cells = sum(s.cells for s in tables)
        rounds = sum(s.rounds for s in self.spans if s.name == "env.run_episode")
        loop_s = self_time("env.run_episode")
        doalg_calls = calls["matching.doalg"]
        replans = [
            s for s in self._outer_plans(self.spans)
            if self._has_ancestor(s, {"env.run_episode"})
        ]
        return {
            "env.run_episode_s": total["env.run_episode"],
            "env.sample_arrivals_s": total["env.sample_arrivals"],
            "env.accounting_s": total["env.recompute_expected_reward"],
            "env.loop_s": loop_s,
            "env.loop_ns_per_round": per(loop_s, rounds, 1e9),
            "dp.dp_star_s": total["dp.dp_star"],
            "dp.mer_table_s": total["dp.mer_table"],
            "dp.mer_table_calls": calls["dp.mer_table"],
            "dp.table_cells": cells,
            "dp.state_fill": per(sum(s.states for s in tables), cells, 1.0),
            "dp.policy_build_s": total["dp.DpPolicy"],
            "dp.action_table_s": self_time("dp.DpPolicy"),
            "matching.doalg_calls": doalg_calls,
            "matching.doalg_s": total["matching.doalg"],
            "matching.doalg_us_per_call": per(total["matching.doalg"], doalg_calls, 1e6),
            "lcb.lcb_star_s": total["lcb.lcb_star"],
            "lcb.greedy_subset_s": total["lcb.greedy_subset"],
            "lcb.oracle_calls": self.counts["lcb.oracle_calls"],
            "lcb.policy_build_s": sum(
                s.duration for s in self.spans
                if s.name in LCB_POLICY_SPANS
                and not self._has_ancestor(s, LCB_POLICY_SPANS)
            ),
            "lmatch.lmatch_s": total["lmatch.lmatch"],
            "lmatch.doalg_calls": sum(
                1 for s in self.spans
                if s.name == "matching.doalg" and self._has_ancestor(s, {"lmatch.lmatch"})
            ),
            "lmatch.policy_build_s": total["lmatch.LlcbPolicy"],
            "learn.replan_s": sum(s.duration for s in replans),
            "learn.explore_rounds": self.counts["learn.explore_rounds"],
            "cli.experiment_s": total["cli.main"],
        }


def _note_rounds(span: Span, record) -> None:
    span.rounds = int(record.arrivals.size)


def _note_table(span: Span, table) -> None:
    span.cells = int(table.values.size)
    span.states = int(table.state_count)
