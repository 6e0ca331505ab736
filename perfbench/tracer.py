"""Per-layer tracing by wrapping the program's public functions.

The tracer replaces each layer's function with a wrapper that adds its busy
seconds and call count, and updates work counters from the call's arguments
and result. It is installed only in traced runs; the end-to-end figures come
from untraced runs, and the difference between the two is reported as
``trace.overhead_frac``.

``topshelf.search`` imports most layer functions by name, so patching only
their home module would miss every call the search makes. The tracer
therefore rebinds the name in every loaded ``topshelf`` module that holds
the same function object. Methods are patched on their class.

A target the program no longer has is skipped and its figures read 0, so a
change that removes a layer still runs under the same benchmark.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _views(pd) -> int:
    return sum(len(v) for v in pd.views)


class Tracer:
    """Busy time, calls and work counters per wrapped layer function."""

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # Time spent inside mine_top_k in wrapper code itself, outside the
        # wrapped calls.
        self.own = 0.0
        # Busy time of calls made from inside mine_top_k, outermost only.
        self.inside_mine = 0.0
        self._depth = 0

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, label: str, fn, before=None, after=None, in_mine=True):
        """A wrapper around fn that charges its time to label.

        before(args) returns a state passed to after(args, result, state);
        both run outside the timed call and their cost is charged to
        ``own``, which search.self_s excludes.
        """
        tracer = self
        self.busy.setdefault(label, 0.0)
        self.calls.setdefault(label, 0)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            state = before(args) if before else None
            tracer._depth += 1
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                tracer._depth -= 1
            if after:
                after(args, result, state)
            busy = t2 - t1
            tracer.busy[label] += busy
            tracer.calls[label] += 1
            if in_mine and tracer._depth == 0:
                tracer.inside_mine += busy
                tracer.own += (t1 - t0) + (perf_counter() - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counter hooks: each reads only arguments and results.

    def _project_after(self, args, result, _):
        self.add("projection.views_scanned", _views(args[0]))
        self.add("projection.views_kept", _views(result))

    def _merge_before(self, args):
        return _views(args[0])

    def _merge_after(self, args, result, views_in):
        self.add("projection.views_merged_in", views_in)
        self.add("projection.views_fused", result)

    def _reset_after(self, args, result, _):
        cells = getattr(args[0], "cells", None)
        if cells:
            self.add("bounds.cells_zeroed", len(cells) * len(cells[0]))

    def _select_ps_after(self, args, result, _):
        self.add("bounds.candidates_tested", len(args[2]))
        self.add("bounds.candidates_kept", len(result[0]))

    def _select_neg_after(self, args, result, _):
        self.add("bounds.candidates_tested", len(args[1]))
        self.add("bounds.candidates_kept", len(result))

    def _working_after(self, args, result, _):
        working, merged = result
        self.add("prepare.rows_merged", merged)
        self.add("prepare.working_rows", working.transaction_count)

    def _offer_before(self, args):
        return args[0].threshold

    def _offer_after(self, args, result, threshold):
        self.add("search.offers_accepted", int(bool(result)))
        if args[0].threshold != threshold:
            self.add("search.threshold_rises", 1)

    def install(self) -> None:
        """Wrap every layer function of the imported topshelf package."""
        import topshelf.bounds as bounds
        import topshelf.search as search

        functions = [
            ("dataset", "parse_database", None, None, False),
            ("dataset", "write_patterns", None, None, False),
            ("prepare", "compute_period_twu", None, None, True),
            ("prepare", "singleton_threshold", None, None, True),
            ("prepare", "initial_secondary", None, None, True),
            ("prepare", "negative_keep", None, None, True),
            ("prepare", "build_item_order", None, None, True),
            ("prepare", "build_working_database", None, self._working_after, True),
            ("projection", "root_projection", None, None, True),
            ("projection", "project", None, self._project_after, True),
            ("projection", "merge_projected", self._merge_before, self._merge_after, True),
            ("bounds", "fill_subtree_and_local", None, None, True),
            ("bounds", "fill_negative_subtree", None, None, True),
            ("bounds", "select_primary_secondary", None, self._select_ps_after, True),
            ("bounds", "select_negative_candidates", None, self._select_neg_after, True),
        ]
        for module_name, attr, before, after, in_mine in functions:
            home = sys.modules.get(f"topshelf.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original, before, after, in_mine)
            for name, module in list(sys.modules.items()):
                if name == "topshelf" or name.startswith("topshelf."):
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)

        methods = [
            (bounds, "bounds", "BoundArray", "reset", None, self._reset_after),
            (search, "search", "TopKCollector", "offer", self._offer_before, self._offer_after),
        ]
        for module, module_name, cls_name, attr, before, after in methods:
            cls = getattr(module, cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                continue
            label = f"{module_name}.{cls_name}.{attr}"
            setattr(cls, attr, self.wrap(label, original, before, after, True))

    def report(self) -> dict:
        """Raw figures of one traced run, for the parent to aggregate."""
        return {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "own_s": self.own,
            "inside_mine_s": self.inside_mine,
        }
