"""Span tracer for the benchmark's traced passes.

The tracer wraps every public function of the lattmark layer modules and
rebinds the wrapper in every lattmark module namespace that holds the
function, so calls made from inside the package (``augment`` calling
``enumerate_stable``, ``cli`` calling ``synthesize_from_lattice``) are seen
as well as the benchmark's own calls.  Nothing under ``src/`` is edited; the
original functions are put back by ``uninstall``.

Each call records a span ``(name, start, end, parent, instance)`` in memory.
Self time is a span's duration minus the durations of its child spans; calls
are synchronous and single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

PACKAGE = "lattmark"
LAYERS = ("cli", "jsonio", "augment", "antimatroids", "rotations", "markets", "constraints", "orders")

# Called hundreds of thousands of times per pass: a span each would dominate
# the traced pass, so these are counted only and their time stays with the
# calling span.
COUNT_ONLY = frozenset({"markets.choose", "markets.spec_universe", "orders.set_key"})

# Counts kept by the hooks below, reported even when they stay zero.
HOOK_COUNTS = (
    "markets.enumerate_stable.results",
    "markets.enumerate_stable.repeats",
    "markets.check_path_independence.sampled",
)


class Tracer:
    layers = LAYERS

    def __init__(self):
        self.traced: list[str] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter(dict.fromkeys(HOOK_COUNTS, 0))
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._command_markets: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self.traced.append(f"{layer}.{name}")
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, qual: str, fn):
        calls = self.calls
        if qual in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[qual] += 1
                return fn(*args, **kwargs)
            return counted

        before, after = self._hooks(qual, fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            calls[qual] += 1
            if not stack:
                self._command_markets = []
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qual, start, end, parent, self.instance)
            if after is not None:
                after(result)
            return result

        return spanned

    def _hooks(self, qual: str, fn):
        counts = self.counts
        if qual == "markets.enumerate_stable":
            def seen_before(args, kwargs):
                market = args[0] if args else kwargs["market"]
                if market in self._command_markets:
                    counts["markets.enumerate_stable.repeats"] += 1
                else:
                    self._command_markets.append(market)

            def results(out):
                counts["markets.enumerate_stable.results"] += len(out)
            return seen_before, results
        if qual == "markets.check_path_independence":
            bound = inspect.signature(fn).bind_partial
            limit_default = inspect.signature(fn).parameters["exhaustive_limit"].default
            universe_of = sys.modules[f"{PACKAGE}.markets"].spec_universe

            def sampled(args, kwargs):
                given = bound(*args, **kwargs).arguments
                universe = given.get("universe")
                n = len(set(universe)) if universe is not None else len(universe_of(given["spec"]))
                if n > given.get("exhaustive_limit", limit_default):
                    counts["markets.check_path_independence.sampled"] += 1
            return sampled, None
        return None, None

    # ------------------------------------------------------------ results

    def self_times(self) -> Counter:
        """Self seconds per traced function name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def span_rows(self, pass_index: int):
        for i, (name, start, end, parent, instance) in enumerate(self.spans):
            yield {"pass": pass_index, "id": i, "name": name, "start": start, "end": end,
                   "parent": None if parent < 0 else parent, "instance": instance}
