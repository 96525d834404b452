"""Layer tracing from outside the program, for the traced benchmark run.

Nothing here edits ``src/``: :func:`install` wraps public entry points of
each layer where the benchmark process looks them up (module attributes at
every ``repro`` import site, or class attributes for methods), and
:class:`LayerTracer` is the program's own :class:`repro.obs.Tracer` with
its runner/quote/experiment spans mirrored onto the same layer stack.

:class:`LayerClock` keeps one stack of active layers.  Time between two
stack events is charged to the layer on top, so each layer's figure is
its *self* time: its duration minus the layers it called.  The op itself
sits at the bottom as ``op``; what is charged to it is time no layer
claimed, which is how coverage is checked.

Pooled runs fork their workers, so the wrappers are inherited there.
:func:`metered_task` replaces the runner's traced pool task and ships the
worker's layer figures home inside the worker sample the runner already
merges into its tracer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import MetricsSnapshot, Tracer

#: layers whose time, when spent under ``KernelEngine.run``, is simulator
#: calibration rather than vectorized replay.
SIMULATOR_LAYERS = (
    "graph",
    "premiums",
    "build",
    "sim.execute",
    "chain.advance",
    "chain.execute",
    "contracts.on_tick",
    "scenario.condense",
)

#: program spans that are layers of their own; ``campaign.run``,
#: ``experiment``, ``quote`` and ``block`` only wrap layers, so their own
#: time stays with the layer that opened them.
SPAN_LAYERS = {
    "campaign.expand": "campaign.expand",
    "campaign.cache": "campaign.cache",
    "campaign.dispatch": "campaign.dispatch",
    "campaign.store": "campaign.store",
    "campaign.fold": "campaign.fold",
    "experiment.build": "experiment.build",
    "experiment.reduce": "frontier.reduce",
    "experiment.refine": "refine",
    "quote.tier1": "quote.tier1",
    "quote.tier2": "quote.tier2",
    "quote.tier3": "quote.tier3",
}

#: (module, function, layer): module-level functions, patched at every
#: ``repro`` module that imported them by name.
FUNCTIONS = (
    ("repro.core.premiums", "path_member_sets", "premiums"),
    ("repro.core.premiums", "worst_case_redemption_amount", "premiums"),
    ("repro.core.premiums", "redemption_premium_amount", "premiums"),
    ("repro.core.premiums", "escrow_premium_amounts", "premiums"),
    ("repro.core.premiums", "redemption_premium_flow", "premiums"),
    ("repro.protocols.instance", "execute", "sim.execute"),
    ("repro.campaign.scenario", "condense_run", "scenario.condense"),
    ("repro.campaign.ablation.rowstore", "load_row", "rowstore"),
    ("repro.campaign.ablation.rowstore", "store_row", "rowstore"),
)

#: (module, class, method, layer): methods, patched on the class.
METHODS = (
    ("repro.graph.digraph", "SwapGraph", "in_arcs", "graph"),
    ("repro.graph.digraph", "SwapGraph", "out_arcs", "graph"),
    ("repro.graph.digraph", "SwapGraph", "in_neighbors", "graph"),
    ("repro.graph.digraph", "SwapGraph", "out_neighbors", "graph"),
    ("repro.chain.blockchain", "Blockchain", "advance", "chain.advance"),
    ("repro.chain.blockchain", "Blockchain", "execute", "chain.execute"),
    ("repro.campaign.ablation.kernels", "KernelEngine", "run", "kernel.run"),
    ("repro.campaign.cache", "ResultCache", "get", "cache.get"),
    ("repro.campaign.cache", "ResultCache", "get_entry", "cache.get"),
    ("repro.campaign.cache", "ResultCache", "put", "cache.put"),
    ("repro.campaign.cache", "ResultCache", "put_entry", "cache.put"),
    ("repro.quote.engine", "QuoteEngine", "quote", "quote.engine"),
)

#: packages whose classes' own ``build`` / ``on_tick`` methods are layers.
BUILD_MODULES = (
    "repro.core.hedged_two_party",
    "repro.core.hedged_multi_party",
    "repro.core.hedged_broker",
    "repro.core.hedged_auction",
    "repro.core.bootstrap",
    "repro.core.multi_round_deal",
)
CONTRACT_MODULES = (
    "repro.contracts.base",
    "repro.contracts.auction",
    "repro.contracts.broker",
    "repro.contracts.deal",
    "repro.contracts.hedged_escrow",
    "repro.contracts.htlc",
    "repro.contracts.swap_arc",
    "repro.core.hedged_auction",
)


class LayerClock:
    """Calls, self time and inclusive time per layer, on one stack."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: self time charged while ``kernel.run`` was on the stack
        self.under_kernel_s: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[str, float]] = []
        self._kernel_depth = 0
        self._mark = time.perf_counter()

    def _charge(self, now: float) -> None:
        if self._stack:
            layer = self._stack[-1][0]
            elapsed = now - self._mark
            self.self_s[layer] += elapsed
            if self._kernel_depth:
                self.under_kernel_s[layer] += elapsed
        self._mark = now

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        self._charge(now)
        self._stack.append((layer, now))
        self.calls[layer] += 1
        if layer == "kernel.run":
            self._kernel_depth += 1

    def leave(self) -> None:
        now = time.perf_counter()
        self._charge(now)
        layer, start = self._stack.pop()
        self.inclusive_s[layer] += now - start
        if layer == "kernel.run":
            self._kernel_depth -= 1

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, layer: str):
        """``fn`` timed as ``layer``; a call from inside the same layer
        (``super()`` chains, self-recursion) passes straight through."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if clock.top() == layer:
                return fn(*args, **kwargs)
            clock.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                clock.leave()

        return timed

    def wrap_generator(self, fn, layer: str):
        """A generator function timed as ``layer``: the expansion is run
        to completion inside the layer and replayed to the caller."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            clock.enter(layer)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                clock.leave()
            return iter(items)

        return timed

    # -- shipping worker figures home inside a MetricsSnapshot ----------
    def drain(self) -> MetricsSnapshot:
        counters = []
        for prefix, table in (
            ("calls", self.calls),
            ("self", self.self_s),
            ("incl", self.inclusive_s),
            ("kernel", self.under_kernel_s),
        ):
            counters.extend(
                (f"layer.{prefix}.{name}", value) for name, value in table.items()
            )
            table.clear()
        return MetricsSnapshot(counters=tuple(sorted(counters)))

    def absorb(self, counters: dict[str, float]) -> None:
        tables = {
            "calls": self.calls,
            "self": self.self_s,
            "incl": self.inclusive_s,
            "kernel": self.under_kernel_s,
        }
        for key, value in counters.items():
            if not key.startswith("layer."):
                continue
            _, prefix, name = key.split(".", 2)
            tables[prefix][name] += int(value) if prefix == "calls" else value


class LayerTracer(Tracer):
    """The program's tracer, with its layer spans mirrored on the clock."""

    def __init__(self, clock: LayerClock) -> None:
        super().__init__()
        self.clock = clock

    @contextmanager
    def span(self, name: str, **attrs: object):
        layer = SPAN_LAYERS.get(name)
        if layer is None:
            with super().span(name, **attrs):
                yield
            return
        self.clock.enter(layer)
        try:
            with super().span(name, **attrs):
                yield
        finally:
            self.clock.leave()


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
#: fork-inherited state of the pooled task wrapper (set by install)
_WORKER: dict = {}


def metered_task(index: int):
    """The runner's traced pool task, plus this worker's layer figures.

    Runs in a forked worker: the first task there resets the inherited
    copy of the parent's clock, and every task ships the calls and times
    it added as counters of the worker sample.
    """
    clock: LayerClock = _WORKER["clock"]
    if clock.pid != os.getpid():
        clock.reset()
    clock.enter("worker.task")
    try:
        result, sample = _WORKER["task"](index)
    finally:
        clock.leave()
    return result, sample.merge(clock.drain())


def _own_methods(module_names, method: str):
    for module_name in module_names:
        module = importlib.import_module(module_name)
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == module_name
                and method in vars(value)
            ):
                yield value


class Installation:
    """Every wrapper :func:`install` put in place, so it can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        _WORKER.clear()


def install(clock: LayerClock) -> Installation:
    """Wrap every layer entry point in this process; returns the undo."""
    import repro.campaign.runner as runner

    done = Installation()
    for module_name, attr, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = clock.wrap(original, layer)
        for name, module in sorted(sys.modules.items()):
            if name.startswith("repro") and vars(module).get(attr) is original:
                done.set(module, attr, wrapped)
    for module_name, class_name, method, layer in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        done.set(cls, method, clock.wrap(vars(cls)[method], layer))
    from repro.campaign.matrix import ScenarioMatrix

    done.set(
        ScenarioMatrix,
        "scenarios",
        clock.wrap_generator(vars(ScenarioMatrix)["scenarios"], "matrix.expand"),
    )
    for cls in _own_methods(BUILD_MODULES, "build"):
        done.set(cls, "build", clock.wrap(vars(cls)["build"], "build"))
    for cls in _own_methods(CONTRACT_MODULES, "on_tick"):
        done.set(cls, "on_tick", clock.wrap(vars(cls)["on_tick"], "contracts.on_tick"))
    _WORKER.update(clock=clock, task=runner._run_at_metered)
    done.set(runner, "_run_at_metered", metered_task)
    return done
