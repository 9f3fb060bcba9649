"""Per-layer host cost of a Python program, observed from outside it.

A :class:`LayerTracer` installs a ``sys.setprofile`` hook for the
duration of a ``with`` block and maps every Python frame to a *layer*:
the first package below ``package`` in the frame's module name
(``repro.mem.cache`` -> ``mem``).  A frame from any other module is
charged to the layer that called it, so helper code (the benchmark's own
closures, library code) never opens a layer of its own.

The profile hook sees a ``call`` event for every function call and
every generator resume, and a ``return`` event for every return and
every ``yield``.  A *span* opens when such a call enters a layer from a
different one; its *self time* is its duration minus its child spans,
which is exactly the time the layer sits on top of the layer stack.
The tracer keeps, in memory:

* ``entries[L]`` -- calls plus generator resumes entering ``L`` from
  another layer (an exact count for a deterministic program);
* ``edges[(caller, callee)]`` -- the same entries split by caller;
* ``self_ns[L]`` -- self time in nanoseconds.  Time is charged only at
  layer switches, and the charges telescope: their sum equals
  ``total_ns``, the wall time of the traced blocks.

One tracer may be entered several times; the aggregates accumulate.

Built-in (C) functions raise no ``call`` event here, so their time is
charged to the layer that called them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Dict, Optional, Tuple

__all__ = ["OUTSIDE", "LayerTracer", "layer_of_module"]

#: pseudo-layer of the code that opened the tracer
OUTSIDE = "outside"


def layer_of_module(module: str, package: str) -> Optional[str]:
    """``package.<layer>...`` -> ``<layer>``; None outside ``package``."""
    if module == package:
        return package
    if not module.startswith(package + "."):
        return None
    return module[len(package) + 1:].split(".", 1)[0]


class LayerTracer:
    """Context manager that attributes calls and host time to layers."""

    def __init__(self, package: str):
        self.package = package
        self.entries: Counter = Counter()
        self.edges: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns = 0
        self._stop = None

    def __enter__(self) -> "LayerTracer":
        if sys.getprofile() is not None:
            raise RuntimeError("another profiler is already installed")
        package = self.package
        entries = self.entries
        edges = self.edges
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        layer_by_code: Dict[object, Optional[str]] = {}
        stack = [OUTSIDE]
        t0 = clock()
        last = [t0]

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                try:
                    layer = layer_by_code[code]
                except KeyError:
                    layer = layer_by_code[code] = layer_of_module(
                        frame.f_globals.get("__name__", ""), package)
                cur = stack[-1]
                if layer is None:
                    layer = cur
                elif layer != cur:
                    now = clock()
                    self_ns[cur] += now - last[0]
                    last[0] = now
                    entries[layer] += 1
                    edges[cur, layer] += 1
                stack.append(layer)
            elif event == "return" and len(stack) > 1:
                layer = stack.pop()
                if stack[-1] != layer:
                    now = clock()
                    self_ns[layer] += now - last[0]
                    last[0] = now

        def stop() -> None:
            sys.setprofile(None)
            now = clock()
            self_ns[stack[-1]] += now - last[0]
            self.total_ns += now - t0

        self._stop = stop
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def self_share(self) -> Dict[str, float]:
        """Each layer's share of the traced wall time."""
        total = self.total_ns or 1
        return {layer: ns / total for layer, ns in self.self_ns.items()}

    def edge_table(self) -> Tuple[Tuple[str, str, int], ...]:
        """``(caller, callee, entries)`` rows, most entries first."""
        return tuple(sorted(((a, b, n) for (a, b), n in self.edges.items()),
                            key=lambda row: (-row[2], row[0], row[1])))
