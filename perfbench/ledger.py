"""Outside-in layer ledger: self time per layer, measured at public calls.

The benchmark wraps the public functions each layer exposes (listed in
``BOUNDARIES``) while a traced pass runs, and restores them afterwards,
so untraced passes run the program exactly as shipped.  A span is one
call of a wrapped function; a layer's self time is the duration of its
spans minus the part covered by spans nested inside them, whatever
their layer.  Spans are folded into per-layer totals as they close
instead of being kept: ``Simulator.step`` alone opens tens of thousands
of spans per run, and keeping them would move the memory being measured.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def boundaries() -> dict[str, list[tuple[type, str]]]:
    """Layer name -> the (class, method) pairs that open its spans."""
    from repro.cluster.runtime import ClusterRuntime
    from repro.host.api import M2NDPRuntime
    from repro.mem.physical import PhysicalMemory
    from repro.ndp.controller import NDPController
    from repro.ndp.device import M2NDPDevice
    from repro.obs.monitor import SLOMonitor
    from repro.obs.recorder import FlightRecorder
    from repro.serve.admission import AdmissionController
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.engine import ServingEngine
    from repro.serve.qos import QoSScheduler
    from repro.serve.stats import ServingStats
    from repro.sim.engine import Simulator

    return {
        "serve": [(ServingEngine, "__init__"), (ServingEngine, "run"),
                  (QoSScheduler, "pick"), (DynamicBatcher, "take"),
                  (AdmissionController, "admit"),
                  (ServingStats, "served_batch")],
        "sim": [(Simulator, "step")],
        "cluster": [(ClusterRuntime, "launch_async")],
        "host": [(M2NDPRuntime, "call_async")],
        "ndp": [(NDPController, "handle_write"),
                (NDPController, "handle_read")],
        "exec": [(M2NDPDevice, "register_execution")],
        "mem.charge": [(M2NDPDevice, "l2_dram_access_batch"),
                       (M2NDPDevice, "l2_dram_access")],
        "mem.data": [(PhysicalMemory, "gather_rows"),
                     (PhysicalMemory, "scatter_rows")],
        "obs": [(SLOMonitor, "evaluate"), (FlightRecorder, "record")],
    }


class Ledger:
    """Per-layer self time, and span counts per wrapped function."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: dict[str, int] = defaultdict(int)
        # one entry per open span: time covered by its nested spans so far
        self._nested: list[float] = []
        self._saved: list[tuple[type, str, object]] = []
        self._layers = boundaries()

    def _wrap(self, layer: str, name: str, fn):
        nested = self._nested
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - nested.pop()
                spans[name] += 1
                if nested:
                    nested[-1] += duration
        return span

    def __enter__(self) -> "Ledger":
        for layer, points in self._layers.items():
            for cls, attr in points:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(
                    layer, f"{cls.__name__}.{attr}", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)
