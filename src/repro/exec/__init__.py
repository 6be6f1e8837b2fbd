"""Pluggable µthread execution backends.

The device models in :mod:`repro.ndp` describe *what* the M2NDP hardware
is — units, sub-cores, caches, the DRAM system.  This package decides *how*
a kernel launch is executed against those models.  Two backends implement
the common :class:`~repro.exec.base.ExecutionBackend` interface:

``interpreter``
    The reference path and the specification: every instruction of every
    µthread is executed by :mod:`repro.isa.executor` and individually
    charged to the sub-core issue servers, TLBs, caches and DRAM banks.
    Cycle-level FGMT behaviour (context occupancy, spawn granularity,
    atomics interleaving) is exact; cost is O(µthreads x instructions)
    Python work per launch.

``batched``
    Fast engines that still execute *every* µthread functionally, routed
    per launch (:mod:`repro.exec.batched`).  Bulk branch-uniform launches
    take the launch-uniform walk: registers become numpy arrays over the
    launch and each decoded instruction runs once for all µthreads.
    Initializer/finalizer phases, atomics, indexed gathers/scatters,
    scratchpad state, µthread-divergent branches and sub-threshold sizes
    take the masked **SIMT** walk (:mod:`repro.exec.simt`: active-mask
    stack with post-dominator reconvergence, lane-ordered grouped AMOs,
    per-unit scratchpad shadows).  Launches no wider than the device (one
    µthread per unit) take the **point** engine (:mod:`repro.exec.point`).
    Both vectorized walks execute every non-control instruction through
    one core, :class:`repro.exec.simt.LaneOps`.  Results in memory are
    byte-identical to the interpreter's.  Timing is analytic — issue
    throughput, a latency floor and the launch's sector stream charged
    through the real L2/DRAM models — so simulated runtime tracks the
    interpreter without matching it; ``tests/exec/test_engine_timing.py``
    records the error per engine.

Backend selection
-----------------

* ``NDPConfig.backend`` (default ``"interpreter"``) picks the device-wide
  default; ``REPRO_EXEC_BACKEND`` overrides that default, and an explicit
  ``backend=`` argument to :func:`repro.workloads.base.make_platform` or
  ``M2NDPDevice`` always wins.  Experiments default to
  ``REPRO_EXEC_BACKEND`` when it is set and to ``batched`` otherwise
  (``repro.experiments.common.EXPERIMENT_BACKEND``).
* Only translation faults, read-after-write races through memory,
  order-sensitive atomic contention and unsupported instructions fall
  back to the interpreter — counted in ``exec.batched_fallbacks`` and
  attributed in ``exec.fallback_reason.<class>``; engine launches land in
  ``exec.batched_launches`` / ``exec.simt_launches`` (point launches also
  in ``exec.point_launches``).
* Repeated launches of the same shape skip tracing through the
  cross-launch :mod:`~repro.exec.trace_cache` (``exec.trace_cache_hits`` /
  ``exec.trace_cache_misses``; disable with ``REPRO_TRACE_CACHE=0``); every
  replay is verified against its recording.
"""

from repro.exec.base import ExecutionBackend, make_backend
from repro.exec.interpreter import InterpreterBackend
from repro.exec.batched import BatchedBackend
from repro.exec.simt import LaunchFallback, SimtPlan
from repro.exec.trace_cache import (
    SimtTraceEntry,
    TraceCache,
    TraceEntry,
    trace_key,
)

__all__ = [
    "ExecutionBackend",
    "InterpreterBackend",
    "BatchedBackend",
    "LaunchFallback",
    "SimtPlan",
    "SimtTraceEntry",
    "TraceCache",
    "TraceEntry",
    "make_backend",
    "trace_key",
]
