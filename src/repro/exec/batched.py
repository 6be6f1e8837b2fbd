"""Batched execution backend: per-launch routing over the fast engines.

The paper's kernels launch thousands of *structurally identical* µthreads:
every body µthread runs the same code over a different stride-sized pool
slice, and one launch is bulk-synchronous (§III-E/G).
:class:`BatchedBackend` routes each launch to one of three engines:

* **Launch-uniform walk** (:class:`_BatchReplay`, this module): registers
  become arrays over the whole launch (``x2`` is the vector ``[0, stride,
  2*stride, ...]``), each decoded instruction executes once for all
  µthreads, and control flow follows the (verified) launch-uniform branch
  outcomes.  Stores are buffered and committed only when the walk succeeds.
* **Masked SIMT walk** (:mod:`repro.exec.simt`) for initializer/finalizer
  phases, atomics, indexed gathers/scatters, scratchpad state,
  µthread-divergent branches and sub-threshold launch sizes.
* **Point engine** (:mod:`repro.exec.point`) for launches no wider than
  the device.

Both vectorized walks execute every non-control instruction — ALU,
vector ALU, reductions, and the decode and byte packing of loads and
stores — through the shared :class:`~repro.exec.simt.LaneOps` core; each
walk supplies only its addressing, memory access and register-widening
hooks.  Both run through one trace-cache attempt (:meth:`BatchedBackend.
_attempt`): replay a cached recording, invalidate it on any divergence,
retrace, store.  Cached replays verify every memory step's addresses
(and, for SIMT, its mask schedule), so the cache never changes results.

**Timing** is analytic and engine-specific: per-FU instruction counts
bound issue throughput, a per-thread latency estimate bounds the wave
depth, and the launch's sector-unique global address stream is paced
through the device's real memory-side L2 and banked-DRAM models
(:func:`~repro.exec.simt.charge_stream`).  Launch runtime is a roofline
``max(issue throughput, memory system, latency x waves)`` rather than an
event-by-event FGMT schedule; it tracks the interpreter but is not
identical to it.  All three engines end in one launch tail,
:meth:`BatchedBackend.finish_launch`.

Automatic fallback
------------------

``register_execution`` falls back to the inherited interpreter path (per
launch, counted in ``exec.batched_fallbacks`` and attributed under
``exec.fallback_reason.<class>``) only when no engine can reproduce the
interpreter's bytes: translation faults, read-after-write through memory
(a load overlapping a buffered store, or cross-lane races the SIMT hazard
detector refuses to order), order-sensitive atomic contention, trace-cap
blowouts, and unsupported instructions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import setting
from repro.exec.base import register_backend
from repro.exec.interpreter import InterpreterBackend
from repro.exec.point import attempt_point
from repro.exec.simt import (
    MAX_TRACE_STEPS,
    LaneOps,
    LaunchFallback,
    SimtPlan,
    Translator,
    charge_stream,
    sector_stream,
)
from repro.exec.trace_cache import (
    CachedStep,
    SimtTraceEntry,
    StaleTrace,
    TraceCache,
    TraceEntry,
    trace_key,
)
from repro.isa.encoding import FUnit, Instruction, OpClass
from repro.isa.vector import vlmax
from repro.isa.vectorops import UnsupportedVectorOp
from repro.ndp.generator import (
    ARG_SLOT_BYTES,
    SPAWN_LATENCY_NS,
    KernelExecution,
)
from repro.obs import tracer as obs_tracer
from repro.ndp.unit import CROSSBAR_NS

#: Launches smaller than this skip the launch-uniform walk: tracing cannot
#: be amortized and latency effects dominate short launches, which the
#: masked and point engines handle.
MIN_BATCH_UTHREADS = 64

_ZERO_X = np.zeros((), dtype=np.int64)
_ZERO_F = np.zeros((), dtype=np.float64)

#: Op classes the launch-uniform walk never attempts (structural routing).
_UNBATCHABLE = {
    OpClass.AMO: "atomic",
    OpClass.VAMO: "atomic",
    OpClass.VGATHER: "gather",
    OpClass.VSCATTER: "gather",
}

#: Uniform-walk fallback classes the SIMT engine can absorb.
_RETRY_SIMT_SLUGS = {"divergent", "scratchpad", "vconfig"}


# ---------------------------------------------------------------------------
# buffered store log
# ---------------------------------------------------------------------------


class _StoreLog:
    """Stores buffered during the walk, committed only on success."""

    def __init__(self) -> None:
        self._entries: list[tuple[np.ndarray, np.ndarray]] = []
        self._bounds: list[tuple[int, int]] = []

    def log(self, paddrs: np.ndarray, data: np.ndarray) -> None:
        self._entries.append((paddrs, data))
        self._bounds.append(
            (int(paddrs.min()), int(paddrs.max()) + data.shape[-1])
        )

    def overlaps(self, lo: int, hi: int) -> bool:
        return any(e_lo < hi and lo < e_hi for e_lo, e_hi in self._bounds)

    def commit(self, physical) -> None:
        for paddrs, data in self._entries:
            physical.scatter_rows(paddrs, data)


# ---------------------------------------------------------------------------
# vectorized launch-uniform functional walk
# ---------------------------------------------------------------------------


class _BatchReplay(LaneOps):
    """Vectorized lockstep execution of one launch's body µthreads.

    With a cached :class:`TraceEntry` the walk becomes a *replay*: the
    functional numpy execution still runs in full (memory contents may
    have changed since the trace), but every memory step's freshly
    computed address vector is verified against the recorded one and the
    recorded translation reused — any divergence raises
    :class:`StaleTrace` so the caller can retrace from scratch.  After a
    fresh walk ``entry`` holds the new recording.
    """

    #: engine name in the ``exec.*`` launch and trace-cache counters
    name = "batched"
    entry_type = TraceEntry

    def __init__(self, device, execution: KernelExecution,
                 entry: TraceEntry | None = None) -> None:
        instance = execution.instance
        self.device = device
        self.execution = execution
        self.entry = entry
        #: a replay is scheduled only once it verified, so it is a hit
        self.cache_hit = entry is not None
        self.n = instance.num_body_uthreads
        self.program = instance.kernel.program.bodies[0]
        self.trace: list[Instruction] = []
        self.steps: list[CachedStep] = []
        self.log = _StoreLog()
        self.translator = Translator(device.page_table(instance.asid))
        self._mem_i = 0
        self._executed = 0
        spad = device.units[execution.unit_base].scratchpad
        self._spad = spad
        self._spad_lo = spad.base_vaddr
        self._spad_hi = spad.base_vaddr + spad.size_bytes
        # Scratchpad contents are per unit; only the argument block is
        # guaranteed identical everywhere (the controller writes it to all
        # units).  The walk may read nothing else from the scratchpad.
        self._args_lo = execution.args_vaddr
        self._args_hi = execution.args_vaddr + ARG_SLOT_BYTES

        idx = np.arange(self.n, dtype=np.int64)
        stride = np.int64(instance.uthread_stride)
        self.xr: list[np.ndarray] = [_ZERO_X] * 32
        self.xr[1] = np.int64(instance.pool_base) + idx * stride
        self.xr[2] = np.int64(instance.offset_bias) + idx * stride
        self.xr[3] = np.asarray(execution.args_vaddr, dtype=np.int64)
        self.fr: list[np.ndarray] = [_ZERO_F] * 32
        self.vr: list[np.ndarray | None] = [None] * 32
        self.vl: int | None = None
        self.sew = 64

    # -- register plumbing (LaneOps hooks; ``m`` is always None) ----------

    def _wx(self, idx: int, val, m=None) -> None:
        if idx:
            self.xr[idx] = np.asarray(val).astype(np.int64)

    def _wf(self, idx: int, val, m=None) -> None:
        self.fr[idx] = np.asarray(val, dtype=np.float64)

    def _wv(self, idx: int, val: np.ndarray, m=None) -> None:
        self.vr[idx] = val

    def _read_v(self, idx: int, count: int) -> np.ndarray:
        arr = self.vr[idx]
        if arr is None or arr.shape[-1] == 0:
            return np.zeros((count,), dtype=np.uint64)
        k = arr.shape[-1]
        if k < count:
            pad = np.zeros(arr.shape[:-1] + (count - k,), dtype=np.uint64)
            arr = np.concatenate([arr, pad], axis=-1)
        return arr[..., :count]

    def _cur_sew(self, m=None) -> int:
        return self.sew

    def _eff_vl(self, m, sew: int) -> int:
        limit = vlmax(sew)
        return limit if self.vl is None else min(self.vl, limit)

    def _uniform_int(self, arr: np.ndarray, what: str,
                     slug: str = "divergent") -> int:
        a = np.asarray(arr)
        if a.ndim == 0:
            return int(a)
        first = a.flat[0]
        if not np.all(a == first):
            raise LaunchFallback(f"µthread-divergent {what}", slug)
        return int(first)

    # -- memory (LaneOps hooks: the access handle is the address array) ---

    def _access(self, inst: Instruction, mask=None) -> np.ndarray:
        return np.asarray(self.xr[inst.rs1]) + np.int64(inst.imm)

    def _narrow(self, addr, reg: np.ndarray) -> np.ndarray:
        return reg

    def _widen(self, addr, values: np.ndarray) -> np.ndarray:
        return values

    def _classify(self, addr: np.ndarray) -> bool:
        """True when the access vector targets the scratchpad window."""
        a = np.atleast_1d(addr)
        in_spad = (a >= self._spad_lo) & (a < self._spad_hi)
        if in_spad.all():
            return True
        if in_spad.any():
            raise LaunchFallback("mixed scratchpad/global access vector",
                                 "scratchpad")
        return False

    def _next_cached_step(self, is_spad: bool, size: int,
                          is_write: bool) -> CachedStep:
        entry = self.entry
        if self._mem_i >= len(entry.steps):
            raise StaleTrace("more memory steps than the cached trace")
        step = entry.steps[self._mem_i]
        self._mem_i += 1
        if (step.is_spad != is_spad or step.size != size
                or step.is_write != is_write):
            raise StaleTrace("memory step shape diverged from cached trace")
        return step

    def _load(self, addr, size: int) -> np.ndarray:
        """Load ``size`` bytes per µthread; returns (..., size) uint8."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            lo = int(addr.min()) if addr.ndim else int(addr)
            hi = (int(addr.max()) if addr.ndim else int(addr)) + size
            if lo < self._args_lo or hi > self._args_hi:
                # outside the argument block: per-unit state (unit 0's copy
                # is not representative), so hand the launch back
                raise LaunchFallback(
                    "scratchpad load outside the argument block",
                    "scratchpad")
            if self.entry is not None:
                self._next_cached_step(True, size, False)
            else:
                self.steps.append(CachedStep(True, size, False))
            # stat-free view: a mid-walk fallback must leave no counters
            # behind (the interpreter re-run charges them itself)
            view = self._spad.view()
            offs = addr - self._spad_lo
            if addr.ndim == 0:
                return view[int(offs):int(offs) + size].copy()
            return view[offs[:, None] + np.arange(size)]
        if self.entry is not None:
            step = self._next_cached_step(False, size, False)
            if not np.array_equal(addr, step.vaddrs):
                raise StaleTrace("load addresses diverged from cached trace")
            paddrs = step.paddrs
        else:
            paddrs = self.translator.translate(addr)
            lo = int(paddrs.min()) if paddrs.ndim else int(paddrs)
            hi = (int(paddrs.max()) if paddrs.ndim else int(paddrs)) + size
            if self.log.overlaps(lo, hi):
                raise LaunchFallback(
                    "load overlaps a buffered store (RAW via memory)", "raw")
            self.steps.append(CachedStep(False, size, False,
                                         vaddrs=addr, paddrs=paddrs))
        return self.device.physical.gather_rows(paddrs, size)

    def _store(self, addr, data: np.ndarray) -> None:
        """Buffer a store of (..., size) uint8 rows at per-µthread addrs."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            raise LaunchFallback("scratchpad store in kernel body",
                                 "scratchpad")
        size = data.shape[-1]
        if self.entry is not None:
            step = self._next_cached_step(False, size, True)
            if not np.array_equal(addr, step.vaddrs):
                raise StaleTrace("store addresses diverged from cached trace")
            paddrs = step.paddrs
        else:
            paddrs = np.broadcast_to(
                np.atleast_1d(self.translator.translate(addr)), (self.n,)
            )
            self.steps.append(CachedStep(False, size, True,
                                         vaddrs=addr, paddrs=paddrs))
        rows = np.broadcast_to(
            data if data.ndim == 2 else data[None, :], (self.n, size)
        )
        self.log.log(paddrs, np.ascontiguousarray(rows))

    def commit(self) -> None:
        self.log.commit(self.device.physical)

    # -- main walk --------------------------------------------------------

    def run(self) -> "_BatchReplay":
        instructions = self.program.instructions
        count = len(instructions)
        pc = 0
        record = self.entry is None
        with np.errstate(all="ignore"):
            try:
                while pc < count:
                    if self._executed >= MAX_TRACE_STEPS:
                        raise LaunchFallback("trace exceeds step cap", "cap")
                    inst = instructions[pc]
                    self._executed += 1
                    if record:
                        self.trace.append(inst)
                    op = inst.op_class
                    if op is OpClass.BRANCH:
                        pc = self._exec_branch(inst, pc)
                        continue
                    if op is OpClass.RET:
                        break
                    self._step(inst)
                    pc += 1
            except UnsupportedVectorOp as exc:
                raise LaunchFallback(str(exc)) from None
        if record:
            self.entry = self._build_entry()
        elif (self._executed != self.entry.trace_len
                or self._mem_i != len(self.entry.steps)):
            raise StaleTrace("control flow diverged from cached trace")
        return self

    # -- control flow -------------------------------------------------------

    def _exec_branch(self, inst: Instruction, pc: int) -> int:
        if inst.mnemonic == "j":
            return inst.target
        taken = bool(self._uniform_int(self._branch_cond(inst), "branch"))
        return inst.target if taken else pc + 1

    def _exec_vset(self, inst: Instruction, m=None) -> None:
        sew = inst.imm
        requested = self._uniform_int(np.asarray(self.xr[inst.rs1]),
                                      "vsetvli AVL", "vconfig")
        if requested < 0:
            raise LaunchFallback(f"vsetvli with negative AVL {requested}")
        vl = min(requested, vlmax(sew))
        self.sew = sew
        self.vl = vl
        self._wx(inst.rd, np.int64(vl))

    # -- timing -------------------------------------------------------------

    def _build_entry(self) -> TraceEntry:
        """Derive the reusable launch profile from a completed full walk."""
        fu_counts: dict[FUnit, int] = {}
        latency_cycles = 0
        for inst in self.trace:
            fu_counts[inst.unit] = fu_counts.get(inst.unit, 0) + 1
            latency_cycles += inst.latency_cycles
        global_steps = [step for step in self.steps if not step.is_spad]
        merged_addrs, merged_writes, page_count, counts = sector_stream(
            [(step.paddrs, step.size, step.is_write)
             for step in global_steps],
            self.device.config.l2.sector_bytes)
        for step, sector_count in zip(global_steps, counts):
            step.sector_count = sector_count
        return TraceEntry(
            translation_version=self.device.translation_version,
            trace_len=len(self.trace),
            latency_cycles=latency_cycles,
            fu_counts=fu_counts,
            steps=self.steps,
            merged_addrs=merged_addrs,
            merged_writes=merged_writes,
            page_count=page_count,
        )

    def schedule(self, now_ns: float):
        """Charge the launch as a roofline of issue throughput, latency x
        waves and the memory system.

        Returns ``(completion, instructions, µthreads, occupancy
        samples)`` for the backend's shared launch tail.
        """
        device = self.device
        execution = self.execution
        entry = self.entry
        n = self.n
        cfg = device.config.ndp
        stats = device.stats
        trace_len = entry.trace_len
        fu_counts = entry.fu_counts
        period = cfg.clock.period_ns
        start = max(now_ns, device.sim.now) + SPAWN_LATENCY_NS
        # A partition-bound launch only sees (and only charges) its own
        # unit window and its private L2/DRAM slice.
        num_units = execution.num_units
        units = device.units[execution.unit_base:
                             execution.unit_base + num_units]

        # --- issue-throughput bound (per sub-core, FGMT hides latency) ---
        per_unit = math.ceil(n / num_units)
        per_subcore = per_unit / cfg.subcores_per_unit
        fu_width = {
            FUnit.SALU: cfg.scalar_alus_per_subcore,
            FUnit.VALU: cfg.vector_alus_per_subcore,
        }
        compute_ns = trace_len * per_subcore * period / cfg.issue_width
        for fu, fu_count in fu_counts.items():
            compute_ns = max(
                compute_ns, fu_count * per_subcore * period / fu_width.get(fu, 1)
            )
        # Occupy the sub-cores' dispatch/FU issue servers with the whole
        # launch in one bulk charge, so interpreter-path launches running
        # concurrently observe this launch's issue pressure.
        dispatch_ops = math.ceil(trace_len * per_subcore)
        fu_ops = [(fu, math.ceil(c * per_subcore))
                  for fu, c in fu_counts.items()]
        for unit in units:
            for subcore in unit.subcores:
                subcore.dispatch.service_batch(start, dispatch_ops)
                subcore.instructions_issued += dispatch_ops
                for fu, ops in fu_ops:
                    subcore.units[fu].service_batch(start, ops)

        # --- traffic stats from the launch's step profile ----------------
        for step in entry.steps:
            if step.is_spad:
                stats.add("ndp.spad_traffic_bytes", step.size * n)
            else:
                stats.add("ndp.global_traffic_bytes", step.size * n)
                stats.add("ndp.global_accesses", n)

        # --- latency floor: serial thread latency x occupancy waves ------
        dram = (device.dram if execution.partition is None
                else execution.partition.dram)
        dram_lat = dram.typical_random_latency_ns()
        l1_hit = cfg.l1d.hit_latency_ns
        l2_hit = device.config.l2.hit_latency_ns
        thread_lat = entry.latency_cycles * period
        for step in entry.steps:
            if step.is_spad:
                thread_lat += units[0].scratchpad.latency_ns
            elif step.is_write:
                # posted write-through: the thread continues after L1
                thread_lat += l1_hit
            elif step.sector_count * 8 <= n:
                # many threads share these sectors (e.g. gemv's activation
                # vector): all but the first hit their unit's L1, so the
                # typical thread's critical path pays a hit, not DRAM
                thread_lat += l1_hit
            else:
                thread_lat += 2 * CROSSBAR_NS + l2_hit + dram_lat
        slots_per_unit = cfg.subcores_per_unit * cfg.uthread_slots_per_subcore
        waves = math.ceil(per_unit / slots_per_unit)
        window = max(compute_ns, thread_lat * waves)

        # --- memory-system bound: sector stream through the real L2/DRAM -
        completion, mem_done = charge_stream(device, execution, entry, n,
                                             start, window)

        if obs_tracer.ENABLED:
            tracer = obs_tracer.tracer_of(device.sim)
            span = tracer.record(
                "exec.batched", start, completion, pid=device.trace_pid,
                instance=execution.instance.instance_id, uthreads=n,
                trace_cache="hit" if self.cache_hit else "miss")
            if mem_done is not None:
                tracer.record("mem.charge", start, mem_done, parent=span,
                              pid=device.trace_pid,
                              sectors=entry.merged_addrs.size)
        ratio = min(per_unit, slots_per_unit) / slots_per_unit
        return completion, n * trace_len, n, [(start, ratio)]


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class BatchedBackend(InterpreterBackend):
    """Batched fast path with automatic per-launch engine routing.

    Launch execution is three-tier: the launch-uniform *trace/replay*
    walk for bulk branch-uniform launches, the masked *SIMT* engine
    (:mod:`repro.exec.simt`) for the formerly-fallback classes, and the
    inherited per-µthread interpreter for the residue (translation
    faults, RAW through memory) — attributed per class in
    ``exec.fallback_reason.<slug>`` counters.
    """

    name = "batched"

    def __init__(self, device) -> None:
        super().__init__(device)
        self.trace_cache = TraceCache(
            enabled=setting("REPRO_TRACE_CACHE"),
            capacity=setting("REPRO_TRACE_CACHE_CAPACITY"),
        )

    # ------------------------------------------------------------------

    def _classify(self, execution: KernelExecution) -> str | None:
        """Static routing: None for the launch-uniform walk, else the
        reason slug that sends the launch straight to the masked engine."""
        program = execution.instance.kernel.program
        if (program.initializer is not None or program.finalizer is not None
                or len(program.bodies) != 1):
            return "phases"
        for inst in program.bodies[0].instructions:
            slug = _UNBATCHABLE.get(inst.op_class)
            if slug is not None:
                return slug
        if execution.instance.num_body_uthreads < MIN_BATCH_UTHREADS:
            return "small"
        return None

    def register_execution(self, execution: KernelExecution,
                           now_ns: float) -> None:
        device = self.device
        cache = self.trace_cache
        why = self._classify(execution)
        failure: LaunchFallback | None = None
        key = trace_key(execution) if cache.enabled else None

        # a SimtTraceEntry under the key: this shape degraded to the SIMT
        # engine on a prior launch, so go there directly
        if why is None and not isinstance(
                cache.lookup(key, device.translation_version),
                SimtTraceEntry):
            failure = self._attempt(_BatchReplay, execution, key, now_ns)
            if failure is None:
                return
            if failure.slug in _RETRY_SIMT_SLUGS:
                failure = None

        if failure is None:
            # Point tier: launches no wider than the device (one µthread
            # per unit) execute as a synchronous per-lane walk with
            # verified symbolic replay — the masked engine's per-launch
            # numpy setup costs more than such launches' entire work.
            if (why != "phases" and execution.instance.num_body_uthreads
                    <= execution.num_units):
                attempt_point(self, execution, now_ns)
                return
            failure = self._attempt(SimtPlan, execution, key, now_ns)
            if failure is None:
                return

        device.stats.add("exec.batched_fallbacks")
        device.stats.add(f"exec.fallback_reason.{failure.slug}")
        if obs_tracer.ENABLED:
            obs_tracer.tracer_of(device.sim).instant(
                "exec.fallback", max(now_ns, device.sim.now),
                pid=device.trace_pid, reason=failure.slug,
                instance=execution.instance.instance_id)
        super().register_execution(execution, now_ns)

    # ------------------------------------------------------------------

    def _attempt(self, engine, execution: KernelExecution, key,
                 now_ns: float) -> LaunchFallback | None:
        """Run a launch on ``engine`` (:class:`_BatchReplay` or
        :class:`SimtPlan`) through the trace cache.

        A cached entry of the engine's type is replayed; a replay whose
        control flow, addressing or mask schedule diverged from the
        recording invalidates the entry, and the launch retraces from
        scratch and stores the new recording.  Returns the fallback when
        the engine cannot run the launch.
        """
        device = self.device
        cache = self.trace_cache
        stats = device.stats
        entry = cache.lookup(key, device.translation_version)
        plan = None
        if isinstance(entry, engine.entry_type):
            try:
                plan = engine(device, execution, entry).run()
                stats.add("exec.trace_cache_hits")
                stats.add(f"exec.trace_cache_hits_{engine.name}")
            except (StaleTrace, LaunchFallback):
                cache.invalidate(key)
                plan = None
        if plan is None:
            try:
                plan = engine(device, execution).run()
            except LaunchFallback as exc:
                return exc
            if cache.enabled:
                stats.add("exec.trace_cache_misses")
                cache.store(key, plan.entry)
        plan.commit()
        stats.add(f"exec.{engine.name}_launches")
        self.finish_launch(execution, *plan.schedule(now_ns))
        return None

    def finish_launch(self, execution: KernelExecution, completion: float,
                      instructions: int, uthreads: int,
                      samples: list[tuple[float, float]]) -> None:
        """The launch tail every engine shares.

        Takes ownership of the launch, records the engine's occupancy
        ``samples`` (``(time, ratio)``, in order) on its units, counts its
        instructions and µthreads, and schedules the completion event.
        """
        device = self.device
        stats = device.stats
        instance = execution.instance
        units = device.units[execution.unit_base:
                             execution.unit_base + execution.num_units]
        # Take ownership of every µthread: a concurrent interpreter refill
        # (e.g. from a fallback launch) must not re-execute this launch.
        execution.consume_plan()
        self._active.append(execution)
        for start, ratio in samples:
            for unit in units:
                unit.occupancy.sampler.record(start, ratio)
        stats.add("ndp.instructions", instructions)
        stats.add("ndp.uthreads_spawned", uthreads)
        stats.add("ndp.uthreads_finished", uthreads)

        def finish() -> None:
            now = device.sim.now
            instance.instructions += instructions
            instance.uthreads_done = instance.uthreads_total
            for unit in units:
                unit.occupancy.sampler.record(now, 0.0)
            execution.finish_now(now)

        device.sim.schedule_at(completion, finish)


register_backend(BatchedBackend.name, BatchedBackend)
