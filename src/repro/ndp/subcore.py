"""Sub-core FGMT timing model (Fig 7).

A sub-core dispatches up to 4 instructions per cycle from *different* ready
µthreads (fine-grained multithreading, no forwarding between instructions
of one thread) into its functional units: two scalar ALUs, one scalar
SFU/LSU and one 256-bit vector ALU/SFU/LSU.

Each resource is a virtual-time :class:`~repro.sim.engine.IssueServer`;
an instruction's start time is the max of the thread's readiness, a
dispatch slot and its FU's next free slot.  This gives cycle-accurate
*throughput* behaviour (the quantity FGMT cares about) without per-cycle
event overhead.
"""

from __future__ import annotations

from repro.config import NDPConfig
from repro.isa.encoding import FUnit, Instruction
from repro.sim.engine import IssueServer


class SubCore:
    """Issue timing for one NDP sub-core."""

    def __init__(self, config: NDPConfig) -> None:
        period = config.clock.period_ns
        self.period_ns = period
        self.dispatch = IssueServer(width=config.issue_width, period_ns=period)
        self.units: dict[FUnit, IssueServer] = {
            FUnit.SALU: IssueServer(config.scalar_alus_per_subcore, period),
            FUnit.SSFU: IssueServer(1, period),
            FUnit.SLSU: IssueServer(1, period),
            FUnit.VALU: IssueServer(config.vector_alus_per_subcore, period),
            FUnit.VSFU: IssueServer(1, period),
            FUnit.VLSU: IssueServer(1, period),
        }
        self.instructions_issued = 0

    def issue(self, inst: Instruction, ready_ns: float) -> tuple[float, float]:
        """Issue one instruction from a thread ready at ``ready_ns``.

        Returns ``(start_ns, exec_done_ns)``: the thread's next instruction
        may issue at ``exec_done_ns`` (in-order, no intra-thread overlap);
        for memory ops the caller adds the memory-system latency on top.

        Implemented with direct virtual-time arithmetic on the servers
        (hot path: once per simulated instruction).
        """
        dispatch = self.dispatch
        fu = self.units[inst.unit]
        start = ready_ns
        if dispatch._virtual_time > start:
            start = dispatch._virtual_time
        if fu._virtual_time > start:
            start = fu._virtual_time
        dispatch._virtual_time = start + dispatch._cost
        dispatch.ops_issued += 1
        fu._virtual_time = start + fu._cost
        fu.ops_issued += 1
        self.instructions_issued += 1
        return start, start + inst.latency_cycles * self.period_ns
