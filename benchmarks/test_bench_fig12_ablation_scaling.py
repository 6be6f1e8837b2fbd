"""Fig 12 benchmark: ablations (12a), static-instruction savings (§III-D)
and multi-device scaling (12b).

Paper reference: removing M2func costs up to 2.41x, coarse spawning up to
1.51x, removing scalar address optimization up to 1.20x; memory mapping
saves 3.28-17.6% static instructions; 8 devices scale to 6.45-7.84x.
"""

from repro.experiments.fig12 import (
    run_fig12a,
    run_fig12b,
    static_instruction_savings,
)


def test_fig12a_ablation(once):
    result = once(run_fig12a, scale_name="small")
    for row in result.rows:
        assert row["correct"]
        assert row["wo_m2func"] > 1.0
        # coarse spawning and SIMT-style addressing never help; at small
        # scale bank-conflict timing noise allows a few percent of jitter
        assert row["wo_finegrained"] >= 0.97
        assert row["wo_addr_opt"] >= 0.85
    # at least one workload shows an address-optimization penalty.  The
    # ablation now runs unpinned on the analytic backend, whose roofline
    # hides most of the extra ALU work behind the memory bound — the
    # paper-scale spread (up to 1.20x) needs
    # REPRO_EXEC_BACKEND=interpreter (see run_fig12a notes).
    assert max(row["wo_addr_opt"] for row in result.rows) > 1.001


def test_instruction_savings(once):
    result = once(static_instruction_savings)
    reductions = result.column("reduction")
    # paper: 3.28-17.6% static instruction reduction
    assert min(reductions) > 0.02
    assert max(reductions) < 0.35


def test_fig12b_scaling(once):
    result = once(run_fig12b, scale_name="small", device_counts=(1, 2, 4, 8))
    for row in result.rows:
        assert row["x1"] >= 0.9
        # more devices always help up to the all-reduce / fixed-cost floor;
        # the paper's near-linear 6.5-7.8x needs paper-scale kernels whose
        # per-device work dwarfs launch/drain overheads (EXPERIMENTS.md)
        assert row["x2"] > 1.2
        assert row["x4"] > row["x2"] * 0.95
        assert row["x8"] > 1.8
