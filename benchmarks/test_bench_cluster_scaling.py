"""Cluster-subsystem benchmark: the executable Fig 12b counterpart.

Where ``test_bench_fig12_ablation_scaling.py`` checks the *analytic*
multi-device model, this drives the real :mod:`repro.cluster` stack —
N devices behind the switch, sharded allocation, fan-out scheduling,
open-loop tenants through the serving engine — and checks the scaling
trend (paper: 6.45-7.84x at 8 devices) plus the placement x scheduler
policy matrix.
"""

from repro.experiments.scaling import run_policy_matrix, run_scaling


def test_cluster_scaling_trend(once):
    result = once(run_scaling, scale_name="small", device_counts=(1, 2, 4, 8),
                  requests=8)
    rows = {row["devices"]: row for row in result.rows}
    assert all(row["correct"] for row in result.rows)
    # monotone scaling and a near-linear 8-device point: the paper's Fig
    # 12b band is 6.45-7.84x; aggregate L2 capacity lets the bandwidth-
    # bound streams land at or above it
    speedups = [rows[n]["agg_speedup"] for n in (1, 2, 4, 8)]
    assert speedups == sorted(speedups)
    assert rows[4]["agg_speedup"] >= 3.0
    assert rows[8]["agg_speedup"] >= 5.0
    # open-loop tail latency must fall as devices absorb the backlog
    assert rows[8]["p95_ns"] < rows[1]["p95_ns"]


def test_cluster_policy_matrix(once):
    result = once(run_policy_matrix, num_devices=4, scale_name="tiny")
    assert all(row["correct"] for row in result.rows)
    by_key = {(row["placement"], row["scheduler"]): row
              for row in result.rows}
    # follow-the-shard never touches the switch
    for placement in ("interleaved", "blocked", "replicated"):
        assert by_key[(placement, "locality")]["p2p_bytes"] == 0
    # replicated data is local everywhere: no policy pays P2P
    for scheduler in ("round_robin", "locality", "least_outstanding"):
        assert by_key[("replicated", scheduler)]["p2p_bytes"] == 0
