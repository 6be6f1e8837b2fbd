"""The benchmark's three workloads and the interpreter reference.

Each workload builds its inputs from the seed, sets up once (inputs,
platform, tables, one untimed warm pass) and then runs passes.
A pass returns how many ops it attempted and verified, its simulated
outputs, and the counters it moved; the first ``sim_window`` timed
passes feed the simulated metrics and the digest, so both are a pure
function of the seed however many passes the host manages.

Sizes are scaled by ``size`` (1.0 for the benchmark, small for the
self-test); the scaled shapes keep each workload's layer mix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PassResult:
    attempted: int
    verified: int
    sim_ns: float                   # simulated span of the pass
    latencies_ns: list[float]       # simulated per-op / per-request latency
    counters: dict[str, float]      # deterministic counter deltas
    events: int                     # simulator events processed
    instances_retained: int         # NDP instance-table entries at pass end
    outputs: list[bytes] = field(default_factory=list)


def _counter_delta(after: dict[str, float],
                   before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0)
            for key, value in after.items()
            if value != before.get(key, 0.0)}


def _memory_image(physical) -> bytes:
    """Digest of a device's whole functional memory, page by page."""
    digest = hashlib.sha256()
    for index in sorted(physical._pages):
        digest.update(index.to_bytes(8, "little"))
        digest.update(physical._pages[index])
    return digest.digest()


#: Salt of the SpMV row-length pattern, the same for every seed.
SPMV_PATTERN_SALT = 0


def spmv_input(rows: int, seed: int):
    """SpMV input: a fixed row-length pattern, seeded columns and values.

    SpMV's simulated runtime is set by its longest rows, and the
    lognormal row lengths of ``spmv.generate`` put that maximum on a
    heavy tail: seeded patterns move simulated time by up to 2x across
    seeds.  The benchmark keeps the pattern's row lengths and draws the
    column indices, values and ``x`` from the seed, so seeds vary the
    gather addresses and data without redrawing the tail.
    """
    from repro.workloads import spmv
    from repro.workloads.base import rng

    matrix = spmv.generate_csr(rows, 8, salt=SPMV_PATTERN_SALT)
    gen = rng(seed)
    matrix.col_idx = gen.integers(0, matrix.n_cols, matrix.nnz,
                                  dtype=np.int32)
    matrix.values = gen.normal(0.0, 1.0, matrix.nnz).astype(np.float32)
    x = gen.normal(0.0, 1.0, matrix.n_cols).astype(np.float32)
    return spmv.SPMVData(matrix=matrix, x=x,
                         reference=spmv._reference_spmv(matrix, x))


# ---------------------------------------------------------------------------
# kernels: fresh single-device platform per op, batched backend
# ---------------------------------------------------------------------------

class Kernels:
    """OLAP Q6, HISTO-4096 and SpMV, each on a fresh ``make_platform()``.

    The paper-figure experiments run this way: a cold trace cache per point,
    no serving or cluster layer, so the execution engines dominate.
    """

    name = "kernels"
    sim_window = 1

    def __init__(self, seed: int, size: float = 1.0) -> None:
        self.seed = seed
        self.rows = max(1024, int((1 << 18) * size))
        self.elements = max(1024, int((1 << 18) * size))
        self.spmv_rows = max(64, int(512 * size))

    def setup(self) -> None:
        from repro.workloads import histogram, olap, spmv

        self.inputs = [
            (olap.run_ndp_evaluate,
             olap.generate("q6", self.rows, salt=self.seed)),
            (histogram.run_ndp,
             histogram.generate(self.elements, 4096, salt=self.seed)),
            (spmv.run_ndp, spmv_input(self.spmv_rows, self.seed)),
        ]
        self.run_pass()

    def run_pass(self, keep_outputs: bool = False) -> PassResult:
        from repro.workloads.base import make_platform

        result = PassResult(attempted=0, verified=0, sim_ns=0.0,
                            latencies_ns=[], counters={}, events=0,
                            instances_retained=0)
        for run, data in self.inputs:
            platform = make_platform(backend="batched")
            run_result = run(platform, data)
            result.attempted += 1
            result.verified += int(run_result.correct)
            result.sim_ns += run_result.runtime_ns
            result.latencies_ns.append(run_result.runtime_ns)
            instances = platform.device.controller.instances
            for key, value in platform.stats.counters().items():
                result.counters[key] = result.counters.get(key, 0.0) + value
            result.events += platform.sim.events_processed
            result.instances_retained += len(instances)
            if keep_outputs:
                result.outputs.append(
                    _memory_image(platform.device.physical))
        return result


# ---------------------------------------------------------------------------
# serving workloads: one cluster platform, a fresh ServingEngine per pass
# ---------------------------------------------------------------------------

class _Serving:
    """Open-loop Poisson traffic through ``ServingEngine`` passes.

    The platform (and its trace cache, L2 state and instance table)
    lives across passes, as it would for a long-running server; each
    pass runs one of ``sim_window`` seeded traffic streams through a new
    engine, so the simulated window covers that many distinct streams.
    """

    sim_window = 1
    num_devices = 1

    def __init__(self, seed: int, size: float = 1.0) -> None:
        self.seed = seed
        self.size = size
        self.passes = 0

    def tenants(self, stream: int = 0) -> list:
        """Tenant specs; ``stream`` picks one of ``sim_window`` seeded
        traffic streams (tenant names seed the arrival and data
        generators)."""
        raise NotImplementedError

    def engine_kwargs(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.cluster import make_cluster_platform
        from repro.config import ClusterConfig

        self.platform = make_cluster_platform(
            cluster=ClusterConfig(num_devices=self.num_devices,
                                  placement="interleaved", seed=self.seed),
            backend="batched")
        self.requests = sum(spec.total_requests for spec in self.tenants())
        self.run_pass()
        self.passes = 0               # the timed window starts at stream 0

    def run_pass(self, keep_outputs: bool = False) -> PassResult:
        from repro.serve import ServingEngine

        platform = self.platform
        before = platform.stats.counters()
        events = platform.sim.events_processed
        # the simulated window sees sim_window distinct streams; later
        # passes cycle through them again
        stream = self.passes % self.sim_window
        self.passes += 1
        engine = ServingEngine(platform, self.tenants(stream),
                               **self.engine_kwargs())
        report = engine.run()
        lost = sum(t.shed + t.expired + t.failed for t in report.tenants)
        ok = report.correct and not lost and report.served == self.requests
        result = PassResult(
            attempted=self.requests,
            verified=report.served if ok else 0,
            sim_ns=report.span_ns,
            latencies_ns=list(report.aggregate.samples),
            counters=_counter_delta(platform.stats.counters(), before),
            events=platform.sim.events_processed - events,
            instances_retained=sum(len(device.controller.instances)
                                   for device in platform.runtime.devices),
        )
        if keep_outputs:
            snapshots = engine.result_snapshots()
            result.outputs = [name.encode() + hashlib.sha256(blob).digest()
                              for name, blob in sorted(snapshots.items())]
        return result


class KVServe(_Serving):
    """Fine-grained KVStore offload: scatter-batched GETs and SETs.

    Below saturation, so simulated latency is service time plus a little
    queueing; SETs split op-homogeneous batches, so write paths and
    small batches run beside reads.
    """

    name = "kv_serve"
    sim_window = 5                    # 5 streams x 2000 = 10^4 requests

    def tenants(self, stream: int = 0) -> list:
        from repro.serve import ArrivalSpec, TenantSpec

        return [TenantSpec(
            f"kv{stream}", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=5e6,
                                 requests=max(64, int(2000 * self.size))),
            size=max(256, int(4096 * self.size)), get_fraction=0.8)]

    def engine_kwargs(self) -> dict:
        from repro.serve import BatchPolicy

        return {"batch": BatchPolicy(max_batch=16),
                "inflight_per_device": 2}


class ClusterStream(_Serving):
    """Two tenants on two interleaved devices, WFQ + dynamic batching.

    The vecadd tenant's working set (2048 x 192 x 3 x 8 B, ~9.4 MB) is
    larger than the two devices' 4 MB L2s together, so every pass
    streams through DRAM and the memory charge path dominates.
    """

    name = "cluster_stream"
    sim_window = 9                    # 9 streams x 450 = 4050 requests
    num_devices = 2

    def tenants(self, stream: int = 0) -> list:
        from repro.serve import ArrivalSpec, TenantSpec

        requests = max(16, int(400 * self.size))
        return [
            TenantSpec(f"web{stream}", "vecadd",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                            requests=requests),
                       size=max(256, int(2048 * self.size)), slices=192),
            TenantSpec(f"olap{stream}", "olap", qos_class="batch",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e7 / 8,
                                            requests=requests // 8),
                       size=max(1024, int((1 << 15) * self.size)),
                       slices=8),
        ]

    def engine_kwargs(self) -> dict:
        from repro.serve import BatchPolicy

        return {"scheduler": "wfq",
                "batch": BatchPolicy(max_batch=8, max_wait_ns=2_000.0)}


WORKLOADS = {cls.name: cls for cls in (Kernels, KVServe, ClusterStream)}


# ---------------------------------------------------------------------------
# interpreter reference for sim_err_pct
# ---------------------------------------------------------------------------

#: SpMV's fast-engine error depends on each matrix's longest rows, so its
#: reference sums several small matrices to steady the figure across seeds.
SPMV_REFERENCE_MATRICES = 6


def engine_error(seed: int, size: float = 1.0
                 ) -> tuple[dict[str, float], list[str]]:
    """|fast engine - interpreter| / interpreter simulated runtime, in %.

    The interpreter is the repository's specification, so this is the
    fast engines' error against the spec, not against hardware.  Inputs
    come from the benchmark kernels' generators and seed, reduced to
    about a second of interpreter time.  Also returns the runs whose
    result was wrong.
    """
    from repro.workloads import histogram, olap, spmv
    from repro.workloads.base import make_platform

    rows = max(64, int(256 * size))
    cases = {
        "q6": [(olap.run_ndp_evaluate,
                olap.generate("q6", max(256, int(1024 * size)), salt=seed))],
        "histo": [(histogram.run_ndp,
                   histogram.generate(max(64, int(256 * size)), 4096,
                                      salt=seed))],
        "spmv": [(spmv.run_ndp,
                  spmv.generate(rows, 8,
                                salt=seed * SPMV_REFERENCE_MATRICES + k))
                 for k in range(SPMV_REFERENCE_MATRICES)],
    }
    errors = {}
    wrong = []
    for name, runs in cases.items():
        simulated = {}
        for backend in ("interpreter", "batched"):
            total = 0.0
            for run, data in runs:
                result = run(make_platform(backend=backend), data)
                if not result.correct:
                    wrong.append(f"{name}/{backend}")
                total += result.runtime_ns
            simulated[backend] = total
        errors[name] = (abs(simulated["batched"] - simulated["interpreter"])
                        / simulated["interpreter"] * 100.0)
    return errors, wrong
