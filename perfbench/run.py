"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Usage::

    python3 perfbench/run.py --workload {kernels,kv_serve,cluster_stream}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The run sets up several times (the
median is ``setup_s``), measures the engines' simulated-runtime error
against the interpreter on reduced inputs, then runs timed passes for
``--seconds`` (and at least the workload's simulated-metric window).
Every pass checks its outputs.  With ``--trace 1`` every other pass runs
under the layer ledger (see ``ledger.py``) and the per-layer metrics are
reported instead of the end-to-end ones.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit
code is 1 when any output was wrong and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform as platform_mod
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Setups per run; ``setup_s`` is their median.
SETUPS = 3

#: Simulated outputs of the default seed, committed beside this file.
DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"

#: Time of ``calibration_loop`` that defines the reference host (the loop
#: took 0.010-0.015 s on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
#: Host times are rescaled by reference / measured, so ``ops_per_s`` and
#: ``setup_s`` read as on the reference host; the raw host figures are
#: printed beside them.
CALIBRATION_REF_S = 0.015


def _reexec_deterministic(argv: list[str]) -> None:
    """Restart under a fixed string-hash seed and without REPRO_* knobs.

    ``olap.generate`` salts its generator with ``hash(query_name)`` and
    the REPRO_* environment variables switch engines and serving
    policies, so either would make the simulated outputs depend on the
    caller's environment rather than on ``--seed``.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    if os.environ.get("PYTHONHASHSEED") == "0" and env == dict(os.environ):
        return
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable,
              [sys.executable, str(Path(__file__).resolve()), *argv], env)


def box() -> dict:
    import numpy as np

    cpu = platform_mod.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform_mod.python_version(), "numpy": np.__version__}


def calibration_loop() -> float:
    """~15 ms of fixed interpreter and numpy work; returns its wall time.

    The host's speed drifts by tens of percent within minutes (shared
    VM), and pass-to-pass noise follows it.  This loop mixes what the
    simulator spends its time on (heap-ordered events, dict updates,
    small tuples, numpy sort/unique) so that its speed tracks the host's
    speed for the program.  It is the benchmark's own code, so a change
    to the program cannot move it.
    """
    import heapq

    import numpy as np

    start = time.perf_counter()
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, (i, i + 1)))
    total = 0
    while heap:
        total += heapq.heappop(heap)[2][1]
    table: dict[int, int] = {}
    for i in range(6000):
        table[i % 613] = table.get(i % 613, 0) + i
    keys = (np.arange(1 << 15, dtype=np.int64) * 2654435761) % (1 << 20)
    np.unique(np.sort(keys))
    return time.perf_counter() - start


def calibrated(fn, *args, **kwargs):
    """Run ``fn`` between two calibrations.

    Returns its result, its host wall time, and the factor that rescales
    that time to the reference host (best of three calibrations on each
    side, averaged).
    """
    before = min(calibration_loop() for _ in range(3))
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    after = min(calibration_loop() for _ in range(3))
    return result, wall, CALIBRATION_REF_S / ((before + after) / 2)


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def digest_of(window: list, errors: dict[str, float]) -> str:
    """sha256 over every simulated output of the window passes."""
    digest = hashlib.sha256()
    for result in window:
        for blob in result.outputs:
            digest.update(blob)
        digest.update(struct.pack("<d", result.sim_ns))
        digest.update(struct.pack(f"<{len(result.latencies_ns)}d",
                                  *result.latencies_ns))
        digest.update(json.dumps(result.counters, sort_keys=True).encode())
        digest.update(struct.pack("<qq", result.events,
                                  result.instances_retained))
    digest.update(json.dumps(errors, sort_keys=True).encode())
    return digest.hexdigest()


def layer_metrics(ledger, traced: list, walls: list[float],
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, from spans and counter deltas."""
    passes = len(traced)
    total_wall = sum(walls)

    def counter(*names: str) -> float:
        return sum(r.counters.get(n, 0.0) for r in traced for n in names) \
            / passes

    def prefixed(prefix: str, suffix: str) -> float:
        return sum(v for r in traced for k, v in r.counters.items()
                   if k.startswith(prefix) and k.endswith(suffix)) / passes

    def self_s(layer: str) -> float:
        return ledger.self_s.get(layer, 0.0) / passes

    def share(layer: str) -> tuple[float, str]:
        return ratio(ledger.self_s.get(layer, 0.0), total_wall), "ratio"

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    launches = prefixed("serve.", ".launches")
    events = sum(r.events for r in traced) / passes
    kernels = counter("ndp.kernels_completed")
    batched = counter("exec.batched_launches")
    simt = counter("exec.simt_launches")
    point = counter("exec.point_launches")
    instructions = counter("ndp.instructions")
    hits = counter("exec.trace_cache_hits")
    misses = counter("exec.trace_cache_misses")
    l2_hits = counter("l2.read_hits", "l2.write_hits")
    sectors = l2_hits + counter("l2.read_misses", "l2.write_misses")
    return {
        "serve.share": share("serve"),
        "serve.launches": (launches, "count"),
        "serve.mean_batch": (ratio(prefixed("serve.", ".batched_requests"),
                                   launches), "requests"),
        "sim.events": (events, "count"),
        "sim.share": share("sim"),
        "sim.us_per_event": (ratio(self_s("sim") * 1e6, events), "us"),
        "cluster.share": share("cluster"),
        "cluster.sub_launches": (counter("cluster.sub_launches"), "count"),
        "host.share": share("host"),
        "host.m2func_calls": (counter("m2func.calls"), "count"),
        "ndp.share": share("ndp"),
        "ndp.kernels": (kernels, "count"),
        "ndp.instructions": (instructions, "count"),
        "ndp.instances_retained": (float(traced[-1].instances_retained),
                                   "count"),
        "exec.share": share("exec"),
        "exec.us_per_kinstr": (ratio(self_s("exec") * 1e9, instructions),
                               "us"),
        "exec.launches.interpreter": (max(kernels - batched - simt, 0.0),
                                      "count"),
        "exec.launches.batched": (batched, "count"),
        "exec.launches.simt": (simt - point, "count"),
        "exec.launches.point": (point, "count"),
        "exec.fallbacks": (counter("exec.batched_fallbacks"), "count"),
        "exec.trace_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "mem.charge_share": share("mem.charge"),
        "mem.sectors": (sectors, "count"),
        "mem.ns_per_sector": (ratio(self_s("mem.charge") * 1e9, sectors),
                              "ns"),
        "mem.l2_hit_ratio": (ratio(l2_hits, sectors), "ratio"),
        "mem.l2_writebacks": (counter("l2.writebacks"), "count"),
        "mem.dram_bytes": (counter("cxl_dram.bytes"), "B"),
        "mem.data_share": share("mem.data"),
        "obs.share": share("obs"),
        "obs.records": (ledger.spans.get("FlightRecorder.record", 0) / passes,
                        "count"),
        "trace.coverage": (ratio(sum(ledger.self_s.values()), total_wall),
                           "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: float = 1.0) -> dict:
    """One benchmark run; returns the result object (and report lines)."""
    from ledger import Ledger
    from scenarios import WORKLOADS, engine_error

    lines = [f"box {json.dumps(box(), sort_keys=True)}"]
    factory = WORKLOADS[workload]

    setups, raw_setups = [], []
    for _ in range(SETUPS):
        # platforms hold reference cycles: free the previous set-up's
        # now, so the peak RSS does not depend on when the collector runs
        bench = None
        gc.collect()
        bench = factory(seed, size)
        _, wall, scale = calibrated(bench.setup)
        raw_setups.append(wall)
        setups.append(wall * scale)

    errors, wrong_reference = engine_error(seed, size)
    gc.collect()

    ledger = Ledger()
    window, walls, traced, traced_walls = [], [], [], []
    # verified ops per reference-host second, by tracing off/on
    rates = {False: [], True: []}
    raw_rates = []
    attempted = failed = 0
    min_passes = max(bench.sim_window, 2 if trace else 1)
    phase_start = time.perf_counter()
    index = 0
    while index < min_passes or time.perf_counter() - phase_start < seconds:
        keep = index < bench.sim_window
        tracing = trace and index % 2 == 1
        with ledger if tracing else contextlib.nullcontext():
            result, wall, scale = calibrated(bench.run_pass, keep_outputs=keep)
        index += 1
        attempted += result.attempted
        failed += result.attempted - result.verified
        walls.append(wall)
        raw_rates.append(result.verified / wall)
        rates[tracing].append(result.verified / (wall * scale))
        if tracing:
            traced.append(result)
            traced_walls.append(wall)
        if keep:
            window.append(result)
            # peak RSS over a fixed amount of work, whatever the host speed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = digest_of(window, errors)
    lines.append(f"digest {workload} seed={seed} {digest}")
    expected = (json.loads(DIGESTS.read_text()).get(workload)
                if seed == DEFAULT_SEED and size == 1.0 else None)
    digest_ok = expected is None or expected == digest
    if not digest_ok:
        lines.append(f"digest MISMATCH: committed {expected}")
        failed = attempted
    correct = failed == 0 and not wrong_reference
    if wrong_reference:
        lines.append(f"wrong reference results: {wrong_reference}")

    latencies = [lat for r in window for lat in r.latencies_ns]
    untraced = rates[False]
    lines.append(f"passes {len(walls)} (traced {len(traced)}), "
                 f"sim window {bench.sim_window} passes, "
                 f"{len(latencies)} simulated latency samples")
    lines.append("samples pass_wall_s " + json.dumps(
        [round(w, 6) for w in walls]))
    lines.append("samples setup_s " + json.dumps(
        [round(s, 6) for s in setups]))
    lines.append("samples setup_host_s " + json.dumps(
        [round(s, 6) for s in raw_setups]))
    lines.append("reference sim_err_pct " + json.dumps(
        {k: round(v, 4) for k, v in errors.items()}))
    lines.append(f"ops attempted {attempted} failed {failed}")

    if trace:
        overhead = statistics.median(rates[True]) / statistics.median(untraced)
        metrics = layer_metrics(ledger, traced, traced_walls, overhead)
    else:
        metrics = {
            "ops_per_s": (statistics.median(untraced), "ops/s"),
            "setup_s": (statistics.median(setups), "s"),
            "rss_peak_mb": (rss_mb, "MB"),
            "sim_us": (sum(r.sim_ns for r in window) / 1e3, "us"),
            "sim_p50_us": (percentile(latencies, 50) / 1e3, "us"),
            "sim_p99_us": (percentile(latencies, 99) / 1e3, "us"),
            "sim_err_pct": (max(errors.values()), "%"),
        }
        lines.append("samples ops_per_s " + json.dumps(
            [round(r, 4) for r in untraced]))
        lines.append("samples ops_per_host_s " + json.dumps(
            [round(r, 4) for r in raw_rates]))
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {workload} {name} = {value:.6g} {unit}")
    lines.append(f"metric {workload} ops_failed = {failed} ops")
    return {
        "lines": lines,
        "digest": digest,
        "traced_passes": len(traced),
        # host seconds per traced pass, by layer (the self-test reads them)
        "layer_self_s": {layer: value / max(len(traced), 1)
                         for layer, value in ledger.self_s.items()},
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernels", "kv_serve", "cluster_stream"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    _reexec_deterministic(argv)
    sys.path.insert(0, str(ROOT / "src"))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
