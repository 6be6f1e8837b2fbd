"""Self-test of the benchmark at a tiny size (about a minute).

Usage::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit on every workload, that traced and untraced runs of one seed give
the same simulated-output digest, and that the ledger attributes cost to
the layer that pays it: a delay injected into ``SectorCache.access_batch``
(in this process only) must raise the mem.charge layer's self time on
``cluster_stream`` and must not show up in the exec layer's self time on
``kernels``.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import run  # noqa: E402

TINY = 1 / 64
SEED = 7
#: Injected per-call delay; far above the tiny runs' timing noise.
DELAY_S = 0.05


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def tiny(workload: str, trace: bool) -> dict:
    return run(workload, SEED, seconds=0.0, trace=trace, size=TINY)


def delayed(workload: str) -> tuple[dict, float]:
    """A traced tiny run with every L2 batch access slowed by DELAY_S.

    Returns the run and the delay injected per traced pass.
    """
    from repro.mem.cache import SectorCache
    from repro.ndp.device import M2NDPDevice

    original = SectorCache.access_batch
    traced_calls = []

    def slow(self, *args, **kwargs):
        # the ledger's wrappers carry __wrapped__ while a traced pass runs
        if hasattr(M2NDPDevice.__dict__["l2_dram_access_batch"],
                   "__wrapped__"):
            traced_calls.append(None)
        time.sleep(DELAY_S)
        return original(self, *args, **kwargs)

    SectorCache.access_batch = slow
    try:
        out = tiny(workload, trace=True)
    finally:
        SectorCache.access_batch = original
    return out, DELAY_S * len(traced_calls) / out["traced_passes"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    plain = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            out = tiny(workload, trace)
            result = out["result"]
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            check(emitted == declared[trace],
                  f"{workload} trace={int(trace)}: every declared metric, "
                  f"with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)}: outputs verified")
            if trace:
                check(out["digest"] == plain[workload]["digest"],
                      f"{workload}: traced and untraced digests agree")
                plain[(workload, "traced")] = out["layer_self_s"]
            else:
                plain[workload] = out

    mem_before = plain[("cluster_stream", "traced")]["mem.charge"]
    out, injected = delayed("cluster_stream")
    mem_after = out["layer_self_s"]["mem.charge"]
    check(injected > 0 and mem_after - mem_before >= 0.8 * injected,
          f"cluster_stream: injected {injected:.3f} s/pass of L2 delay "
          f"raises mem.charge self time {mem_before:.3f} -> "
          f"{mem_after:.3f} s/pass")

    exec_before = plain[("kernels", "traced")]["exec"]
    out, injected = delayed("kernels")
    exec_after = out["layer_self_s"]["exec"]
    check(injected > 0 and abs(exec_after - exec_before) <= 0.5 * injected,
          f"kernels: injected {injected:.3f} s/pass of L2 delay leaves "
          f"exec self time {exec_before:.3f} -> {exec_after:.3f} s/pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
