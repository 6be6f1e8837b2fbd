"""Timing table: the fast engines' simulated runtime against the spec.

Results are byte-identical across engines, simulated time is not: each
fast engine estimates a launch's runtime analytically, while the
interpreter (the specification) schedules every instruction.  One row per
kernel class and input size pins

* the fast engine's simulated runtime, exactly, so a refactor that moves
  it fails here rather than in the perfbench digests; and
* the signed error ``(fast - interpreter) / interpreter`` in percent, with
  a bound on its magnitude.  A change to the timing model re-pins the
  runtime and the recorded error, and may only tighten the bound.

The routing counters prove which engine ran each row.  Inputs do not
depend on ``PYTHONHASHSEED``: ``olap.generate`` salts its generator with
``hash(query_name) % 1000``, which the Q6 salt cancels.
"""

import pytest

from repro.host.offload import make_offload_path
from repro.workloads import histogram, kvstore, olap, spmv
from repro.workloads.base import make_platform

SALT = 11


def _q6(rows: int):
    data = olap.generate("q6", rows, salt=SALT - hash("q6") % 1000)
    return lambda platform: olap.run_ndp_evaluate(platform, data)


def _histo(elements: int):
    data = histogram.generate(elements, 256, salt=SALT)
    return lambda platform: histogram.run_ndp(platform, data)


def _spmv(rows: int):
    data = spmv.generate(rows, 8, salt=SALT)
    return lambda platform: spmv.run_ndp(platform, data)


def _kvs(requests: int):
    """Mean GET/SET latency of a KVS_B trace: every launch one µthread."""
    data = kvstore.kvs_b(256, requests, salt=SALT)

    def run(platform):
        result = kvstore.run_ndp(platform, data, make_offload_path("m2func"))
        return result.correct, result.mean_ns
    return run


KERNELS = {"q6": _q6, "histo": _histo, "spmv": _spmv, "kvs": _kvs}

#: (kernel, engine, size, fast-engine runtime ns, error %, |error| bound %)
TABLE = [
    ("q6", "uniform", 2048, 660.1601562500009, 26.71, 27.0),
    ("q6", "uniform", 8192, 931.32958984375, 3.34, 4.0),
    ("histo", "simt", 256, 365.53125, -57.99, 58.0),
    ("histo", "simt", 1024, 374.2265625, -56.99, 57.0),
    ("spmv", "simt", 256, 6669.216357699042, 71.34, 72.0),
    ("spmv", "simt", 1024, 10627.138660047087, 61.59, 62.0),
    ("kvs", "point", 50, 424.11, 20.82, 21.0),
    ("kvs", "point", 200, 425.30421916913053, 35.16, 36.0),
]


def _run(kernel: str, size: int, backend: str):
    platform = make_platform(backend=backend)
    outcome = KERNELS[kernel](size)(platform)
    if isinstance(outcome, tuple):
        correct, runtime_ns = outcome
    else:
        correct, runtime_ns = outcome.correct, outcome.runtime_ns
    assert correct, f"{kernel} wrong on {backend}"
    return platform.stats, runtime_ns


def _assert_routed(stats, engine: str) -> None:
    count = {name: stats.get(f"exec.{name}", 0.0)
             for name in ("batched_launches", "simt_launches",
                          "point_launches", "batched_fallbacks")}
    assert count["batched_fallbacks"] == 0, count
    if engine == "uniform":
        assert count["batched_launches"] > 0 == count["simt_launches"], count
    elif engine == "simt":
        assert count["simt_launches"] > 0, count
        assert count["batched_launches"] == count["point_launches"] == 0, count
    else:
        assert count["point_launches"] == count["simt_launches"] > 0, count
        assert count["batched_launches"] == 0, count


@pytest.mark.parametrize("kernel,engine,size,pinned_ns,error_pct,bound_pct",
                         TABLE, ids=[f"{k}-{s}" for k, _, s, *_ in TABLE])
def test_fast_engine_timing(kernel, engine, size, pinned_ns, error_pct,
                            bound_pct):
    stats, fast_ns = _run(kernel, size, "batched")
    _assert_routed(stats, engine)
    assert fast_ns == pinned_ns
    _, spec_ns = _run(kernel, size, "interpreter")
    error = (fast_ns - spec_ns) / spec_ns * 100.0
    assert round(error, 2) == error_pct
    assert abs(error) <= bound_pct
