"""Bulk charge paths vs their scalar references.

The vectorized `access_batch` APIs must reproduce the per-access loops
they replace: same hit/miss/eviction classification and stats for the
sector cache, same row classification, stats and bank/bus state for the
DRAM model (timing to FP noise), and identical virtual-time evolution for
the servers.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.config import (CacheConfig, ddr5_host_dram, lpddr5_cxl_dram,
                          memory_side_l2_config)
from repro.mem.cache import SectorCache
from repro.mem.dram import DRAMModel
from repro.sim.engine import BandwidthServer, IssueServer, virtual_queue_finish
from repro.sim.stats import StatsRegistry


def _cache_pair(cfg):
    s1, s2 = StatsRegistry(), StatsRegistry()
    return (SectorCache(cfg, s1, "l2", write_allocate=True, write_back=True),
            SectorCache(cfg, s2, "l2", write_allocate=True, write_back=True),
            s1, s2)


def _drive_scalar(cache, addrs, writes):
    fills, wbs = [], []
    for k, (a, w) in enumerate(zip(addrs, writes)):
        r = cache.access(int(a), cache.config.sector_bytes, bool(w))
        fills.extend(s for s, _ in r.missing_sectors)
        wbs.extend((k, s) for s, _ in r.writebacks)
    return fills, wbs


class TestSectorCacheBatch:
    def test_cold_streaming_matches_scalar(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        addrs = (np.arange(5000) * 32).astype(np.int64)
        writes = np.zeros(5000, dtype=bool)
        writes[::3] = True
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(addrs, writes)
        assert addrs[res.fill_idx].tolist() == fills_ref
        assert wb_ref == []
        assert res.wb_addrs.size == 0
        assert s1.counters("l2") == s2.counters("l2")

    def test_random_reuse_matches_scalar(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        gen = np.random.default_rng(7)
        addrs = (gen.integers(0, 2000, 8000) * 32).astype(np.int64)
        writes = gen.random(8000) < 0.4
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(addrs, writes)
        assert addrs[res.fill_idx].tolist() == fills_ref
        assert s1.counters("l2") == s2.counters("l2")
        assert c1.resident_lines() == c2.resident_lines()

    def test_capacity_overflow_matches_scalar(self):
        small = CacheConfig("t", 16 * 1024, 4, 128, 32, 1.0)
        c1, c2, s1, s2 = _cache_pair(small)
        addrs = (np.arange(4000) * 32).astype(np.int64)
        writes = np.zeros(4000, dtype=bool)
        writes[1::2] = True
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(addrs, writes)
        assert addrs[res.fill_idx].tolist() == fills_ref
        # writeback events match in order: both paths emit them by the
        # stream position of the evicting allocation, sectors ascending
        got = list(zip(res.wb_idx.tolist(), res.wb_addrs.tolist()))
        assert wb_ref == got
        assert s1.counters("l2") == s2.counters("l2")
        assert c1.resident_lines() == c2.resident_lines()

    def test_state_carries_across_batches(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        addrs = (np.arange(3000) * 32).astype(np.int64)
        reads = np.zeros(3000, dtype=bool)
        _drive_scalar(c1, addrs, reads)
        c2.access_batch(addrs, reads)
        # second pass re-reads everything: all hits on both paths
        fills_ref, _ = _drive_scalar(c1, addrs, reads)
        res = c2.access_batch(addrs, reads)
        assert fills_ref == []
        assert res.fill_idx.size == 0
        assert s1.counters("l2") == s2.counters("l2")

    def test_rejects_write_through_configs(self):
        cfg = memory_side_l2_config()
        cache = SectorCache(cfg, StatsRegistry(), "l1",
                            write_allocate=False, write_back=False)
        with pytest.raises(NotImplementedError):
            cache.access_batch(np.zeros(1, dtype=np.int64),
                               np.zeros(1, dtype=bool))


class TestDRAMBatch:
    def test_matches_scalar_reference(self):
        cfg = lpddr5_cxl_dram()
        gen = np.random.default_rng(0)
        addrs = (gen.integers(0, (1 << 22) // 32, 5000) * 32).astype(np.int64)
        arrivals = np.cumsum(gen.uniform(0.5, 4.0, 5000))
        writes = gen.random(5000) < 0.3
        s1, s2 = StatsRegistry(), StatsRegistry()
        d1, d2 = DRAMModel(cfg, s1), DRAMModel(cfg, s2)
        ref = np.array([
            d1.access(int(a), 32, float(t), bool(w))
            for a, t, w in zip(addrs, arrivals, writes)
        ])
        got = d2.access_batch(addrs, 32, arrivals, writes)
        assert got == pytest.approx(ref, rel=1e-9)
        assert s1.counters("dram") == s2.counters("dram")
        # bank state arrays, indexed channel * banks_per_channel + bank
        assert np.array_equal(d1._open_row, d2._open_row)
        assert d1._ready_ns == pytest.approx(d2._ready_ns, abs=1e-6)

    def test_state_carries_into_scalar_path(self):
        cfg = lpddr5_cxl_dram()
        d = DRAMModel(cfg, StatsRegistry())
        addrs = (np.arange(256) * 32).astype(np.int64)
        d.access_batch(addrs, 32, np.full(256, 10.0), np.zeros(256, bool))
        # the same sector again, later: its row must still be open
        before = d.stats.get("dram.row_hits") if hasattr(d, "stats") else 0
        d.access(int(addrs[0]), 32, 1e6, False)
        assert d.stats.get("dram.row_hits") >= before


class TestCoherenceBatch:
    def test_batch_bi_count_matches_scalar(self):
        # two 32 B sectors share one 64 B host line: the scalar loop
        # invalidates it once; the batch path must not double-charge
        from repro.config import CXLConfig
        from repro.cxl.hdm import HDMCoherence
        from repro.cxl.link import CXLLink

        addrs = np.array([0, 32, 64, 96], dtype=np.int64)
        counts = {}
        for label in ("scalar", "batch"):
            stats = StatsRegistry()
            coherence = HDMCoherence(CXLLink(CXLConfig(), stats),
                                     dirty_fraction=0.9, stats=stats)
            if label == "scalar":
                now = 0.0
                for a in addrs:
                    coherence.access(int(a), 32, now)
            else:
                coherence.access_batch(addrs, 32, np.zeros(4))
            counts[label] = stats.get("hdm.back_invalidations")
        assert counts["scalar"] == counts["batch"]


class TestServerBatch:
    def test_bandwidth_charge_batch_matches_transfer_loop(self):
        gen = np.random.default_rng(3)
        arrivals = np.cumsum(gen.uniform(0.0, 2.0, 1000))
        sizes = gen.integers(32, 512, 1000)
        a, b = BandwidthServer(64.0), BandwidthServer(64.0)
        ref = [a.transfer(float(t), int(s)) for t, s in zip(arrivals, sizes)]
        got = b.charge_batch(arrivals, sizes)
        assert got == pytest.approx(np.array(ref), rel=1e-12)
        assert a.bytes_transferred == b.bytes_transferred
        assert a.occupancy_end() == pytest.approx(b.occupancy_end())

    def test_issue_service_batch_matches_issue_loop(self):
        a, b = IssueServer(4, 0.5), IssueServer(4, 0.5)
        for _ in range(37):
            a.issue(10.0)
        finish = b.service_batch(10.0, 37)
        assert a.busy_until == pytest.approx(b.busy_until)
        assert finish == pytest.approx(a.busy_until)
        assert a.ops_issued == b.ops_issued

    def test_virtual_queue_finish_closed_form(self):
        arrivals = np.array([0.0, 1.0, 10.0])
        costs = np.array([4.0, 4.0, 4.0])
        # 0->4, queued 4->8, idle gap then 10->14
        assert virtual_queue_finish(arrivals, costs).tolist() == [4, 8, 14]
        assert virtual_queue_finish(arrivals, costs, busy_until=20.0)[
            0] == pytest.approx(24.0)


# ---------------------------------------------------------------------------
# Pinned batch semantics.  The two documented L2 batch approximations
# (re-touched lines assumed resident; deep overflow retires victims in
# recency order) and the DRAM batch timing are exercised on seeded
# adversarial streams and compared against sha256 digests recorded from the
# reference implementation, so any change to what the batch paths compute
# -- not only the cases where they agree with the scalar loop -- fails here.
# ---------------------------------------------------------------------------

def _digest_l2_stream(seed, max_sets, max_ways, batches, batch_len,
                      footprint, scalar_prob, prefill):
    gen = np.random.default_rng(seed)
    sets = int(gen.integers(1, max_sets + 1))
    ways = int(gen.integers(1, max_ways + 1))
    cfg = CacheConfig("pin", sets * ways * 128, ways, 128, 32, 1.0)
    stats = StatsRegistry()
    cache = SectorCache(cfg, stats, "l2", write_allocate=True,
                        write_back=True)
    # line pool: a few sets' worth of colliding lines, at a high base so
    # tags need more than 32 bits
    pool = (np.int64(1) << 34) // 128 + gen.choice(
        footprint * sets, size=footprint * sets, replace=False)
    h = hashlib.sha256()
    for _ in range(prefill):
        line = int(gen.choice(pool))
        r = cache.access(line * 128 + int(gen.integers(0, 4)) * 32, 32,
                         bool(gen.random() < 0.5))
        h.update(repr((r.hit_sectors, r.missing_sectors,
                       r.writebacks)).encode())
    for _ in range(batches):
        if gen.random() < scalar_prob:
            line = int(gen.choice(pool))
            addr = line * 128 + int(gen.integers(0, 128))
            size = int(gen.integers(1, 160))
            r = cache.access(addr, size, bool(gen.random() < 0.5))
            h.update(repr((r.hit_sectors, r.missing_sectors,
                           r.writebacks)).encode())
        n = int(gen.integers(1, batch_len + 1))
        lines = gen.choice(pool, size=n)
        addrs = (lines * 128 + gen.integers(0, 4, n) * 32).astype(np.int64)
        writes = gen.random(n) < gen.random()
        res = cache.access_batch(addrs, writes)
        order = np.argsort(res.wb_idx, kind="stable")
        h.update(res.hit_mask.astype(np.uint8).tobytes())
        h.update(res.fill_idx.astype(np.int64).tobytes())
        h.update(res.wb_idx[order].astype(np.int64).tobytes())
        h.update(res.wb_addrs[order].astype(np.int64).tobytes())
        h.update(repr(sorted(stats.counters("l2").items())).encode())
        h.update(repr(cache.resident_lines()).encode())
    return h.hexdigest()


# scenario -> (stream parameters, digest over 40 seeded streams)
_L2_PINS = {
    # one batch many times the capacity of 1-2 sets: transient lines and
    # touched residents become victims
    "deep_overflow": (dict(max_sets=2, max_ways=4, batches=3,
                           batch_len=120, footprint=24, scalar_prob=0.0,
                           prefill=6),
        "e43d94d0b49f4b372ebe5f2f3933e8f7227363fd839e1683c41f043c306f22c7"),
    # warm sets, then batches that re-touch residents while overflowing
    "touched_resident_victims": (dict(max_sets=4, max_ways=8, batches=6,
                                      batch_len=40, footprint=10,
                                      scalar_prob=0.0, prefill=40),
        "438a058d6572d7d8757d86fd6f8c0dc30c41b7ac4f38029b1f9d7ed8a9c63654"),
    # many short batches over a small footprint: state carried across
    "multi_batch": (dict(max_sets=8, max_ways=8, batches=12, batch_len=16,
                         footprint=12, scalar_prob=0.0, prefill=0),
        "bd190985fe12077aa15bc464ecb5ea20b736794ed064326ff3af64ead60d1fd1"),
    # scalar accesses (unaligned, multi-sector) between batches
    "scalar_interleaved": (dict(max_sets=8, max_ways=8, batches=12,
                                batch_len=24, footprint=10, scalar_prob=0.7,
                                prefill=10),
        "683cf007c3e0f204638d49f58a39430556ef3ec40d1a1aa2abe7ad9c663aba15"),
}


class TestSectorCacheBatchPinned:
    @pytest.mark.parametrize("scenario", sorted(_L2_PINS))
    def test_matches_recorded_digest(self, scenario):
        params, want = _L2_PINS[scenario]
        h = hashlib.sha256()
        for seed in range(40):
            h.update(_digest_l2_stream(seed, **params).encode())
        assert h.hexdigest() == want


def _digest_dram_stream(cfg, seed):
    gen = np.random.default_rng(seed)
    stats = StatsRegistry()
    dram = DRAMModel(cfg, stats)
    grain = cfg.access_granularity
    # a small span keeps rows colliding (hits, misses and conflicts)
    span = int(gen.choice([1 << 12, 1 << 16, 1 << 22]))
    now = 0.0
    h = hashlib.sha256()
    for _ in range(int(gen.integers(2, 7))):
        if gen.random() < 0.5:
            addr = int(gen.integers(0, span))
            size = int(gen.integers(1, 4 * grain))
            done = dram.access(addr, size, now, bool(gen.random() < 0.3))
            h.update(struct.pack("<d", done))
        n = int(gen.integers(1, 400))
        addrs = (gen.integers(0, span // 32, n) * 32).astype(np.int64)
        # mostly rising arrivals with occasional stragglers, like the
        # hit-latency-shifted stream the L2 hands to DRAM
        arrivals = now + np.cumsum(gen.uniform(0.0, 3.0, n))
        late = gen.random(n) < 0.1
        arrivals[late] -= gen.uniform(0.0, 50.0, int(late.sum()))
        writes = gen.random(n) < 0.3
        finish = dram.access_batch(addrs, 32, arrivals, writes)
        h.update(np.asarray(finish, dtype=np.float64).tobytes())
        h.update(repr(sorted(stats.counters("dram").items())).encode())
        now = float(arrivals.max()) + float(gen.uniform(0.0, 200.0))
    return h.hexdigest()


_DRAM_PINS = {
    "lpddr5_cxl": (
        lpddr5_cxl_dram,
        "b94f6ae2f367eec08c9a06ae86467394aa9e70cbbb287abad8a96fa304335d87"),
    "ddr5_host": (
        ddr5_host_dram,
        "c367dd34787c4bbe2a9abbd604b10166d692fad1a369b5c7fdbd7769b5450c57"),
}


class TestDRAMBatchPinned:
    @pytest.mark.parametrize("name", sorted(_DRAM_PINS))
    def test_matches_recorded_digest(self, name):
        make_cfg, want = _DRAM_PINS[name]
        cfg = make_cfg()
        h = hashlib.sha256()
        for seed in range(100):
            h.update(_digest_dram_stream(cfg, seed).encode())
        assert h.hexdigest() == want
