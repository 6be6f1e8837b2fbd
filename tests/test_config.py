"""Tests for the Table IV configuration presets and the REPRO_* knobs."""

import ast
import re
from pathlib import Path

import pytest

from repro.cluster import make_cluster_platform
from repro.config import (
    CPUConfig,
    CXLConfig,
    GPUConfig,
    NDPConfig,
    SystemConfig,
    cpu_ndp_config,
    ddr5_host_dram,
    default_system,
    env_flag,
    gpu_ndp_config,
    hbm2_gpu_dram,
    lpddr5_cxl_dram,
    memory_side_l2_config,
    ndp_l1d_config,
)
from repro.errors import ConfigError
from repro.exec.trace_cache import TraceCache
from repro.obs import tracer
from repro.obs.monitor import resolve_monitoring
from repro.serve import ServingEngine, TenantSpec
from repro.workloads.base import make_platform


class TestDRAMPresets:
    def test_lpddr5_table_iv(self):
        dram = lpddr5_cxl_dram()
        assert dram.channels == 32
        assert dram.total_bw_bytes_per_ns == pytest.approx(409.6)
        assert dram.access_granularity == 32
        assert dram.capacity_bytes == 256 << 30
        t = dram.timing
        assert (t.t_rc, t.t_rcd, t.t_cl, t.t_rp) == (48, 15, 20, 15)

    def test_ddr5_table_iv(self):
        dram = ddr5_host_dram()
        assert dram.total_bw_bytes_per_ns == pytest.approx(409.6)
        assert dram.access_granularity == 64

    def test_hbm2_bandwidth(self):
        assert hbm2_gpu_dram().total_bw_bytes_per_ns == pytest.approx(1024.0)

    def test_timing_validation(self):
        from repro.config import DRAMTiming
        with pytest.raises(ConfigError):
            DRAMTiming(tck_ns=1.0, t_rc=10, t_rcd=20, t_cl=5, t_rp=20)


class TestNDPConfig:
    def test_table_iv_defaults(self):
        ndp = NDPConfig()
        assert ndp.num_units == 32
        assert ndp.subcores_per_unit == 4
        assert ndp.uthread_slots_per_subcore == 16
        assert ndp.total_uthread_slots == 2048
        assert ndp.regfile_bytes_per_unit == 48 << 10
        assert ndp.vector_bytes == 32
        assert ndp.max_concurrent_kernels == 48

    def test_clock(self):
        assert NDPConfig().clock.period_ns == 0.5

    def test_rf_split_across_subcores(self):
        assert NDPConfig().regfile_bytes_per_subcore == 12 << 10


class TestGPUConfig:
    def test_warps_per_sm(self):
        assert GPUConfig().max_warps_per_sm == 48

    def test_gpu_ndp_fractional_sms(self):
        config = gpu_ndp_config(16.2)
        assert config.num_sms == 16
        assert config.freq_ghz == pytest.approx(2.0 * 16.2 / 16)

    def test_gpu_ndp_rejects_zero(self):
        with pytest.raises(ConfigError):
            gpu_ndp_config(0.4)


class TestCPUConfig:
    def test_defaults(self):
        cpu = CPUConfig()
        assert cpu.num_cores == 64
        assert cpu.freq_ghz == 3.2

    def test_cpu_ndp_uses_32_cores(self):
        assert cpu_ndp_config().num_cores == 32


class TestCacheConfigs:
    def test_l2_table_iv(self):
        l2 = memory_side_l2_config()
        assert l2.size_bytes == 4 << 20
        assert l2.ways == 16
        assert (l2.line_bytes, l2.sector_bytes) == (128, 32)

    def test_l1d_table_iv(self):
        l1 = ndp_l1d_config()
        assert l1.size_bytes == 128 << 10


class TestSystemConfig:
    def test_default_bundle(self):
        system = default_system()
        assert system.cxl.load_to_use_ns == 150.0
        assert system.cxl_dram.name == "LPDDR5-CXL"

    def test_with_ltu(self):
        system = default_system().with_ltu(300.0)
        assert system.cxl.load_to_use_ns == 300.0
        # other components untouched
        assert system.ndp.num_units == 32

    def test_with_ndp_freq(self):
        system = default_system().with_ndp_freq(1.0)
        assert system.ndp.freq_ghz == 1.0

    def test_immutability(self):
        system = default_system()
        with pytest.raises(Exception):
            system.cxl.load_to_use_ns = 999.0


def _build_batched_device():
    make_platform(backend="batched")


def _build_kvstore_tenant():
    platform = make_cluster_platform(num_devices=1, backend="batched")
    ServingEngine(platform, [TenantSpec("kv", "kvstore", size=64)],
                  monitoring=False)


def _resolve_monitoring():
    resolve_monitoring(None)


def _resolve_tracing():
    tracer._env_enabled()


#: Every boolean ``REPRO_*`` switch, with the call that reads it.
BOOLEAN_FLAGS = [
    ("REPRO_TRACE_CACHE", _build_batched_device),
    ("REPRO_SERVE_SCATTER_BATCH", _build_kvstore_tenant),
    ("REPRO_MONITOR", _resolve_monitoring),
    ("REPRO_TRACE", _resolve_tracing),
]


class TestEnvFlags:
    @pytest.mark.parametrize("name,read", BOOLEAN_FLAGS,
                             ids=[name for name, _ in BOOLEAN_FLAGS])
    def test_flag_accepts_only_zero_or_one(self, monkeypatch, name, read):
        for good in ("0", "1"):
            monkeypatch.setenv(name, good)
            read()
        for bad in ("false", "yes", ""):
            monkeypatch.setenv(name, bad)
            with pytest.raises(ConfigError, match=name):
                read()

    def test_env_flag_default_and_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert env_flag("REPRO_TRACE", True) is True
        assert env_flag("REPRO_TRACE", False) is False
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert env_flag("REPRO_TRACE", True) is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert env_flag("REPRO_TRACE", False) is True

    def test_trace_cache_capacity_must_be_positive_integer(self,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAPACITY", "2")
        assert TraceCache.from_env().capacity == 2
        for bad in ("abc", "0"):
            monkeypatch.setenv("REPRO_TRACE_CACHE_CAPACITY", bad)
            with pytest.raises(ConfigError,
                               match="REPRO_TRACE_CACHE_CAPACITY"):
                TraceCache.from_env()


_ROOT = Path(__file__).resolve().parents[1]
_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _knobs_read() -> set[str]:
    """Every ``REPRO_*`` name a string literal spells out under ``src/``
    or ``benchmarks/`` (docstrings and messages mention, they don't read)."""
    names = set()
    for tree in ("src", "benchmarks"):
        for path in sorted((_ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and _KNOB.fullmatch(node.value)):
                    names.add(node.value)
    return names


def _knob_table_rows() -> list[str]:
    """Variable names of the README "Knobs" table rows, in order."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.MULTILINE)


class TestKnobTable:
    def test_every_knob_read_has_a_readme_row(self):
        missing = _knobs_read() - set(_knob_table_rows())
        assert not missing, f"undocumented knobs: {sorted(missing)}"

    def test_every_readme_row_names_a_knob_something_reads(self):
        rows = _knob_table_rows()
        assert len(rows) == len(set(rows)), "duplicate README knob rows"
        stale = set(rows) - _knobs_read()
        assert not stale, f"README rows nothing reads: {sorted(stale)}"
