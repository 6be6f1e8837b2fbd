"""Tests for the Table IV configuration presets and the REPRO_* knobs."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import (
    KNOBS,
    CPUConfig,
    CXLConfig,
    GPUConfig,
    NDPConfig,
    SystemConfig,
    cpu_ndp_config,
    ddr5_host_dram,
    default_system,
    gpu_ndp_config,
    hbm2_gpu_dram,
    lpddr5_cxl_dram,
    memory_side_l2_config,
    ndp_l1d_config,
    setting,
)
from repro.errors import ConfigError


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


#: name -> (default, a valid environment value, what it parses to, an
#: explicit argument, invalid values).  Partition specs are validated
#: against the device at construction (tests/cluster/test_partitions.py).
KNOB_CASES = {
    "REPRO_EXEC_BACKEND": (None, "batched", "batched", "interpreter",
                           ["jit", ""]),
    "REPRO_TRACE_CACHE": (True, "0", False, True, ["false", "yes", ""]),
    "REPRO_TRACE_CACHE_CAPACITY": (64, "2", 2, 5, ["abc", "0", "1.5"]),
    "REPRO_CLUSTER_SCHEDULER": (None, "round_robin", "round_robin",
                                "least_outstanding", ["fifo", ""]),
    "REPRO_PARTITIONS": (None, "a:1,b:1", "a:1,b:1", "x:1", []),
    "REPRO_SERVE_SCHEDULER": ("wfq", "fifo", "fifo", "wfq", ["lottery"]),
    "REPRO_SERVE_MAX_BATCH": (8, "4", 4, 1, ["many", "0"]),
    "REPRO_SERVE_MAX_WAIT_NS": (2000.0, "1500", 1500.0, math.inf,
                                ["soon", "-1", "nan"]),
    "REPRO_SERVE_SCATTER_BATCH": (True, "0", False, True, ["yes", ""]),
    "REPRO_LAUNCH_TIMEOUT_NS": (0.0, "2500", 2500.0, 100.0,
                                ["soon", "-5", "inf", "nan"]),
    "REPRO_TRACE": (False, "1", True, False, ["yes", "true", ""]),
    "REPRO_MONITOR": (True, "0", False, True, ["yes", "off"]),
    "REPRO_RECORDER_CAPACITY": (256, "32", 32, 64, ["many", "0", "-3"]),
    "REPRO_MONITOR_BURN": (2.0, "3.5", 3.5, 1.5,
                           ["fast", "0", "-1", "inf", "nan"]),
}


class TestKnobs:
    def test_every_knob_has_a_case(self):
        assert list(KNOB_CASES) == list(KNOBS)

    @pytest.mark.parametrize("name", list(KNOB_CASES))
    def test_knob(self, monkeypatch, name):
        default, env, parsed, explicit, invalid = KNOB_CASES[name]
        monkeypatch.delenv(name, raising=False)
        assert setting(name) == KNOBS[name].default == default
        monkeypatch.setenv(name, env)
        assert setting(name) == parsed
        assert setting(name, explicit) == explicit
        for bad in invalid:
            monkeypatch.setenv(name, bad)
            with pytest.raises(ConfigError,
                               match=f"{name} .*environment variable"):
                setting(name)
            with pytest.raises(ConfigError,
                               match=f"{name} .*explicit argument"):
                setting(name, bad)
            # an explicit argument never reads the environment
            assert setting(name, explicit) == explicit

    @staticmethod
    def _experiment_backend(value: str | None):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        if value is not None:
            env["REPRO_EXEC_BACKEND"] = value
        return subprocess.run(
            [sys.executable, "-c", "from repro.experiments.common import "
             "EXPERIMENT_BACKEND; print(EXPERIMENT_BACKEND)"],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_experiment_drivers_follow_exec_backend(self):
        assert self._experiment_backend(None).stdout.split() == ["batched"]
        run = self._experiment_backend("interpreter")
        assert run.stdout.split() == ["interpreter"]
        run = self._experiment_backend("bogus")
        assert run.returncode != 0
        assert "ConfigError: REPRO_EXEC_BACKEND" in run.stderr


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


#: Read by benchmarks/check_budget.py, which runs without src/ on the path.
_BENCH_KNOBS = ["REPRO_BENCH_BUDGET_FACTOR"]


def _knob_table_rows() -> list[tuple[str, str]]:
    """README "Knobs" table rows as (variable name, values cell), in order."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \| ([^|]*) \|",
                      section, re.MULTILINE)


def _settings_called() -> set[str]:
    """Names passed as the first argument of a ``setting(...)`` call in a
    module under ``src/`` other than ``repro/config.py``."""
    src = _ROOT / "src" / "repro"
    names = set()
    for path in sorted(src.rglob("*.py")):
        if path == src / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setting" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def _environ_reads(path: Path, allow_listing: bool) -> list[int]:
    """Lines where a module touches ``os.environ`` / ``os.getenv``;
    ``allow_listing`` exempts ``os.environ.items()``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed = {id(node.value) for node in ast.walk(tree)
              if allow_listing and isinstance(node, ast.Attribute)
              and node.attr == "items"}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and id(node) not in listed]


class TestKnobTable:
    def test_every_knob_read_has_a_readme_row(self):
        names = {name for name, _ in _knob_table_rows()}
        missing = (_knobs_read() | set(KNOBS)) - names
        assert not missing, f"undocumented knobs: {sorted(missing)}"

    def test_every_readme_row_names_a_knob_something_reads(self):
        # a list, so a duplicated README row fails too
        names = [name for name, _ in _knob_table_rows()]
        assert names == list(KNOBS) + _BENCH_KNOBS
        unread = set(KNOBS) - _settings_called()
        assert not unread, f"table knobs nothing reads: {sorted(unread)}"
        assert set(_BENCH_KNOBS) <= _knobs_read()

    def test_readme_defaults_match_the_table(self):
        rows = dict(_knob_table_rows())
        for name, knob in KNOBS.items():
            # the default is the parenthesized tail of the values cell
            default = re.search(r"\(([^()]*)\)$", rows[name]).group(1)
            if knob.default is None:
                assert default.startswith("unset: `"), name
            else:
                shown = re.match(r"`([^`]*)`", default).group(1)
                assert knob.parse(shown) == knob.default, name

    def test_only_config_reads_the_environment(self):
        src = _ROOT / "src" / "repro"
        offenders = {
            str(path.relative_to(src)): lines
            for path in sorted(src.rglob("*.py"))
            if path != src / "config.py"
            and (lines := _environ_reads(
                path, allow_listing=path == src / "obs" / "export.py"))
        }
        assert not offenders, f"read REPRO_* through repro.config: {offenders}"
