"""Multi-tenant cluster traffic: correctness, percentiles, validation.

Cluster traffic runs through ``ServingEngine`` in its open-loop cluster
shape: FIFO dispatch, one launch per arrival, no admission gates.
"""

import pytest

from repro.cluster import make_cluster_platform
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec

_UNBATCHED_FIFO = dict(scheduler="fifo", batch=BatchPolicy(max_batch=1))


def _stream(name, kind, rate_rps, requests, **kwargs):
    return TenantSpec(name, kind,
                      arrivals=ArrivalSpec("poisson", rate_rps=rate_rps,
                                           requests=requests),
                      **kwargs)


def _mixed_specs(requests=60):
    return [
        _stream("kv", "kvstore", 4e6, requests, size=512),
        _stream("scan", "olap", 1e6, max(8, requests // 6), size=1 << 13),
        _stream("batch", "vecadd", 1e6, max(8, requests // 6), size=1 << 12),
    ]


def _run(platform, specs):
    return ServingEngine(platform, specs, **_UNBATCHED_FIFO).run()


class TestMultiTenantRun:
    def test_all_streams_served_and_correct(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = _run(platform, _mixed_specs())
        assert report.correct
        for tenant, spec in zip(report.tenants, _mixed_specs()):
            assert tenant.served == spec.arrivals.requests
        assert report.served == sum(s.arrivals.requests
                                    for s in _mixed_specs())

    def test_percentiles_ordered(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = _run(platform, _mixed_specs())
        assert report.p50_ns <= report.p95_ns <= report.p99_ns
        for tenant in report.tenants:
            assert tenant.p50_ns <= tenant.p95_ns <= tenant.p99_ns
            assert tenant.span_ns > 0
            assert tenant.throughput_rps > 0

    def test_render_mentions_every_stream(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = _run(platform, _mixed_specs(requests=30))
        text = report.render()
        for tenant in report.tenants:
            assert tenant.name in text
        assert "aggregate" in text

    def test_deterministic_across_runs(self):
        def run():
            platform = make_cluster_platform(num_devices=2,
                                             backend="batched")
            return _run(platform, _mixed_specs(requests=30))
        first, second = run(), run()
        assert first.aggregate.samples == second.aggregate.samples

    def test_config_seed_changes_traffic(self):
        # arrivals and tenant data both derive from ClusterConfig.seed
        def run(seed):
            platform = make_cluster_platform(
                num_devices=2,
                cluster=ClusterConfig(num_devices=2, seed=seed),
                backend="batched",
            )
            return _run(platform, [_stream("vec", "vecadd", 1e6, 12,
                                           size=1 << 10)])
        assert run(1).aggregate.samples != run(2).aggregate.samples
        assert run(3).aggregate.samples == run(3).aggregate.samples


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            _stream("s", "graphql", 1.0, 1)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigError):
            _stream("s", "olap", 0.0, 1)

    def test_duplicate_stream_names_rejected(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        specs = [_stream("same", "olap", 1e5, 2),
                 _stream("same", "vecadd", 1e5, 2)]
        with pytest.raises(ConfigError):
            ServingEngine(platform, specs, **_UNBATCHED_FIFO)

    def test_empty_specs_rejected(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        with pytest.raises(ConfigError):
            ServingEngine(platform, [], **_UNBATCHED_FIFO)
